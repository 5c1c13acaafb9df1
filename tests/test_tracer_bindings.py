"""The benchmark tracer's precondition: it wraps every ``dp3.*`` function
bound in a traced module and looks the function up in its home module, so
each such home must itself be traced.  A decorator bound by name (say
``from .errors import finite_result``) breaks every traced run with a
``KeyError``; the package binds ``errors`` as a module instead.

``MODULES`` is read from the tracer's source, which this test leaves as it
is."""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_modules() -> tuple[str, ...]:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] == ["MODULES"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py assigns no MODULES")


def test_traced_modules_bind_only_functions_of_traced_modules():
    modules = traced_modules()
    assert "asymptotics" in modules and "cli" in modules
    untraced = []
    for name in modules:
        for attr, obj in vars(importlib.import_module(f"dp3.{name}")).items():
            if inspect.isfunction(obj) and obj.__module__.startswith("dp3."):
                home = obj.__module__.split(".", 1)[1]
                if home not in modules:
                    untraced.append(f"dp3.{name}.{attr} from dp3.{home}")
    assert untraced == []
