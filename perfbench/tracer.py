"""In-memory span tracer for the benchmark's traced runs.

Spans come only from this file: the tracer replaces public functions of the
``dp3`` modules at the module attributes through which they are called
(the ``from .x import f`` bindings one module holds of another, and the
defining module's own attribute, which the CLI and the benchmark call
through).  No source file of the package is edited, and ``uninstall``
puts every original back.

Spans are aggregated per function as they close (calls, total time, self
time, ``DP3Error``s raised), so memory stays constant however many
operations a run makes.  Self time is span time minus the time covered by
child spans.  Solver work is counted from the result objects of the
scipy calls as bound in ``dp3.ode`` and ``dp3.connection``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

MODULES = ("specfun", "monodromy", "params", "asymptotics", "ode",
           "backlund", "connection", "sampling", "cli")
LAYERS = ("ode", "connection", "specfun", "monodromy", "asymptotics.chart",
          "asymptotics.eval", "backlund", "sampling", "cli")
_CHART_FUNCS = {"small_tau_chart", "large_tau_chart", "imag_chart"}
# Defining-module bindings left alone: ode calls these once per rhs
# evaluation or per dense sample (42k spans per ray would measure the
# tracer), and specfun's own helpers call each other on every gamma call.
_SKIP_OWN = {("ode", "dp3_rhs"), ("ode", "hamiltonian_u")}
_NO_OWN_MODULES = {"specfun", "params"}
COUNTERS = ("ode.steps", "ode.nfev", "ode.rays", "ode.dense_samples",
            "connection.fit_nfev", "sampling.points", "sampling.from_branch_calls")


def layer_of(module: str, name: str) -> str:
    if module == "asymptotics":
        return "asymptotics.chart" if name in _CHART_FUNCS else "asymptotics.eval"
    return module


def _public(mod) -> set[str]:
    names = set(getattr(mod, "__all__", ()))
    if mod.__name__ == "dp3.cli":
        names.add("main")
    return names


class Tracer:
    """Installs span wrappers on the dp3 modules; ``snapshot`` returns the
    aggregated counts and times since the last ``reset``."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[float] = []
        self.reset()

    def reset(self) -> None:
        self.fn: dict[str, list] = {}  # name -> [calls, total_s, self_s, errors]
        self.counts = {k: 0 for k in COUNTERS}
        self._stack.clear()

    # ------------------------------------------------------------ install
    def install(self) -> None:
        from dp3.errors import DP3Error

        self._error_type = DP3Error
        mods = {m: importlib.import_module(f"dp3.{m}") for m in MODULES}
        for mname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("dp3."):
                    continue
                home = obj.__module__.split(".", 1)[1]
                if attr not in _public(mods[home]):
                    continue
                if home == mname and (home in _NO_OWN_MODULES or (home, attr) in _SKIP_OWN):
                    continue
                self._patch(mod, attr, self._span(obj, home, attr, (mname, attr)))
        self._patch(mods["ode"], "solve_ivp", self._count_solver(mods["ode"].solve_ivp))
        self._patch(mods["connection"], "least_squares",
                    self._count_fit(mods["connection"].least_squares))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._originals):
            setattr(mod, attr, orig)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _patch(self, mod, attr, wrapper) -> None:
        self._originals.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, wrapper)

    # ------------------------------------------------------------ wrappers
    def _span(self, fn, home: str, name: str, binding: tuple[str, str]):
        key = f"{home}.{name}"
        stack = self._stack
        error_type = self._error_type
        post = self._post_hook(binding)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats = self.fn.get(key)
            if stats is None:
                stats = self.fn[key] = [0, 0.0, 0.0, 0]
            if binding == ("sampling", "from_branch"):
                self.counts["sampling.from_branch_calls"] += 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except error_type as exc:
                # count each error once, in the span it first leaves
                if not getattr(exc, "_bench_counted", False):
                    stats[3] += 1
                    exc._bench_counted = True
                raise
            finally:
                dur = time.perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - child
                if stack:
                    stack[-1] += dur
            if post is not None:
                post(result, args, kwargs)
            return result

        return wrapper

    def _post_hook(self, binding: tuple[str, str]):
        name = binding[1]
        if name == "integrate_ray":
            def dense(result, args, kwargs):
                dense_at = kwargs.get("dense_at", args[5] if len(args) > 5 else None)
                if dense_at is not None:
                    self.counts["ode.dense_samples"] += len(result.tau)
            return dense
        if binding == ("sampling", "sample_manifold"):
            def points(result, args, kwargs):
                self.counts["sampling.points"] += len(result)
            return points
        return None

    def _count_solver(self, solve_ivp):
        @functools.wraps(solve_ivp)
        def wrapper(*args, **kwargs):
            res = solve_ivp(*args, **kwargs)
            self.counts["ode.rays"] += 1
            self.counts["ode.nfev"] += int(res.nfev)
            self.counts["ode.steps"] += int(res.t.size) - 1
            return res
        return wrapper

    def _count_fit(self, least_squares):
        @functools.wraps(least_squares)
        def wrapper(*args, **kwargs):
            res = least_squares(*args, **kwargs)
            self.counts["connection.fit_nfev"] += int(res.nfev)
            return res
        return wrapper

    # ------------------------------------------------------------ results
    def snapshot(self) -> dict:
        """Aggregated per-layer and per-function figures since ``reset``."""
        layers = {lay: [0, 0.0, 0] for lay in LAYERS}
        for key, (calls, _total, self_s, errors) in self.fn.items():
            home, name = key.split(".", 1)
            agg = layers[layer_of(home, name)]
            agg[0] += calls
            agg[1] += self_s
            agg[2] += errors
        return {
            "layers": {k: {"calls": c, "self_s": s, "errors": e}
                       for k, (c, s, e) in layers.items()},
            "functions": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2],
                              "errors": v[3]} for k, v in sorted(self.fn.items())},
            "counts": dict(self.counts),
        }

    def exact_counts(self) -> dict:
        """The figures that must repeat exactly for a repeated input."""
        out = dict(self.counts)
        out.update({f"{k}.calls": v[0] for k, v in self.fn.items()})
        out.update({f"{k}.errors": v[3] for k, v in self.fn.items()})
        return out
