"""The narrative demos run to completion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_demos_run_cleanly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    scripts = sorted((ROOT / "demos").glob("*.py"))
    assert scripts
    for script in scripts:
        proc = subprocess.run([sys.executable, str(script)], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, (script.name, proc.stderr)
        assert "Traceback" not in proc.stderr, (script.name, proc.stderr)
