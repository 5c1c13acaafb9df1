"""Benchmark entry point for dp3.

    python3 perfbench/run.py --workload connection-sweep --seed 1 --seconds 12 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  The workloads are defined in
``workloads.py``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
set-up time (median over fresh processes), peak RSS, operations per
second and per-operation wall-time percentiles.  ``--trace 1`` installs
the span tracer of ``tracer.py`` and reports per-layer metrics, the
tracing overhead against an untraced pass, and the Baseline table of the
ROADMAP; it fails its own check unless the solver and call counts of two
passes over the same inputs are identical.

Every run also prints its accuracy figures and environment, and writes
them with the metrics to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_passes(run, ops, seconds: float, min_passes: int, on_pass=None):
    """Closed loop over whole passes until ``seconds`` have elapsed.  An
    operation that raises is recorded as its exception and counted as a
    failure, never retried."""
    results, lat = [], []
    t_start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - t_start < seconds:
        t_pass = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            try:
                res = run(op)
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                res = exc
            lat.append(time.perf_counter() - t0)
            results.append((op, res))
        passes += 1
        if on_pass is not None:
            on_pass(time.perf_counter() - t_pass)
    return results, lat, time.perf_counter() - t_start


def grade(wl, results, n_first: int):
    """(failed count, accuracy summary over the first pass, failure notes)."""
    failed, figures, notes = 0, [], []
    for i, (op, res) in enumerate(results):
        if isinstance(res, BaseException):
            ok, fig = False, {}
            notes.append(f"{type(res).__name__}: {res}")
        else:
            ok, fig = wl.check(op, res)
            if not ok:
                detail = fig or getattr(res, "stderr", "")[-300:]
                notes.append(f"gate missed on operation {i % n_first}: {detail}")
        failed += not ok
        if i < n_first and fig:
            figures.append(fig)
    return failed, wl.summarize(figures) if figures else {}, notes


def child_setup_seconds(args) -> float:
    """Spawn-to-ready seconds of the workload's set-up in a fresh process."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["ready"] - t0


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu": cpu,
            "commit": _git_commit()}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; a checkout
    exported without .git reports "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _declared_metrics(trace: int) -> dict:
    """Metric names and units that BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


# ---------------------------------------------------------------- trace 0

def end_to_end(wl, args, workdir: Path) -> dict:
    setups = [child_setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    wl.setup(args.seed, workdir)
    results, lat, elapsed = timed_passes(wl.run, wl.ops, args.seconds, min_passes=1)
    failed, accuracy, notes = grade(wl, results, len(wl.ops))
    attempted = len(results)
    final = wl.finish()
    if final is not None:
        attempted += 1
        failed += not final[0]
        accuracy.update(final[1])
    return {
        "attempted": attempted, "failed": failed, "notes": notes, "accuracy": accuracy,
        "samples": {"ops": len(lat), "passes": len(lat) // len(wl.ops),
                    "ops_per_pass": len(wl.ops), "setup_s": setups,
                    "op_ms.p90": _percentile(lat, 90) * 1e3,
                    "op_ms.p99": _percentile(lat, 99) * 1e3,
                    "op_ms": [round(x * 1e3, 4) for x in lat]},
        "metrics": {
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(wl.peak_rss_mb(), "MB"),
            "ops_per_s": metric(len(lat) / elapsed, "1/s"),
            "op_ms.p50": metric(statistics.median(lat) * 1e3, "ms"),
        },
    }


# ---------------------------------------------------------------- trace 1

def traced(wl, args, workdir: Path) -> dict:
    from tracer import LAYERS, Tracer
    from workloads import time_child

    tr = Tracer()
    with tr:  # traced set-up, for the sampling layer
        wl.setup(args.seed, workdir)
    setup_snap = tr.snapshot()

    # one untraced pass as the reference for the tracing overhead
    untraced_results, untraced_lat, untraced_s = timed_passes(wl.run_traced, wl.ops, 0, 1)
    untraced_failed, _, notes = grade(wl, untraced_results, len(wl.ops))

    snaps, exact, pass_s = [], [], []

    def on_pass(dt):
        snaps.append(tr.snapshot())
        exact.append(tr.exact_counts())
        pass_s.append(dt)
        tr.reset()

    tr.reset()
    with tr:
        results, lat, elapsed = timed_passes(wl.run_traced, wl.ops, args.seconds, 2, on_pass)
    n = len(wl.ops)
    failed, accuracy, traced_notes = grade(wl, results, n)
    notes += traced_notes
    _, accuracy_2, _ = grade(wl, results[n:2 * n], n)
    repeat_ok = all(e == exact[0] for e in exact) and accuracy == accuracy_2
    attempted = len(untraced_results) + len(results) + 1
    failed += untraced_failed + (not repeat_ok)
    if not repeat_ok:
        notes.append("counts or accuracy figures differ between passes over the same inputs")
    final = wl.finish()
    if final is not None:
        attempted += 1
        failed += not final[0]
        accuracy.update(final[1])

    import_s = statistics.median(
        time_child("import dp3.cli", ROOT) for _ in range(IMPORT_SAMPLES))
    cli_main_s = 0.0
    verify_ms = 0.0
    if wl.name == "cli-calls":
        cli_main_s = statistics.median(untraced_lat)
        verify = next(op for op in wl.ops if op[0] == "verify")
        verify_results, verify_lat, _ = timed_passes(wl.run, [verify] * IMPORT_SAMPLES, 0, 1)
        verify_ms = 1e3 * statistics.median(verify_lat)
        verify_failed, _, verify_notes = grade(wl, verify_results, IMPORT_SAMPLES)
        attempted += IMPORT_SAMPLES
        failed += verify_failed
        notes += verify_notes

    first = snaps[0]
    npass = len(snaps)

    def mean_fn(key, field):
        return sum(s["functions"].get(key, {}).get(field, 0.0) for s in snaps) / npass

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = metric(first["layers"][layer]["calls"], "count")
        m[f"{layer}.self_s"] = metric(
            sum(s["layers"][layer]["self_s"] for s in snaps) / npass, "s")
        m[f"{layer}.errors"] = metric(first["layers"][layer]["errors"], "count")
    c = first["counts"]
    m.update({
        "ode.integrate_ray.self_s": metric(mean_fn("ode.integrate_ray", "self_s"), "s"),
        "ode.steps": metric(c["ode.steps"], "count"),
        "ode.nfev": metric(c["ode.nfev"], "count"),
        "ode.rays": metric(c["ode.rays"], "count"),
        "ode.dense_samples": metric(c["ode.dense_samples"], "count"),
        "connection.fit_large_tau.self_s": metric(mean_fn("connection.fit_large_tau", "self_s"), "s"),
        "connection.fit_nfev": metric(c["connection.fit_nfev"], "count"),
        "connection.verify_connection.self_s": metric(
            mean_fn("connection.verify_connection", "self_s"), "s"),
        "connection.err_nu.max": metric(accuracy.get("err_nu.max", 0.0), "1"),
        "connection.monotone_frac": metric(accuracy.get("monotone_frac", 0.0), "ratio"),
        "connection.oracle_amplitude": metric(accuracy.get("oracle_amplitude", 0.0), "1"),
        "specfun.gamma.calls": metric(first["functions"].get("specfun.gamma", {}).get("calls", 0), "count"),
        "specfun.digamma.calls": metric(
            first["functions"].get("specfun.digamma", {}).get("calls", 0), "count"),
        "sampling.accept_ratio": metric(
            setup_snap["counts"]["sampling.points"]
            / max(setup_snap["counts"]["sampling.from_branch_calls"], 1), "ratio"),
        "sampling.setup_calls": metric(setup_snap["layers"]["sampling"]["calls"], "count"),
        "sampling.setup_self_s": metric(setup_snap["layers"]["sampling"]["self_s"], "s"),
        "cli.import_s": metric(import_s, "s"),
        "cli.main_s": metric(cli_main_s, "s"),
        "cli.verify_ms.p50": metric(verify_ms, "ms"),
        "traced.ops_per_s": metric(len(lat) / elapsed, "1/s"),
        "trace.overhead": metric(statistics.median(pass_s) / untraced_s - 1.0, "ratio"),
    })
    return {
        "attempted": attempted, "failed": failed, "notes": notes, "accuracy": accuracy,
        "samples": {"traced_passes": npass, "ops_per_pass": n,
                    "untraced_pass_s": untraced_s, "traced_pass_s": pass_s},
        "metrics": m,
        "baseline": baseline_rows(first, setup_snap)
        + [(f"one untraced pass ({n} operations)", f"{untraced_s:.3g} s")],
        "functions": first["functions"],
        "self_share": {layer: round(m[f"{layer}.self_s"]["value"] / statistics.mean(pass_s), 4)
                       for layer in LAYERS},
    }


def baseline_rows(snap: dict, setup_snap: dict) -> list[tuple[str, str]]:
    """The ROADMAP Baseline rows, from one traced pass (span times include
    the tracer's own cost for nested spans)."""
    fn, c = snap["functions"], snap["counts"]

    def per_call(key, scale):
        f = fn.get(key)
        return f"{scale * f['total_s'] / f['calls']:.3g}" if f and f["calls"] else "-"

    rows = []
    if c["ode.rays"]:
        ray_s = fn["ode.integrate_ray"]["total_s"] / fn["ode.integrate_ray"]["calls"]
        rows.append(("integrate_ray (RK45) per ray",
                     f"{ray_s:.3g} s, {c['ode.steps'] / c['ode.rays']:.0f} steps, "
                     f"{c['ode.nfev'] / c['ode.rays']:.0f} rhs calls"))
    rows += [
        ("fit_large_tau", f"{per_call('connection.fit_large_tau', 1e3)} ms"),
        ("small_tau_chart / large_tau_chart",
         f"{per_call('asymptotics.small_tau_chart', 1e6)} / "
         f"{per_call('asymptotics.large_tau_chart', 1e6)} us"),
        ("u_small, u_large, manifold_residual, apply_F",
         ", ".join(per_call(k, 1e6) for k in ("asymptotics.u_small", "asymptotics.u_large",
                                              "monodromy.manifold_residual",
                                              "monodromy.apply_F")) + " us"),
        ("gamma / digamma", f"{per_call('specfun.gamma', 1e6)} / "
                            f"{per_call('specfun.digamma', 1e6)} us"),
        ("sample_manifold (set-up)",
         f"{setup_snap['layers']['sampling']['self_s']:.3g} s self, "
         f"{setup_snap['counts']['sampling.points']} points"),
    ]
    return rows


# ---------------------------------------------------------------- main

def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("connection-sweep", "manifold-charts", "cli-calls"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an exception, so children are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not (SRC / "dp3" / "__init__.py").is_file():
        print(f"perfbench: no dp3 package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.setup_only:
            wl.setup(args.seed, workdir)
            print(json.dumps({"ready": time.monotonic()}))
            return 0
        out = traced(wl, args, workdir) if args.trace else end_to_end(wl, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()

    env = environment()
    for note in out["notes"][:20]:
        print(f"# FAIL {note}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{ {k: v for k, v in out['samples'].items() if k != 'op_ms'} }")
    print("# accuracy " + json.dumps(out["accuracy"]))
    print("# env " + json.dumps(env))
    if "self_share" in out:
        print("# self time as a share of a traced pass " + json.dumps(out["self_share"]))
    for row, cost in out.get("baseline", []):
        print(f"# | {row} | {cost} |")
    declared = _declared_metrics(args.trace)
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    if got != declared:
        print(f"perfbench: metrics {sorted(set(got) ^ set(declared))} or their units "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": out["metrics"]}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env,
                  **{k: out[k] for k in ("accuracy", "samples", "notes", "baseline",
                                         "self_share", "functions") if k in out})
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
