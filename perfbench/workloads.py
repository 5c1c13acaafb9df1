"""The benchmark's workloads: inputs generated from the seed, the operation
each one times, and the correctness gate every operation must pass.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned, and no threads or parallel children
are used (the CLI workload runs one child process at a time).  A *pass*
is one trip through the workload's fixed operation list; the list depends
only on the seed, so the counts of a pass repeat exactly and accuracy
figures are taken over the first pass, however many passes fit in a run.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dp3 import asymptotics, backlund, cli, connection, monodromy, ode, sampling
from dp3.errors import ConditionViolationError, PoleError
from dp3.params import EquationParams

# (eps, b) the chart pipeline cycles through: eps*b = 1, 2 and -1 (the
# last in the eps2 = +1 sector, so the sector maps are exercised)
PARAMS = tuple(EquationParams.make(e, b) for e, b in ((1, 1.0), (1, 2.0), (-1, 1.0)))
# (eps, b) the connection sweep cycles through.  b = 2 gives longer rays
# than b = 1.  Negative coupling is left out: its err_nu at tau1 = 400
# exceeds the 2e-2 gate on some points in either sector (2.4e-2 to 8.4e-2
# seen, with the filters below), while the table still falls with tau1;
# (eps, b) = (-1, -1) keeps eps = -1 in the sweep with positive coupling.
SWEEP_PARAMS = tuple(EquationParams.make(e, b) for e, b in ((1, 1.0), (1, 2.0), (-1, -1.0)))
# the criterion-10 sampling filter of the acceptance suite
CRIT10 = dict(nu_max=0.08, re_rho_max=0.15, abs_a_max=0.6, max_entry=20.0)
ERR_NU_GATE = 2e-2
TAU0 = 0.02
# bound on the seed's relative residual: of 45 criterion-10 points, those
# within it had err_nu <= 1.3e-2 at b = 1 and 2, those beyond it up to 3.1e-2
SEED_RESIDUAL_MAX = 0.1
MAX_BATCHES = 200


def subseed(seed: int, tag: int, k: int) -> int:
    """Independent integer seed for batch ``k`` of workload ``tag``."""
    return int(np.random.SeedSequence([seed, tag, k]).generate_state(1)[0])


def _batches(seed: int, tag: int, draw):
    for k in range(MAX_BATCHES):
        yield from draw(subseed(seed, tag, k))
    raise RuntimeError(f"seed {seed}: inputs not filled after {MAX_BATCHES} batches")


def sweep_point_ok(pt, params) -> bool:
    """The criterion-10 chart conditions (a power-law small chart with
    |rho| >= 0.02 and a generic large chart on the positive ray), plus the
    intent its filter states: the tau0 = 0.02 seed must keep the
    dropped-correction floor below the fit-window truncation.  The sampler's
    bounds alone do not ensure that (err_nu up to 3.1e-2 was seen on
    criterion-10 points), so the seed's relative equation residual at tau0
    is bounded directly."""
    try:
        sc = asymptotics.small_tau_chart(pt, 0, params)
        if sc.log_mode or abs(sc.rho) < 0.02:
            return False
        if asymptotics.large_tau_chart(pt, 0, params).special != "none":
            return False
    except ConditionViolationError:
        return False
    return seed_residual(sc, pt.a, params, TAU0) <= SEED_RESIDUAL_MAX


def seed_residual(sc, a: complex, params, t0: float, h: float = 1e-4) -> float:
    """|u''(central difference) - u''(equation)| / |u''| of the small-chart
    seed at |tau| = t0 on the positive ray."""
    um, u0, up = (asymptotics.u_small(sc, t) for t in (t0 - h, t0, t0 + h))
    _, ddu = ode.dp3_rhs(ode.SolutionState(t0 + 0j, u0, asymptotics.du_small(sc, t0)), a, params)
    return abs((up - 2.0 * u0 + um) / (h * h) - ddu) / abs(ddu)


def own_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def connection_summary(figures: list[dict]) -> dict:
    """Largest err_nu at tau1 = 400, and the share of points whose err_nu
    does not increase over tau1 = 100, 200, 400."""
    return {"err_nu.max": max(f["err_nu"] for f in figures),
            "monotone_frac": sum(f["monotone"] for f in figures) / len(figures)}


def theta_floor(params) -> float:
    """Smallest |tau| of a fit window (theta > 50, with 2% margin)."""
    return (50.0 / (3.0 * math.sqrt(3.0) * params.abs_coupling ** (1.0 / 3.0))) ** 1.5 * 1.02


class ConnectionSweep:
    """One operation: ``verify_connection`` at tau0 = 0.02, tau1 = 400, tol
    1e-10, with a three-row convergence table (tau1 = 100, 200, 400).

    Why: this is the paper's end-to-end claim (one monodromy point fixes
    the asymptotics at both ends of the ray), and about 97% of it is
    ``integrate_ray``.  The couplings give rays of about 7.2k (|b| = 1)
    and 9.1k (b = 2) RK45 steps, so a stepper shared across lanes has to pay
    for the mixed step counts here.
    """

    name = "connection-sweep"
    points_per_pass = 12  # 4 per coupling

    def setup(self, seed: int, workdir: Path) -> None:
        ops = []
        for pt in _batches(seed, 1, lambda s: sampling.sample_manifold(
                seed=s, count=40, branch=1, **CRIT10)):
            params = SWEEP_PARAMS[len(ops) % len(SWEEP_PARAMS)]
            if sweep_point_ok(pt, params):
                ops.append((pt, params))
                if len(ops) == self.points_per_pass:
                    break
        self.ops = ops
        # warm-up: every code path of the operation on a short ray
        pt, params = ops[0]
        connection.verify_connection(pt, params, tau0=TAU0, tau1=64.0, tol=1e-10,
                                     tau0_steps=1, tau1_steps=1)

    def run(self, op):
        pt, params = op
        return connection.verify_connection(pt, params, tau0=TAU0, tau1=400.0, tol=1e-10,
                                            tau0_steps=1, tau1_steps=3)

    run_traced = run
    peak_rss_mb = staticmethod(own_peak_rss_mb)

    def check(self, op, rep) -> tuple[bool, dict]:
        rows = rep.convergence_table
        errs = [row["err_nu"] for row in rows]
        ok = ([row["tau1"] for row in rows] == [100.0, 200.0, 400.0]
              and all(math.isfinite(e) for e in errs) and rep.err_nu < ERR_NU_GATE)
        return ok, {"err_nu": rep.err_nu,
                    "monotone": len(errs) == 3 and errs[0] >= errs[1] >= errs[2]}

    def summarize(self, figures: list[dict]) -> dict:
        return connection_summary(figures)

    def finish(self) -> tuple[bool, dict]:
        """The exact a = 0 solution as an oracle for the integrate-and-fit
        half: no oscillation may be fitted, and the cube-root coefficient
        must come out of the integrator."""
        p1 = PARAMS[0]
        pt0 = monodromy.from_branch(1, 0.0, g11=1, g12=0, g21=0, g22=1)
        rep0 = connection.verify_connection(
            pt0, p1, tau0=0.01, tau1=100.0, tol=1e-11, tau0_steps=1, tau1_steps=1,
            seed_state=ode.algebraic_solution(0.01, p1))
        grid = np.linspace(80.0, 100.0, 50)
        traj0 = ode.integrate_ray(ode.algebraic_solution(0.01, p1), 0.0, p1, 100.0,
                                  tol=1e-11, dense_at=grid)
        coeff = float(np.mean(np.real(traj0.u / grid ** (1.0 / 3.0))))
        coeff_err = abs(coeff - p1.coupling_pow23 / 2.0)
        ok = rep0.oscillation_amplitude < 1e-6 and coeff_err < 1e-6
        return ok, {"oracle_amplitude": rep0.oscillation_amplitude,
                    "oracle_coeff_err": coeff_err}


# fixed |tau| grids for the evaluators at both ends of a ray
SMALL_GRID = (1e-3, 3e-3, 1e-2, 3e-2)
LARGE_GRID = (50.0, 100.0, 200.0, 400.0)
ENTRY_GUARD = 300.0
CHART_SLOTS = tuple(itertools.product(("small", "large"), (0, 1, -1))) \
    + tuple(itertools.product(("imag-small", "imag-large"), (1, -1)))


def map_images(pt):
    """Images of a point under all 29 group actions."""
    out = [monodromy.apply_F(pt, e1, e2)
           for e1, e2 in itertools.product((0, 1, -1), (0, 1, -1))]
    out += [monodromy.apply_Fhat(pt, e1, e2)
            for e1, e2 in itertools.product((1, -1), (0, 1, -1))]
    out += [monodromy.backlund_monodromy(pt, d) for d in ("up", "down")]
    out += [monodromy.lie_point_monodromy(pt, kind, p, l)
            for kind in ("negate_tau", "negate_a", "rotate_tau")
            for p, l in itertools.product((1, -1), (1, -1))]
    return out


def _max_entry(pt) -> float:
    return max(abs(v) for v in (pt.s00, pt.s0inf, pt.s1inf, pt.g11, pt.g12, pt.g21, pt.g22))


def _chart_values(pt, params, slot) -> list[complex]:
    """Build one chart and evaluate its u/du/H formulas on the grid."""
    kind, e1 = slot
    if kind in ("small", "imag-small"):
        ch = asymptotics.small_tau_chart(pt, e1, params) if kind == "small" \
            else asymptotics.imag_chart(pt, e1, params, "small")
        return [f(ch, m) for m in SMALL_GRID
                for f in (asymptotics.u_small, asymptotics.du_small, asymptotics.H_small)]
    ch = asymptotics.large_tau_chart(pt, e1, params) if kind == "large" \
        else asymptotics.imag_chart(pt, e1, params, "large")
    return [f(ch, m) for m in LARGE_GRID for f in (asymptotics.u_large, asymptotics.H_large)]


class ManifoldCharts:
    """One operation takes one point through the integrator-free pipeline:
    ``manifold_residual`` of the point and its 29 group-action images, every
    chart valid for it among small/large on the rays eps1 in {0, +-1} and the
    imaginary-ray charts, the u/du/H evaluators on fixed |tau| grids,
    ``cross_ray_residuals`` where the three real-ray charts are generic, and
    an algebraic-seed Backlund ladder (n = 5) with its km/dp/f_rec lattice
    residuals at a tau drawn from the seed.

    Why: it exercises specfun, monodromy, asymptotics and backlund and
    never calls the integrator, so a change to ``ode`` should leave it
    unmoved, while specfun or ``apply_F`` reductions should move it and
    not ``connection-sweep``.  Points come from all three branches.
    """

    name = "manifold-charts"
    points_per_branch = 60

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(subseed(seed, 2, 0))
        ops = []
        for branch in (1, 2, 3):
            kept = 0
            for pt in _batches(seed, 2 + 10 * branch, lambda s, b=branch: sampling.sample_manifold(
                    s, 60, b, max_entry=ENTRY_GUARD)):
                params = PARAMS[len(ops) % len(PARAMS)]
                plan = self._guard(pt, params)
                if plan is None:
                    continue
                ops.append((pt, params, *plan, float(rng.uniform(0.5, 5.0))))
                kept += 1
                if kept == self.points_per_branch:
                    break
        self.ops = ops
        for op in ops[:3]:
            self.run(op)

    @staticmethod
    def _guard(pt, params):
        """The acceptance suite's guards: the point and its images stay within
        the conditioning bound, and the charts used are valid for it."""
        if max(_max_entry(q) for q in [pt, *map_images(pt)]) > ENTRY_GUARD:
            return None
        slots = []
        for slot in CHART_SLOTS:
            try:
                _chart_values(pt, params, slot)
            except (ConditionViolationError, PoleError):
                continue
            slots.append(slot)
        try:
            asymptotics.cross_ray_residuals(pt)
            cross = True
        except ConditionViolationError:
            cross = False
        if not slots:
            return None
        return tuple(slots), cross

    def run(self, op):
        pt, params, slots, cross, tau = op
        img = max(float(monodromy.manifold_residual(q).max()) for q in [pt, *map_images(pt)])
        values = [v for slot in slots for v in _chart_values(pt, params, slot)]
        cross_res = max(asymptotics.cross_ray_residuals(pt)) if cross else 0.0

        def seed_eval(t):
            return ode.algebraic_solution(t, params)

        entries = backlund.ladder(seed_eval(tau), 0.0, params, 5, seed_eval=seed_eval)
        lattice = {w: max(r for _, r in backlund.lattice_residuals(entries, w, 0.0, params))
                   for w in ("km", "dp", "f_rec")}
        return {"img": img, "cross": cross_res,
                "finite": all(cmath.isfinite(v) for v in values), **lattice}

    run_traced = run
    peak_rss_mb = staticmethod(own_peak_rss_mb)

    def check(self, op, res) -> tuple[bool, dict]:
        ok = (res["finite"] and res["img"] < 1e-10 and res["cross"] < 1e-10
              and res["km"] < 1e-8 and res["dp"] < 1e-8 and res["f_rec"] < 1e-6)
        return ok, {k: res[k] for k in ("img", "cross", "km", "dp", "f_rec")}

    def summarize(self, figures: list[dict]) -> dict:
        return {f"{k}.max": max(f[k] for f in figures)
                for k in ("img", "cross", "km", "dp", "f_rec")}

    def finish(self) -> tuple[bool, dict] | None:
        return None


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    maxrss_mb: float


CALL_TIMEOUT_S = 120.0
SRC = Path(ode.__file__).resolve().parents[1]


def spawn(argv: list[str], stdout, stderr, cwd: Path) -> tuple[int, float]:
    """Run one child with PYTHONPATH=src to completion; returns its exit
    code and peak RSS in MB.  A child still running after CALL_TIMEOUT_S
    is killed."""
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, cwd=cwd,
                            env=dict(os.environ, PYTHONPATH=str(SRC)))
    timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def time_child(code: str, cwd: Path) -> float:
    """Spawn-to-exit seconds of ``python -c <code>``."""
    t0 = time.perf_counter()
    rc, _ = spawn([sys.executable, "-c", code], subprocess.DEVNULL, subprocess.DEVNULL, cwd)
    dt = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"python -c {code!r} exited {rc}")
    return dt


class CliCalls:
    """One operation is one ``python -m dp3.cli ...`` child process with
    PYTHONPATH=src (the package is not installed).  A cycle runs
    ``monodromy check``, ``monodromy map --map F``, ``monodromy sample``,
    ``chart large``, ``eval u --regime small``, ``fit --csv``,
    ``ladder --algebraic-seed`` and ``verify-connection`` with its default
    settings, each gated on exit 0, parseable output and numbers equal to
    the library call on the same inputs.

    Why: this is the path a user runs, and it is bound by import time
    (``import dp3.cli`` is most of a light call), so it shows import-time
    changes that the in-process workloads hide in set-up.
    """

    name = "cli-calls"

    def setup(self, seed: int, workdir: Path) -> None:
        params = PARAMS[0]
        pt = next(p for p in _batches(seed, 3, lambda s: sampling.sample_manifold(
            seed=s, count=20, branch=1, **CRIT10)) if sweep_point_ok(p, params))
        rng = np.random.default_rng(subseed(seed, 3, 10**6))
        self.pt, self.params = pt, params
        self.sample_seed = int(rng.integers(0, 2**31))
        self.eval_tau = float(rng.uniform(0.005, 0.05))
        self.ladder_tau = float(rng.uniform(0.5, 5.0))
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        point_file = workdir / "point.json"
        point_file.write_text(monodromy.point_to_json(pt))
        # The fit input is a window from the theta > 50 floor to tau = 400;
        # ``dp3 integrate --samples`` starts its grid at tau0, which
        # ``dp3 fit`` rejects.
        sc = asymptotics.small_tau_chart(pt, 0, params)
        seed_state = ode.SolutionState(TAU0 + 0j, asymptotics.u_small(sc, TAU0),
                                       asymptotics.du_small(sc, TAU0))
        self.traj = ode.integrate_ray(seed_state, pt.a, params, 400.0, tol=1e-10,
                                      dense_at=np.linspace(theta_floor(params), 400.0, 240))
        csv_file = workdir / "window.csv"
        csv_file.write_text(ode.trajectory_to_csv(self.traj))
        pa = ["--eps", "1", "--b", "1"]
        pj = str(point_file)
        self.ops = [
            ("check", ["monodromy", "check", "--point", pj]),
            ("map", ["monodromy", "map", "--point", pj, "--map", "F", "--eps1", "1", "--eps2", "0"]),
            ("sample", ["monodromy", "sample", "--seed", str(self.sample_seed), "--count", "5",
                        "--branch", "1", "--nu-max", "0.1"]),
            ("chart", ["chart", "large", "--point", pj, *pa]),
            ("eval", ["eval", "u", "--regime", "small", "--tau", repr(self.eval_tau),
                      "--point", pj, *pa]),
            ("fit", ["fit", "--csv", str(csv_file), *pa]),
            ("ladder", ["ladder", "--tau", repr(self.ladder_tau), "--n-max", "5",
                        "--algebraic-seed", *pa]),
            ("verify", ["verify-connection", "--point", pj, *pa]),
        ]
        self.peak_child_mb = 0.0
        self._expected: dict[str, object] = {}

    def run(self, op) -> CliResult:
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, rss = spawn([sys.executable, "-m", "dp3.cli", *op[1]], out, err, self.workdir)
        self.peak_child_mb = max(self.peak_child_mb, rss)
        return CliResult(code, out_path.read_text(), err_path.read_text(), rss)

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest CLI child."""
        return self.peak_child_mb

    def run_traced(self, op) -> CliResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(op[1]))
        return CliResult(code, buf.getvalue(), "", 0.0)

    def expected(self, kind: str):
        """The library call's numbers for the same inputs, as the CLI
        would print them (computed once, after timing)."""
        if kind not in self._expected:
            self._expected[kind] = json.loads(json.dumps(self._library(kind)))
        return self._expected[kind]

    def _library(self, kind: str):
        pt, params = self.pt, self.params
        cpx = _cpx
        if kind == "check":
            res = monodromy.manifold_residual(pt)
            cyc, semi = monodromy.cyclic_residuals(pt)
            return {"residuals": list(res), "max": float(res.max()),
                    "cyclic": cyc, "semicyclic": semi}
        if kind == "map":
            return json.loads(monodromy.point_to_json(monodromy.apply_F(pt, 1, 0)))
        if kind == "sample":
            pts = sampling.sample_manifold(seed=self.sample_seed, count=5, branch=1, nu_max=0.1)
            return [json.loads(monodromy.point_to_json(p)) for p in pts]
        if kind == "chart":
            ch = asymptotics.large_tau_chart(pt, 0, params)
            return {"special": ch.special, "nu_plus_1": cpx(ch.nu_plus_1),
                    "omega": None if ch.omega is None else cpx(ch.omega),
                    "z": None if ch.z is None else cpx(ch.z)}
        if kind == "eval":
            return cpx(asymptotics.u_small(asymptotics.small_tau_chart(pt, 0, params),
                                           self.eval_tau))
        if kind == "fit":
            fit = connection.fit_large_tau(self.traj, params, eps1=0)
            return {"nu_plus_1": cpx(fit.nu_plus_1), "z": cpx(fit.z),
                    "residual_norm": fit.residual_norm, "condition": fit.condition,
                    "oscillation_amplitude": fit.oscillation_amplitude,
                    "special": fit.special}
        if kind == "ladder":
            def seed_eval(t):
                return ode.algebraic_solution(t, params)
            entries = backlund.ladder(seed_eval(self.ladder_tau), 0.0, params, 5,
                                      seed_eval=seed_eval)
            return [{"n": e.n, "a_n": cpx(e.a_n), "tau": cpx(e.state.tau),
                     "u": cpx(e.state.u), "du": cpx(e.state.du), "v": cpx(e.v),
                     "g": None if e.g is None else cpx(e.g),
                     "f": None if e.f is None else cpx(e.f)} for e in entries]
        rep = connection.verify_connection(pt, params, tau0=TAU0, tau1=400.0, eps1=0,
                                           tol=1e-10, tau0_steps=1, tau1_steps=3)
        return json.loads(rep.to_json())

    def check(self, op, res: CliResult) -> tuple[bool, dict]:
        kind = op[0]
        if res.code != 0:
            return False, {}
        try:
            got = json.loads(res.stdout)
        except json.JSONDecodeError:
            return False, {}
        ok = got == self.expected(kind)
        if kind != "verify":
            return ok, {}
        rows = got["convergence_table"]
        errs = [row["err_nu"] for row in rows]
        err_nu = got["abs_errors"]["err_nu"]
        return ok and err_nu < ERR_NU_GATE and len(rows) == 3, {
            "err_nu": err_nu, "monotone": errs[0] >= errs[1] >= errs[2]}

    def summarize(self, figures: list[dict]) -> dict:
        return connection_summary(figures)

    def finish(self) -> tuple[bool, dict] | None:
        return None


def _cpx(v: complex) -> list[float]:
    return [v.real, v.imag]


WORKLOADS = {w.name: w for w in (ConnectionSweep, ManifoldCharts, CliCalls)}
