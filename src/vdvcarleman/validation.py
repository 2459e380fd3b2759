"""Acceptance checks for the whole artifact.

Each check is independent and returns a `CheckResult`; `run_all` executes
the full suite (also reachable via the CLI ``validate`` subcommand, which
exits nonzero if anything fails).  The checks share no state, so
`run_all` runs them in forked children, one per usable CPU at a time,
through `montecarlo._fork_map`, starting the slowest first
(`SLOWEST_FIRST`), and returns their results in criterion order.  Each
check's wall time, measured where it ran, goes to the log at INFO.
Reference values for the variance tables come from the published
benchmark tables; where a reference cell is internally inconsistent the
check says so in its detail string rather than silently adjusting.
"""
from __future__ import annotations

import filecmp
import logging
import tempfile
import time
from dataclasses import dataclass, replace

import numpy as np

from .carleman import QuadraticSde, build_vandevusse, embed_order2, point_lift, vandevusse_coefficients
from .ekf import ekf_predict
from .model import PARAM_SET1, PARAM_SET2
from .moments import (augmented_mean_path, crosscheck_mean_paths, grid_steps, integrate_augmented,
                      integrate_physical, ou_variance)
from .experiments import builtin_scenario, emit_csv, run_scenario
from .montecarlo import _fork_map, _usable_cpus

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.passed))


def _scenario_pieces(name: str):
    """Scenario, parameters, initial mean and initial covariance of a builtin."""
    s = builtin_scenario(name)
    return s, s.params, s.x0.as_array(), np.diag(s.p0_diag)


def check_table2_anchor() -> CheckResult:
    """Early-time variance anchor for the first parameter set."""
    _, p, x0, p0 = _scenario_pieces("set1")
    t0 = time.perf_counter()
    series = integrate_physical(p, x0, p0, dt=0.01, t_end=0.5)
    elapsed = time.perf_counter() - t0
    _, cov = series.at_time(0.5)
    p1, p2 = cov[0, 0], cov[1, 1]
    ok = (1.06 <= p1 <= 1.10) and (0.95 <= p2 <= 0.99) and elapsed < 1.0
    detail = (f"P_x1(0.5)={p1:.4f} (need [1.06,1.10]), P_x2(0.5)={p2:.4f} "
              f"(need [0.95,0.99]), runtime {elapsed * 1e3:.1f} ms (< 1 s)")
    return CheckResult(1, "variance table anchor, set 1", ok, detail)


def check_table2_trend() -> CheckResult:
    """Mid-horizon variance trend for the first parameter set, +-10%."""
    _, p, x0, p0 = _scenario_pieces("set1")
    series = integrate_physical(p, x0, p0, dt=0.01, t_end=20.0)
    ref_x1 = {5.0: 1.62, 10.0: 1.97, 20.0: 2.19}
    ref_x2 = {5.0: 0.77, 10.0: 0.63, 20.0: 0.50}
    parts, ok = [], True
    for i, refs in enumerate((ref_x1, ref_x2)):
        for t, ref in sorted(refs.items()):
            got = series.at_time(t)[1][i, i]
            good = abs(got - ref) <= 0.10 * ref
            ok &= good
            parts.append(f"P_x{i + 1}({t:g})={got:.3f} vs {ref}{'' if good else ' MISS'}")
    detail = "; ".join(parts) + " (t=150 x1 reference cell excluded: inconsistent misprint)"
    return CheckResult(2, "variance table trend, set 1", ok, detail)


def check_table4_anchor() -> CheckResult:
    """Early- and late-time variance anchors for the second parameter set."""
    _, p, x0, p0 = _scenario_pieces("set2")
    series = integrate_physical(p, x0, p0, dt=0.01, t_end=400.0)
    early = series.at_time(0.5)[1][0, 0]
    late = series.at_time(400.0)[1][0, 0]
    early_ok = 0.95 <= early <= 0.99
    late_ok = late <= 0.001
    detail = (f"P_x1(0.5)={early:.4f} (need [0.95,0.99]){'' if early_ok else ' MISS'}, "
              f"P_x1(400)={late:.2e} (need <= 1e-3){'' if late_ok else ' MISS'}")
    if not early_ok:
        detail += ("; note: every later reference cell (5 s..400 s) is reproduced to its "
                   "printed precision, so the 0.97 reference at t=0.5 is inconsistent with "
                   "the equations that generate the rest of its own column")
    return CheckResult(3, "variance table anchor, set 2", early_ok and late_ok, detail)


def check_ou_analytic() -> CheckResult:
    """Flow-rate variance must match the exact OU solution on the whole grid."""
    worst = 0.0
    where = ""
    for name in ("set1", "set2"):
        s, p, x0, p0 = _scenario_pieces(name)
        sys = build_vandevusse(p)
        exact = ou_variance(s.p0_diag[2], p.alpha, p.beta, np.arange(grid_steps(s.dt, s.t_end) + 1) * s.dt)
        # Each series is built and reduced to its float before the next one.
        paths = {
            "physical": lambda: integrate_physical(p, x0, p0, s.dt, s.t_end),
            "augmented": lambda: integrate_augmented(sys, x0, p0, s.dt, s.t_end),
            "ekf": lambda: ekf_predict(p, x0, p0, s.dt, s.t_end),
        }
        for path_name, path in paths.items():
            rel = float(np.max(np.abs(path().covariance(2, 2) - exact) / np.abs(exact)))
            if rel > worst:
                worst, where = rel, f"{name}/{path_name}"
    ok = worst <= 1e-8
    return CheckResult(4, "exact OU variance oracle", ok, f"max rel err {worst:.2e} at {where} (need <= 1e-8)")


def check_builder_equivalence() -> CheckResult:
    """Generic embedding must equal the closed-form system entrywise."""
    ok = True
    parts = []
    for name, p in (("set1", PARAM_SET1), ("set2", PARAM_SET2)):
        built = build_vandevusse(p)
        embedded = embed_order2(vandevusse_coefficients(p))
        same = all(
            np.array_equal(getattr(built, f), getattr(embedded, f)) for f in ("a0", "a", "d", "g")
        )
        ok &= same
        parts.append(f"{name}: {'exact' if same else 'MISMATCH'}")
    alpha, beta = PARAM_SET1.alpha, PARAM_SET1.beta
    toy = embed_order2(QuadraticSde(c=[0.0], lin=[[-alpha]], quad=[[[0.0]]], g=[beta]))
    toy_ok = (toy.a[1, 1] == -2.0 * alpha) and (toy.a0[1] == beta * beta) and (toy.d[1, 0] == 2.0 * beta)
    ok &= toy_ok
    parts.append(f"scalar OU coefficients (-2a, b^2, 2b): {'exact' if toy_ok else 'MISMATCH'}")
    return CheckResult(5, "embedding equals closed form", ok, "; ".join(parts))


def check_mean_path_identity() -> CheckResult:
    """The reporting path and the hand-derived moment ODEs must agree to 1e-9 over the horizon."""
    worst, where = 0.0, ""
    for name in ("set1", "set2"):
        s, p, x0, p0 = _scenario_pieces(name)
        rep = crosscheck_mean_paths(p, x0, p0, s.dt, s.t_end)
        if rep.max_discrepancy > worst:
            worst, where = rep.max_discrepancy, f"{name} at t={rep.t_at_max:g}"
    ok = worst <= 1e-9
    return CheckResult(6, "mean-path identity", ok, f"max discrepancy {worst:.2e} at {where} (need <= 1e-9)")


def check_mc_mean_validation() -> CheckResult:
    """Ensemble mean of the bilinear SDE must match its mean ODE to 3 stderr.

    Checks the validation rows `run` emits for set 1 with 10^4 paths at
    dt = 0.005.  The primary reference is the mean ODE under the same
    discretization as the paths (the exact expectation of the simulated
    chain), so that comparison is purely statistical and any mis-assembled
    system matrix would fail it.  The fixed-step RK4 solution of the mean
    ODE is checked as well, with the O(dt) scheme-bias floor that nearly
    noiseless components need.
    """
    s = replace(builtin_scenario("set1"), dt=0.005, t_end=10.0, checkpoints=(1.0, 5.0, 10.0), mc_paths=10000)
    mc = run_scenario(s, ("mc",)).mc
    sys = build_vandevusse(s.params)
    ode = augmented_mean_path(sys, point_lift(s.x0.as_array()), s.dt, s.t_end)
    rates = np.abs(sys.a0 + ode[::100] @ sys.a.T)
    bias_floor = 2.0 * s.dt * rates.max(axis=0)

    # The rows run checkpoint by checkpoint, one per augmented component.
    ratios = mc["abs_err"] / (3.0 * mc["stderr"])
    i = int(np.argmax(ratios))
    where = f"component {i % sys.dim} at t={mc['t'][i]:g}"
    gap = np.abs(mc["mc_mean"] - mc["ode_mean"]).reshape(-1, sys.dim)
    floored_ok = bool(np.all(gap <= np.maximum(3.0 * mc["stderr"].reshape(-1, sys.dim), bias_floor)))
    ok = ratios[i] <= 1.0 and floored_ok
    detail = (f"10^4 paths, dt=0.005: worst |mc mean - em ode| = {ratios[i]:.2f} of its "
              f"3-stderr allowance ({where}); vs RK4 ode with scheme-bias floor: "
              f"{'ok' if floored_ok else 'EXCEEDED'}")
    return CheckResult(7, "Monte Carlo mean validation", ok, detail)


def check_ekf_ordering() -> CheckResult:
    """Moment-path variances strictly below EKF variances at the set-1 checkpoints."""
    s, p, x0, p0 = _scenario_pieces("set1")
    carleman = integrate_physical(p, x0, p0, s.dt, 50.0)
    ekf = ekf_predict(p, x0, p0, s.dt, 50.0)
    ok = True
    parts = []
    for t in (5.0, 10.0, 20.0, 50.0):
        ck = carleman.at_time(t)[1]
        ek = ekf.at_time(t)[1]
        for i, state in ((0, "x1"), (1, "x2")):
            good = ck[i, i] < ek[i, i]
            ok &= good
            parts.append(f"t={t:g} {state}: carleman {ck[i, i]:.3f} vs ekf {ek[i, i]:.3f}"
                         + ("" if good else " NOT<"))
    return CheckResult(8, "EKF ordering property", ok, "; ".join(parts))


def check_zero_noise_exactness() -> CheckResult:
    """With no noise and no initial spread, both covariance paths stay at zero."""
    p = replace(PARAM_SET1, beta=0.0)
    sys = build_vandevusse(p)
    x0 = builtin_scenario("set1").x0.as_array()
    # Each series is reduced to its float before the next one is built.
    aug_max = float(np.abs(integrate_augmented(sys, x0, np.zeros((3, 3)), 0.01, 200.0).cov).max())
    ekf_max = float(np.abs(ekf_predict(p, x0, np.zeros((3, 3)), 0.01, 200.0).cov).max())
    ok = aug_max <= 1e-14 and ekf_max <= 1e-14
    return CheckResult(
        9,
        "zero-noise exactness",
        ok,
        f"max |augmented cov| = {aug_max:.1e}, max |EKF cov| = {ekf_max:.1e} (need <= 1e-14)",
    )


def _compare_csv(path_a: str, path_b: str, tol: float) -> float:
    """Max numeric field difference between two CSVs; raises on layout mismatch."""
    worst = 0.0
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        rows_a, rows_b = fa.readlines(), fb.readlines()
    if len(rows_a) != len(rows_b):
        raise AssertionError(f"row count differs: {len(rows_a)} vs {len(rows_b)}")
    for ra, rb in zip(rows_a, rows_b):
        for va, vb in zip(ra.rstrip("\n").split(","), rb.rstrip("\n").split(",")):
            if va == vb:
                continue
            try:
                diff = abs(float(va) - float(vb))
            except ValueError:
                raise AssertionError(f"non-numeric field differs: {va!r} vs {vb!r}") from None
            worst = max(worst, diff)
            if diff > tol:
                raise AssertionError(f"numeric field differs by {diff:.3e}: {va} vs {vb}")
    return worst


def check_determinism() -> CheckResult:
    """Same seed, different worker counts: emitted CSVs must agree to 1e-12."""
    # 1024 paths allow four ranges, so the 4-worker run forks four children.
    scenario = replace(
        builtin_scenario("set1"), t_end=20.0, checkpoints=(1.0, 5.0, 10.0, 20.0), mc_paths=1024
    )
    with tempfile.TemporaryDirectory(prefix="vdv_det_1_") as out_1, \
            tempfile.TemporaryDirectory(prefix="vdv_det_4_") as out_4:
        for workers, out in ((1, out_1), (4, out_4)):
            report = run_scenario(scenario, methods=("carleman", "ekf", "mc"), mc_workers=workers)
            emit_csv(report, out)
        worst = 0.0
        identical = True
        for name in ("trajectories.csv", "checkpoints.csv", "mc_validation.csv"):
            a, b = f"{out_1}/{name}", f"{out_4}/{name}"
            try:
                worst = max(worst, _compare_csv(a, b, tol=1e-12))
            except AssertionError as exc:
                return CheckResult(10, "determinism across worker counts", False, str(exc))
            identical &= filecmp.cmp(a, b, shallow=False)
    detail = f"1 vs 4 workers: max numeric field diff {worst:.1e} (need <= 1e-12)"
    if identical:
        detail += "; files are byte-identical"
    return CheckResult(10, "determinism across worker counts", True, detail)


ALL_CHECKS = (
    check_table2_anchor,
    check_table2_trend,
    check_table4_anchor,
    check_ou_analytic,
    check_builder_equivalence,
    check_mean_path_identity,
    check_mc_mean_validation,
    check_ekf_ordering,
    check_zero_noise_exactness,
    check_determinism,
)


def _timed(check):
    """A task that runs ``check`` and returns its result with its wall time in seconds."""

    def run():
        t0 = time.perf_counter()
        result = check()
        return result, time.perf_counter() - t0

    return run


# The checks that take most of a run, slowest first: about 1.9, 1.4, 1.0,
# 0.5 and 0.25 s of one CPU (criteria 7, 6, 4, 10 and 9).  `run_all`
# starts them before the rest, so the short checks fill in beside them.
# Started in criterion order on two CPUs, 4 and then 7 run back to back
# on one, and the other, done with the rest, sits idle for about 0.5 s.
SLOWEST_FIRST = (
    check_mc_mean_validation,
    check_mean_path_identity,
    check_ou_analytic,
    check_determinism,
    check_zero_noise_exactness,
)


def run_all() -> list[CheckResult]:
    """Run every check of `ALL_CHECKS`, one process per usable CPU, and return the results in order.

    `ALL_CHECKS` is read at call time.  The checks of `SLOWEST_FIRST`
    start first, in its order, and the others follow in criterion order.
    With more than one CPU each check runs in a forked child; a check that
    raises raises its own exception, caused there by one naming it.
    """
    checks = ALL_CHECKS
    rank = {check: i for i, check in enumerate(SLOWEST_FIRST)}
    order = sorted(range(len(checks)), key=lambda i: rank.get(checks[i], len(rank)))
    with _fork_map([(f"acceptance check {checks[i].__name__}", _timed(checks[i])) for i in order],
                   _usable_cpus()) as join:
        timed = [value for _, value in sorted(zip(order, join()))]
    for result, elapsed in timed:
        logger.info("criterion %d ran in %.3f s", result.number, elapsed)
    return [result for result, _ in timed]
