"""Scenario management, metrics, and comparison reports.

A scenario bundles parameters, initial moments, grid, checkpoint times,
and Monte Carlo settings.  `run_scenario` executes the selected methods
on one shared time grid:

* ``carleman`` - the physical moment ODEs (reporting path);
* ``ekf``      - the EKF prediction baseline;
* ``mc``       - bilinear ensemble statistics validated against the
                 augmented mean ODE, plus one shared-noise path pair.

All methods are compared against a single seeded realization of the
nonlinear SDE ("true" path); absolute prediction errors are
e_i(t) = |x_i_true(t) - mean_i(t)| for the two concentrations.  Reports
can be emitted as CSV files and standalone SVG charts.
"""
from __future__ import annotations

import json
import logging
import math
import numbers
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import svgchart
from .carleman import BilinearSystem, build_vandevusse, point_lift
from .ekf import ekf_predict
from .model import (
    P33_0_SET1,
    P33_0_SET2,
    PARAM_SET1,
    PARAM_SET2,
    PhysicalState,
    ReactorParams,
    X0_SET1,
    X0_SET2,
)
from .moments import (
    IntegrationError,
    MomentSeries,
    augmented_mean_rhs,
    grid_index,
    grid_steps,
    integrate,
    integrate_physical,
)
from .montecarlo import (
    EnsembleStats,
    PathConfig,
    as_int,
    em_mean_reference,
    ensemble_moments,
    simulate_path,
    simulate_shared_noise,
)

logger = logging.getLogger(__name__)

METHODS = ("carleman", "ekf", "mc")

# The reference table for the first parameter set prints 1.13 for the
# Carleman x1 variance at t=150, breaking the monotone decay between
# t=100 (0.48) and t=200 (0.03); flagged on reports and excluded from
# trend comparisons as a suspected misprint of 0.13.
TABLE_NOTE_SET1 = (
    "reference variance table, t=150 x1 cell: printed value 1.13 breaks the "
    "monotone decay (0.48 at t=100, 0.03 at t=200); treated as a misprint of "
    "0.13 and excluded from comparisons"
)


@dataclass(frozen=True)
class Scenario:
    """One complete experiment definition."""

    name: str
    params: ReactorParams
    x0: PhysicalState
    p0_diag: tuple[float, float, float]
    dt: float
    t_end: float
    checkpoints: tuple[float, ...]
    seed: int
    mc_paths: int

    def __post_init__(self):
        grid_steps(self.dt, self.t_end)  # validates dt > 0 and t_end on the grid
        for c in self.checkpoints:
            grid_index(self.dt, c)  # raises off-grid
            if c > self.t_end + 1e-9:
                raise ValueError(f"checkpoint {c} beyond t_end={self.t_end}")
        object.__setattr__(self, "mc_paths", as_int("mc_paths", self.mc_paths))
        object.__setattr__(self, "seed", as_int("seed", self.seed))
        if self.mc_paths < 2:
            raise ValueError("mc_paths must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not _is_triple(self.p0_diag, nonnegative=True):
            raise ValueError(f"p0_diag must be three finite nonnegative numbers, got {self.p0_diag!r}")
        object.__setattr__(self, "p0_diag", tuple(self.p0_diag))

    def to_dict(self) -> dict:
        d = asdict(self)
        d["params"] = asdict(self.params)
        d["x0"] = [self.x0.x1, self.x0.x2, self.x0.x3]
        d["p0_diag"] = list(self.p0_diag)
        d["checkpoints"] = list(self.checkpoints)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Scenario":
        _check_keys("scenario", d, {f.name for f in fields(cls)})
        _check_keys("params", d["params"], {f.name for f in fields(ReactorParams)})
        if not _is_triple(d["x0"]):
            raise ValueError(f"x0 must be three finite numbers, got {d['x0']!r}")
        return cls(
            name=d["name"],
            params=ReactorParams(**d["params"]),
            x0=PhysicalState(*d["x0"]),
            p0_diag=d["p0_diag"],
            dt=float(d["dt"]),
            t_end=float(d["t_end"]),
            checkpoints=tuple(d["checkpoints"]),
            seed=d["seed"],
            mc_paths=d["mc_paths"],
        )


def _is_triple(value, nonnegative: bool = False) -> bool:
    """True for a sequence of exactly three finite real numbers (all >= 0 if ``nonnegative``)."""
    try:
        entries = list(value)
    except TypeError:
        return False
    return len(entries) == 3 and all(
        isinstance(x, numbers.Real) and math.isfinite(x) and not (nonnegative and x < 0.0) for x in entries
    )


def _check_keys(what: str, d, expected: set) -> None:
    """Reject a mapping whose keys are not exactly ``expected``, naming the culprits."""
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")
    missing = sorted(expected - d.keys())
    if missing:
        raise ValueError(f"{what} is missing keys: {', '.join(missing)}")
    unknown = sorted(d.keys() - expected)
    if unknown:
        raise ValueError(f"{what} has unknown keys: {', '.join(unknown)}")


def builtin_scenario(name: str) -> Scenario:
    """The two compiled-in scenarios, runnable with zero configuration."""
    if name == "set1":
        return Scenario(
            name="set1",
            params=PARAM_SET1,
            x0=X0_SET1,
            p0_diag=(1.0, 1.0, P33_0_SET1),
            dt=0.01,
            t_end=200.0,
            checkpoints=(0.5, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0),
            seed=42,
            mc_paths=10000,
        )
    if name == "set2":
        return Scenario(
            name="set2",
            params=PARAM_SET2,
            x0=X0_SET2,
            p0_diag=(1.0, 1.0, P33_0_SET2),
            dt=0.01,
            t_end=400.0,
            checkpoints=(0.5, 5.0, 10.0, 20.0, 50.0, 100.0, 150.0, 200.0, 300.0, 400.0),
            seed=42,
            mc_paths=10000,
        )
    raise KeyError(f"unknown builtin scenario {name!r}")


def load_scenario(source: str) -> Scenario:
    """Resolve 'builtin:<name>' or a JSON file path into a Scenario."""
    if source.startswith("builtin:"):
        return builtin_scenario(source.split(":", 1)[1])
    with open(source, "r", encoding="utf-8") as fh:
        return Scenario.from_dict(json.load(fh))


@dataclass(frozen=True)
class McResult:
    """Monte Carlo outputs: ensemble stats, ODE reference, and validation rows."""

    stats: EnsembleStats
    ode_mean: np.ndarray  # (n_grid, 9), augmented mean ODE from the point start
    rows: list[dict]  # per (checkpoint, component) comparison
    coupled_x: np.ndarray  # (n_grid, 3) shared-noise nonlinear path
    coupled_xi: np.ndarray  # (n_grid, 9) shared-noise bilinear path
    tracking_max_abs_dx1: float


@dataclass
class ComparisonReport:
    """Everything `run_scenario` produced, ready for emission."""

    scenario: Scenario
    methods: tuple[str, ...]
    t: np.ndarray
    true_path: np.ndarray | None = None
    carleman: MomentSeries | None = None
    ekf: MomentSeries | None = None
    mc: McResult | None = None
    errors: dict = field(default_factory=dict)  # method -> (n_grid, 2)
    checkpoint_rows: list = field(default_factory=list)
    psd_min_eig: dict = field(default_factory=dict)  # method -> {t: min eigenvalue}
    notes: list = field(default_factory=list)


_COMPONENTS = ("x1", "x2", "x3", "x1x1", "x1x2", "x1x3", "x2x2", "x2x3", "x3x3")


def run_scenario(scenario: Scenario, methods, mc_workers: int = 1) -> ComparisonReport:
    """Execute the selected methods on the scenario's shared grid."""
    requested = set(methods)
    unknown = requested - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    if mc_workers < 1:
        raise ValueError(f"ensemble n_workers (mc_workers) must be at least 1, got {mc_workers}")
    methods = tuple(m for m in METHODS if m in requested)
    p = scenario.params
    dt, t_end = scenario.dt, scenario.t_end
    t = np.arange(round(t_end / dt) + 1) * dt
    report = ComparisonReport(scenario=scenario, methods=methods, t=t)
    if scenario.name == "set1":
        report.notes.append(TABLE_NOTE_SET1)
    if not methods:
        return report

    sys = build_vandevusse(p)
    x0 = scenario.x0.as_array()

    def run(name, fn):
        try:
            return fn()
        except (IntegrationError, RuntimeError) as exc:
            raise RuntimeError(f"method {name!r} failed: {exc}") from exc

    # One seeded realization of the exact SDE is the error reference.
    cfg_true = PathConfig(dt=dt, t_end=t_end, seed=scenario.seed)
    _, true_path = run("true", lambda: simulate_path(cfg_true, x0, p))
    report.true_path = true_path

    if "carleman" in methods:
        series = run("carleman", lambda: integrate_physical(p, x0, np.diag(scenario.p0_diag), dt, t_end))
        report.carleman = series
        report.errors["carleman"] = np.abs(true_path[:, :2] - series.mean[:, :2])
        report.psd_min_eig["carleman"] = _psd_at_checkpoints(series, scenario)
    if "ekf" in methods:
        series = run("ekf", lambda: ekf_predict(p, x0, np.diag(scenario.p0_diag), dt, t_end))
        report.ekf = series
        report.errors["ekf"] = np.abs(true_path[:, :2] - series.mean[:, :2])
        report.psd_min_eig["ekf"] = _psd_at_checkpoints(series, scenario)
    if "mc" in methods:
        report.mc = run("mc", lambda: _run_mc(scenario, p, sys, x0, mc_workers))

    for c in scenario.checkpoints:
        k = grid_index(dt, c)
        row = {"t": c}
        if report.carleman is not None:
            row["carleman_P_x1"] = float(report.carleman.cov[k, 0, 0])
            row["carleman_P_x2"] = float(report.carleman.cov[k, 1, 1])
        if report.ekf is not None:
            row["ekf_P_x1"] = float(report.ekf.cov[k, 0, 0])
            row["ekf_P_x2"] = float(report.ekf.cov[k, 1, 1])
        report.checkpoint_rows.append(row)
    return report


def _psd_at_checkpoints(series: MomentSeries, scenario: Scenario) -> dict:
    out = {}
    for c in scenario.checkpoints:
        k = grid_index(scenario.dt, c)
        out[c] = float(np.linalg.eigvalsh(series.cov[k]).min())
    return out


def _run_mc(scenario: Scenario, p: ReactorParams, sys: BilinearSystem, x0: np.ndarray, workers: int) -> McResult:
    dt, t_end = scenario.dt, scenario.t_end
    cfg = PathConfig(dt=dt, t_end=t_end, seed=scenario.seed)
    ks = [grid_index(dt, c) for c in scenario.checkpoints]
    stats = ensemble_moments(cfg, x0, scenario.mc_paths, sys, n_workers=workers, record=ks)

    # The bilinear mean obeys the augmented mean ODE exactly; paths start
    # at a point, so the ODE starts from the lifted state with no spread.
    _, ode = integrate(augmented_mean_rhs(sys), point_lift(x0), dt, t_end)
    # Bias-free reference: the exact expectation of the simulated chain.
    _, euler_ode = em_mean_reference(sys, x0, dt, t_end)

    rows = []
    for r, (c, k) in enumerate(zip(scenario.checkpoints, ks)):
        for j, comp in enumerate(_COMPONENTS):
            err = abs(float(stats.mean[r, j] - euler_ode[k, j]))
            se = float(stats.stderr[r, j])
            rows.append(
                {
                    "t": c,
                    "component": comp,
                    "mc_mean": float(stats.mean[r, j]),
                    "ode_mean": float(ode[k, j]),
                    "ode_em_mean": float(euler_ode[k, j]),
                    "stderr": se,
                    "abs_err": err,
                    "within_3_stderr": int(err <= 3.0 * se),
                }
            )

    t, x_nl, xi_bl = simulate_shared_noise(p, sys, x0, dt, t_end, scenario.seed)
    gap = float(np.abs(x_nl[:, 0] - xi_bl[:, 0]).max())
    logger.info("shared-noise pair: max |x1 difference| = %.6g over [0, %g]", gap, t_end)
    return McResult(
        stats=stats, ode_mean=ode, rows=rows, coupled_x=x_nl, coupled_xi=xi_bl, tracking_max_abs_dx1=gap
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_TRAJ_COLUMNS = (
    ["t", "x1_true", "x2_true", "x3_true"]
    + ["x1_carleman", "x2_carleman", "x3_carleman"]
    + ["P11_carleman", "P22_carleman", "P12_carleman", "P13_carleman", "P23_carleman", "P33_carleman"]
    + ["x1_ekf", "x2_ekf", "x3_ekf"]
    + ["P11_ekf", "P22_ekf", "P12_ekf", "P13_ekf", "P23_ekf", "P33_ekf"]
    + ["e1_carleman", "e2_carleman", "e1_ekf", "e2_ekf"]
)

_CKPT_COLUMNS = ("t", "carleman_P_x1", "ekf_P_x1", "carleman_P_x2", "ekf_P_x2")

_MC_COLUMNS = ("t", "component", "mc_mean", "ode_mean", "ode_em_mean", "stderr", "abs_err", "within_3_stderr")


# Rows of trajectories.csv formatted per block: the block's row lists stay small.
_CSV_BLOCK_ROWS = 256


def _num(x: float) -> str:
    return f"{x:.10e}"


def _trajectory_format(report: ComparisonReport) -> tuple[str, list[np.ndarray]]:
    """One '%'-format line for a trajectories.csv row, and the columns it formats.

    Every number is '%.10e' (the same digits as `_num`); a series the
    report does not contain leaves its formats empty.
    """
    columns = [report.t, *report.true_path.T]
    formats = ["%.10e"] * 4
    for series in (report.carleman, report.ekf):
        if series is None:
            formats += [""] * 9
            continue
        c = series.cov
        columns += [*series.mean.T, c[:, 0, 0], c[:, 1, 1], c[:, 0, 1], c[:, 0, 2], c[:, 1, 2], c[:, 2, 2]]
        formats += ["%.10e"] * 9
    for method in ("carleman", "ekf"):
        err = report.errors.get(method)
        if err is None:
            formats += ["", ""]
        else:
            columns += [err[:, 0], err[:, 1]]
            formats += ["%.10e"] * 2
    return ",".join(formats) + "\n", columns


def emit_csv(report: ComparisonReport, out_dir: str) -> list[str]:
    """Write trajectories.csv, checkpoints.csv, mc_validation.csv, report.json.

    Numbers are '%.10e' with '.' decimal separator and UNIX newlines;
    series a report does not contain leave their fields empty.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    traj = os.path.join(out_dir, "trajectories.csv")
    with open(traj, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_TRAJ_COLUMNS) + "\n")
        if report.true_path is not None:
            line, columns = _trajectory_format(report)
            for start in range(0, report.t.size, _CSV_BLOCK_ROWS):
                rows = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns]).tolist()
                fh.write("".join([line % tuple(row) for row in rows]))
    paths.append(traj)

    ckpt = os.path.join(out_dir, "checkpoints.csv")
    with open(ckpt, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_CKPT_COLUMNS) + "\n")
        for row in report.checkpoint_rows:
            fields = [_num(row["t"])]
            for key in _CKPT_COLUMNS[1:]:
                fields.append(_num(row[key]) if key in row else "")
            fh.write(",".join(fields) + "\n")
    paths.append(ckpt)

    mc = os.path.join(out_dir, "mc_validation.csv")
    with open(mc, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_MC_COLUMNS) + "\n")
        if report.mc is not None:
            for row in report.mc.rows:
                fh.write(
                    ",".join(
                        [
                            _num(row["t"]),
                            row["component"],
                            _num(row["mc_mean"]),
                            _num(row["ode_mean"]),
                            _num(row["ode_em_mean"]),
                            _num(row["stderr"]),
                            _num(row["abs_err"]),
                            str(row["within_3_stderr"]),
                        ]
                    )
                    + "\n"
                )
    paths.append(mc)

    meta = {
        "scenario": report.scenario.to_dict(),
        "methods": list(report.methods),
        "seed": report.scenario.seed,
        "grid": {"dt": report.scenario.dt, "t_end": report.scenario.t_end, "n_points": int(report.t.size)},
        "notes": list(report.notes),
        "psd_min_eig_at_checkpoints": {
            m: {str(t): v for t, v in d.items()} for m, d in report.psd_min_eig.items()
        },
    }
    if report.mc is not None:
        meta["mc"] = {
            "n_paths": report.mc.stats.n_paths,
            "tracking_max_abs_dx1": report.mc.tracking_max_abs_dx1,
            "validation_rows_within_3_stderr": sum(r["within_3_stderr"] for r in report.mc.rows),
            "validation_rows_total": len(report.mc.rows),
        }
    meta_path = os.path.join(out_dir, "report.json")
    with open(meta_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(meta_path)
    return paths


_TRUE_STYLE = dict(color="#000000", style="solid")
_CARLEMAN_STYLE = dict(color="#c02020", style="dashed")
_EKF_STYLE = dict(color="#2040c0", style="dotted")


def emit_charts(report: ComparisonReport, out_dir: str) -> list[str]:
    """Write the comparison figures as standalone SVG files.

    Panels (one file per state): paths (shared-noise sample pair), means
    (true vs moment-path vs EKF), absolute errors, and variances.  Line
    styles: solid = true, dashed = moment path, dotted = EKF.  Charts
    whose series are missing are skipped with a logged notice.
    """
    os.makedirs(out_dir, exist_ok=True)
    t = report.t
    written = []
    # The report of the second builtin uses the reference figure numbering 5-7.
    n_mean, n_err, n_var = (5, 6, 7) if report.scenario.name == "set2" else (2, 3, 4)

    def emit(name, series, title, ylabel):
        path = os.path.join(out_dir, f"{name}.svg")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svgchart.line_chart(series, title, "t [s]", ylabel))
        written.append(path)

    for i, state in enumerate(("x1", "x2")):
        suffix = "a" if i == 0 else "b"
        if report.mc is not None:
            emit(
                f"fig1{suffix}",
                [
                    svgchart.Series("true SDE path", t, report.mc.coupled_x[:, i], **_TRUE_STYLE),
                    svgchart.Series("bilinear path (shared noise)", t, report.mc.coupled_xi[:, i], **_CARLEMAN_STYLE),
                ],
                f"{report.scenario.name}: sample paths, {state}",
                state,
            )
        else:
            logger.info("fig1%s skipped: no Monte Carlo series in report", suffix)
        if report.true_path is not None and report.carleman is not None and report.ekf is not None:
            emit(
                f"fig{n_mean}{suffix}",
                [
                    svgchart.Series("true SDE path", t, report.true_path[:, i], **_TRUE_STYLE),
                    svgchart.Series("Carleman mean", t, report.carleman.mean[:, i], **_CARLEMAN_STYLE),
                    svgchart.Series("EKF mean", t, report.ekf.mean[:, i], **_EKF_STYLE),
                ],
                f"{report.scenario.name}: estimates vs true path, {state}",
                state,
            )
        else:
            logger.info("fig%d%s skipped: needs true, carleman and ekf series", n_mean, suffix)
        if "carleman" in report.errors and "ekf" in report.errors:
            emit(
                f"fig{n_err}{suffix}",
                [
                    svgchart.Series("|error| Carleman", t, report.errors["carleman"][:, i], **_CARLEMAN_STYLE),
                    svgchart.Series("|error| EKF", t, report.errors["ekf"][:, i], **_EKF_STYLE),
                ],
                f"{report.scenario.name}: absolute prediction error, {state}",
                f"|{state} - mean|",
            )
        else:
            logger.info("fig%d%s skipped: needs both error series", n_err, suffix)
        if report.carleman is not None and report.ekf is not None:
            emit(
                f"fig{n_var}{suffix}",
                [
                    svgchart.Series("Carleman variance", t, report.carleman.cov[:, i, i], **_CARLEMAN_STYLE),
                    svgchart.Series("EKF variance", t, report.ekf.cov[:, i, i], **_EKF_STYLE),
                ],
                f"{report.scenario.name}: conditional variance, {state}",
                f"P_{state}",
            )
        else:
            logger.info("fig%d%s skipped: needs carleman and ekf series", n_var, suffix)
    return written
