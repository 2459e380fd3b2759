"""Scenario management, metrics, and comparison reports.

A scenario bundles parameters, initial moments, grid, checkpoint times,
and Monte Carlo settings, and derives once, as it is made, what they
determine: the step count, the checkpoints' grid indices and the
bilinear system (a `ValueError` naming ``params`` if it overflows);
everything below reads those.  `scenario_run` executes the selected
methods on one shared time grid, around the caller's ``with`` block, and
`run_scenario` is it with an empty block:

* ``carleman`` - the physical moment ODEs (reporting path);
* ``ekf``      - the EKF prediction baseline;
* ``mc``       - bilinear ensemble statistics validated against the
                 augmented mean ODE, plus the true path's bilinear partner.

All methods are compared against one seeded realization of the nonlinear
SDE ("true" path, simulated once); absolute prediction errors are
e_i(t) = |x_i_true(t) - mean_i(t)| for the two concentrations.  Only the
Monte Carlo rows read the ensemble statistics: everything else, and the
body of the caller's block, runs while the ensemble's forked ranges do
(up to ``mc_workers`` of them), and with ``mc_workers`` above one the
EKF runs in a forked child of its own beside the true and physical
paths (both through `montecarlo._fork_map`); nothing else is forked.
Reports can be emitted as CSV files and standalone SVG charts;
`emit_trajectories` and `emit_charts` need no ensemble statistics,
`emit_summary` does, and `emit_csv` writes both CSV halves.  Every CSV
goes through one writer, which formats a block of rows at a time in
numpy, byte for byte as Python's '%.10e' (`_format_fields`).
"""
from __future__ import annotations

import contextlib
import json
import logging
import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import svgchart
from .carleman import build_vandevusse, point_lift
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
    _is_real,
)
from .moments import (
    MomentSeries,
    augmented_mean_path,
    grid_index,
    grid_steps,
    integrate_physical,
)
from .montecarlo import (
    EnsembleStats,
    PathConfig,
    _fork_map,
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
    """One complete experiment definition.

    Construction also derives, once, what the fields determine, held as
    plain attributes outside the dataclass fields (so equality, `to_dict`
    and ``replace``, which derives them anew, see only the fields):
    ``n_steps``, the grid's step count; ``checkpoint_steps``, the grid
    index of each checkpoint, a read-only integer array; and ``system``,
    ``build_vandevusse(params)``.  A coefficient of ``system`` that
    overflows is a `ValueError` naming ``params``.
    """

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
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, got {self.name!r}")
        for name, kind in (("params", ReactorParams), ("x0", PhysicalState)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {type(getattr(self, name)).__name__}")
        for name in ("dt", "t_end"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} must be a finite real number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if not (isinstance(self.checkpoints, (list, tuple)) and all(map(_is_real, self.checkpoints))):
            raise ValueError(f"checkpoints must be a list of finite real numbers, got {self.checkpoints!r}")
        object.__setattr__(self, "checkpoints", tuple(map(float, self.checkpoints)))
        object.__setattr__(self, "n_steps", grid_steps(self.dt, self.t_end))  # validates dt > 0 and t_end on the grid
        object.__setattr__(self, "checkpoint_steps", np.empty(len(self.checkpoints), np.intp))
        for r, c in enumerate(self.checkpoints):
            self.checkpoint_steps[r] = grid_index(self.dt, c)  # raises off-grid
            if self.checkpoint_steps[r] > self.n_steps:
                raise ValueError(f"checkpoint {c} beyond t_end={self.t_end}")
        self.checkpoint_steps.setflags(write=False)
        object.__setattr__(self, "mc_paths", as_int("mc_paths", self.mc_paths))
        object.__setattr__(self, "seed", as_int("seed", self.seed))
        if self.mc_paths < 2:
            raise ValueError("mc_paths must be at least 2")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not _is_triple(self.p0_diag, nonnegative=True):
            raise ValueError(f"p0_diag must be three finite nonnegative numbers, got {self.p0_diag!r}")
        object.__setattr__(self, "p0_diag", tuple(map(float, self.p0_diag)))
        try:
            object.__setattr__(self, "system", build_vandevusse(self.params))
        except ValueError as exc:  # a coefficient formed from finite params overflowed
            raise ValueError(f"params overflow the embedded system: {exc}") from None

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
            dt=d["dt"],
            t_end=d["t_end"],
            checkpoints=d["checkpoints"],
            seed=d["seed"],
            mc_paths=d["mc_paths"],
        )


def _is_triple(value, nonnegative: bool = False) -> bool:
    """True for a sequence of exactly three finite real numbers (all >= 0 if ``nonnegative``)."""
    try:
        entries = list(value)
    except TypeError:
        return False
    return len(entries) == 3 and all(_is_real(x) and not (nonnegative and x < 0.0) for x in entries)


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


@dataclass
class ComparisonReport:
    """Everything `run_scenario` produced, ready for emission."""

    scenario: Scenario
    methods: tuple[str, ...]
    t: np.ndarray | None = None  # the shared grid, once a method runs
    true_path: np.ndarray | None = None
    carleman: MomentSeries | None = None
    ekf: MomentSeries | None = None
    mc: dict | None = None  # the columns of mc_validation.csv, `_MC_COLUMNS` -> array
    errors: dict = field(default_factory=dict)  # method -> (n_grid, 2)
    psd_min_eig: dict = field(default_factory=dict)  # method -> {t: min eigenvalue}
    notes: list = field(default_factory=list)
    coupled_xi: np.ndarray | None = None  # (n_grid, 9) bilinear path on the noise of the true path (mc only)
    tracking_max_abs_dx1: float | None = None  # max |x1| gap between the true path and coupled_xi


_COMPONENTS = (*(f"x{i + 1}" for i in range(3)),
               *(f"x{i + 1}x{j + 1}" for i, j in zip(*np.triu_indices(3))))


@contextlib.contextmanager
def scenario_run(scenario: Scenario, methods, mc_workers: int):
    """Execute the selected methods on the scenario's shared grid, around a ``with`` block.

    The grid, the checkpoint steps and the bilinear system are the ones
    the scenario derived as it was made; nothing here derives them again.
    The block gets the report with everything but the ensemble
    statistics: the true path, ``carleman`` and ``ekf`` with their errors
    and PSD minima and, for ``mc``, the augmented and Euler mean
    references and the shared-noise pair.  ``report.mc`` is filled in as
    the block ends.  With ``mc`` the ensemble's ranges are forked first
    (see `montecarlo.ensemble_moments`), so all of that, and the body of
    the block, runs beside them.  ``mc_workers`` caps the ensemble's
    ranges; above one, ``ekf_predict`` also runs in a child forked by
    `montecarlo._fork_map` while the caller makes the true and physical
    paths; with one, everything runs in the caller, in the order above.
    The log gets ``ekf (scenario NAME, mc_workers N) ran in T s``, timed
    in the process that ran it.
    A failing method is a `RuntimeError` naming it, the same at every
    ``mc_workers``; the true path fails first, then ``carleman``, ``ekf``
    and ``mc`` (an EKF child is killed when the true or physical path
    fails, and its own failure is raised by ``join()``, after them).
    """
    requested = set(methods)
    unknown = requested - set(METHODS)
    if unknown:
        raise ValueError(f"unknown methods: {sorted(unknown)}")
    mc_workers = as_int("mc_workers", mc_workers)
    if mc_workers < 1:
        raise ValueError(f"ensemble n_workers (mc_workers) must be at least 1, got {mc_workers}")
    methods = tuple(m for m in METHODS if m in requested)
    p, sys, ks = scenario.params, scenario.system, scenario.checkpoint_steps
    dt, t_end = scenario.dt, scenario.t_end
    report = ComparisonReport(scenario=scenario, methods=methods)
    if scenario.name == "set1":
        report.notes.append(TABLE_NOTE_SET1)
    if not methods:
        yield report
        return

    report.t = np.arange(scenario.n_steps + 1) * dt
    x0, cov0 = scenario.x0.as_array(), np.diag(scenario.p0_diag)
    cfg = PathConfig(dt=dt, t_end=t_end, seed=scenario.seed)

    def run(name, fn):
        try:
            return fn()
        except RuntimeError as exc:
            raise RuntimeError(f"method {name!r} failed: {exc}") from exc

    def keep(name, series):
        setattr(report, name, series)
        report.errors[name] = np.abs(report.true_path[:, :2] - series.mean[:, :2])
        report.psd_min_eig[name] = _psd_at_checkpoints(series, scenario)

    with (ensemble_moments(cfg, x0, scenario.mc_paths, sys, n_workers=mc_workers, record=ks) if "mc" in methods
          else contextlib.nullcontext()) as stats:
        # The EKF needs nothing the caller makes: with mc_workers above one
        # it runs in a child while the caller makes the true and physical paths.
        ekf = [("ekf_predict", lambda: ekf_predict(p, x0, cov0, dt, t_end))] if "ekf" in methods else []
        with _fork_map(ekf, mc_workers) as join:
            # One seeded realization of the exact SDE is the error reference.
            report.true_path = run("true", lambda: simulate_path(cfg, x0, p))
            if "carleman" in methods:
                keep("carleman", run("carleman", lambda: integrate_physical(p, x0, cov0, dt, t_end)))
            for series, seconds in run("ekf", join):
                logger.info("ekf (scenario %s, mc_workers %d) ran in %.3f s", scenario.name, mc_workers, seconds)
                keep("ekf", series)
        if "mc" in methods:
            ode, euler = run("mc", lambda: _mc_references(scenario, x0))
            # The true path is the nonlinear half of the shared-noise pair.
            report.coupled_xi = run("mc", lambda: simulate_shared_noise(sys, x0, dt, t_end, scenario.seed))
            report.tracking_max_abs_dx1 = float(np.abs(report.true_path[:, 0] - report.coupled_xi[:, 0]).max())
            logger.info("shared-noise pair: max |x1 difference| = %.6g over [0, %g]",
                        report.tracking_max_abs_dx1, t_end)
        yield report
        if "mc" in methods:
            report.mc = _mc_result(scenario, run("mc", stats), ode, euler)


def run_scenario(scenario: Scenario, methods, mc_workers: int = 1) -> ComparisonReport:
    """The report of `scenario_run` with an empty block: everything the selected methods make."""
    with scenario_run(scenario, methods, mc_workers) as report:
        pass
    return report


def _psd_at_checkpoints(series: MomentSeries, scenario: Scenario) -> dict:
    return {c: float(np.linalg.eigvalsh(series.at_time(c)[1]).min()) for c in scenario.checkpoints}


def _mc_references(scenario: Scenario, x0: np.ndarray) -> tuple:
    """(ode, euler): the augmented mean path and the Euler mean of the scenario's system, at its checkpoints."""
    sys, dt, t_end, ks = scenario.system, scenario.dt, scenario.t_end, scenario.checkpoint_steps
    # The bilinear mean obeys the augmented mean ODE exactly; paths start
    # at a point, so the ODE starts from the lifted state with no spread.
    # The Euler mean is the bias-free one: the exact expectation of the simulated chain.
    return augmented_mean_path(sys, point_lift(x0), dt, t_end)[ks], em_mean_reference(sys, x0, dt, t_end)[ks]


def _mc_result(scenario: Scenario, stats: EnsembleStats, ode: np.ndarray, euler: np.ndarray) -> dict:
    """The columns of mc_validation.csv, an entry per (checkpoint, component), checkpoint-major.

    Row r of ``stats``, ``ode`` and ``euler`` is checkpoint r.
    """
    abs_err = np.abs(stats.mean - euler).ravel()
    stderr = stats.stderr.ravel()
    return dict(zip(_MC_COLUMNS, (
        np.repeat(scenario.checkpoints, len(_COMPONENTS)),
        np.tile(np.array(_COMPONENTS, "S"), len(scenario.checkpoints)),
        stats.mean.ravel(),
        ode.ravel(),
        euler.ravel(),
        stderr,
        abs_err,
        np.where(abs_err <= 3.0 * stderr, b"1", b"0"),
    )))


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

_TRAJ_COLUMNS = ["t", "x1_true", "x2_true", "x3_true"] + [
    f"{name}_{method}" for method in ("carleman", "ekf")
    for name in ("x1", "x2", "x3", "P11", "P22", "P12", "P13", "P23", "P33")
] + ["e1_carleman", "e2_carleman", "e1_ekf", "e2_ekf"]

# (i, j) of the trajectory covariance columns P11, P22, P12, P13, P23, P33.
_COV_ENTRIES = ((0, 0), (1, 1), (0, 1), (0, 2), (1, 2), (2, 2))

_CKPT_COLUMNS = ("t", "carleman_P_x1", "ekf_P_x1", "carleman_P_x2", "ekf_P_x2")

_MC_COLUMNS = ("t", "component", "mc_mean", "ode_mean", "ode_em_mean", "stderr", "abs_err", "within_3_stderr")

# Rows formatted per block: the block's arrays stay small.
_CSV_BLOCK_ROWS = 256

# 10^k for 0 <= k <= 22, each an exact double, and the ASCII of every
# two-digit pair, its first digit in the low byte.
_POW10 = np.array([float(10 ** k) for k in range(23)])
_DIGIT_PAIRS = np.array([ord(str(i // 10)) | ord(str(i % 10)) << 8 for i in range(100)], dtype=np.uint32)


def _scaled(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """a * 10^(10 - e): one correctly rounded multiply or divide by an exact power of ten."""
    k = 10 - e
    return a * _POW10.take(np.clip(k, 0, 22)) / _POW10.take(np.clip(-k, 0, 22))


def _format_fields(x: np.ndarray) -> tuple:
    """('%.10e' % v for every v in ``x``, as five uint32 words each, zero-padded; fallback count).

    s = |v| 10^(10 - e), e = floor(log10 |v|), holds the 11 significant
    digits; below 1e11 it is within 0.5 ulp (< 1e-5) of the exact value,
    so rint(s) has the digits of the correctly rounded '%.10e' unless s is
    within 1e-4 of a rounding tie.  Such fields, non-finite ones, decades
    outside [-12, 32] (|k| <= 22 keeps 10^k exact) and any s left outside
    [1e10, 1e11) after one correction of e are formatted by Python's '%'.
    Bytes: [sign] d '.' 0 dddd dddd dd 'e' +- dd 0 0; byte 19 is left
    zero for the separator.
    """
    a = np.abs(x)
    finite = np.isfinite(a)
    zero = a == 0.0
    a = np.where(finite & ~zero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    s = _scaled(a, e)
    off = (s >= 1e11).astype(np.int64) - (s < 1e10)
    if off.any():  # log10 near a power of ten
        e += off
        s = _scaled(a, e)
    slow = ~finite | (e < -12) | (e > 32) | (s < 1e10) | (s >= 1e11) | (np.abs(s - np.floor(s) - 0.5) < 1e-4)
    blank = zero | slow
    m = np.where(blank, 0.0, np.rint(s)).astype(np.int64)
    carry = m == 10 ** 11  # 9.99999999995 and above round to 1.0000000000 of the next decade
    m[carry] = 10 ** 10
    e = np.where(blank, 0, e + carry)
    pairs = []
    for _ in range(5):
        q = m // 100
        pairs.append(_DIGIT_PAIRS.take(m - 100 * q))
        m = q
    p5, p4, p3, p2, p1 = pairs
    words = np.empty(x.shape + (5,), np.uint32)
    words[..., 0] = np.where(np.signbit(x), 0x2E302D, 0x2E3000) + (m.astype(np.uint32) << 8)
    words[..., 1] = p1 | p2 << 16
    words[..., 2] = p3 | p4 << 16
    words[..., 3] = p5 | np.where(e < 0, 0x2D650000, 0x2B650000)
    words[..., 4] = _DIGIT_PAIRS.take(np.abs(e))
    n_slow = int(np.count_nonzero(slow))
    if n_slow:
        words[slow] = _text_words(["%.10e" % v for v in x[slow].tolist()])
    return words, n_slow


def _text_words(texts) -> np.ndarray:
    """Each str or bytes of at most 19 bytes as five uint32 words, zero-padded."""
    return np.array(texts, "S20").view("<u4").reshape(-1, 5)


@contextlib.contextmanager
def removed_on_failure(*lists):
    """Run the block; if it raises, remove every file in ``lists``, as they then stand, and re-raise."""
    try:
        yield
    except BaseException:
        for path in (p for paths in lists for p in paths):
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _write_files(out_dir: str, files) -> list[str]:
    """Call ``write(fh)`` for each (name, write) of ``files``, on ``out_dir/name`` opened "wb"; the paths, or none."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    with removed_on_failure(written):
        for name, write in files:
            with open(os.path.join(out_dir, name), "wb") as fh:
                written.append(fh.name)  # opened, so removed if the call fails
                write(fh)
    return written


def _write_csv(fh, header, columns) -> None:
    """Write the ``header`` row, then row i of ``columns``, a block of rows at a time, to ``fh``.

    A column is a float array, each number written '%.10e'; an 'S' array
    of at most 19 bytes an entry, written as it is; or None, an empty
    field.  Each block is one array of five uint32 words per field, its
    separator in the last byte, written with the zero padding dropped.
    How many fields took the '%' fallback of `_format_fields` is logged
    at DEBUG.
    """
    present = [j for j, c in enumerate(columns) if c is not None]
    texts = [j for j in present if columns[j].dtype.kind == "S"]
    numbers = [j for j in present if j not in texts]
    n = len(columns[present[0]]) if present else 0
    separators = np.full(len(header), ord(","), np.uint32) << 24
    separators[-1] = ord("\n") << 24
    n_slow = 0
    fh.write((",".join(header) + "\n").encode())
    for start in range(0, n, _CSV_BLOCK_ROWS):
        stop = min(n, start + _CSV_BLOCK_ROWS)
        words = np.zeros((stop - start, len(header), 5), np.uint32)
        if numbers:
            words[:, numbers], slow = _format_fields(np.column_stack([columns[j][start:stop] for j in numbers]))
            n_slow += slow
        for j in texts:
            words[:, j] = _text_words(columns[j][start:stop])
        words[..., 4] |= separators
        fh.write(words.tobytes().translate(None, b"\0"))
    logger.debug("%s: %d of %d fields formatted by '%%'", os.path.basename(fh.name), n_slow, n * len(numbers))


def emit_csv(report: ComparisonReport, out_dir: str) -> list[str]:
    """Write trajectories.csv, checkpoints.csv, mc_validation.csv, report.json.

    Every number is written byte for byte as '%.10e' % x, with '.'
    decimal separator and UNIX newlines.  ``run`` calls the two halves,
    `emit_trajectories` and `emit_summary`, apart; each, and this call,
    writes all of its files or, failing, removes them.
    """
    written = []
    with removed_on_failure(written):
        written += emit_trajectories(report, out_dir)
        return written + emit_summary(report, out_dir)


def emit_trajectories(report: ComparisonReport, out_dir: str) -> list[str]:
    """Write trajectories.csv and checkpoints.csv.

    trajectories.csv holds the report's series on the whole grid,
    checkpoints.csv their diagonal covariances at the scenario's
    checkpoint times; series a report does not contain leave their fields
    empty.
    """
    traj, ckpt = [], []
    if report.true_path is not None:
        ks = report.scenario.checkpoint_steps
        traj = [report.t, *report.true_path.T]
        ckpt = [np.array(report.scenario.checkpoints, dtype=float)]
        for s in (report.carleman, report.ekf):
            traj += [None] * 9 if s is None else [*s.mean.T, *(s.covariance(i, j) for i, j in _COV_ENTRIES)]
        for method in ("carleman", "ekf"):
            err = report.errors.get(method)
            traj += [None] * 2 if err is None else [*err.T]
        for i in (0, 1):
            ckpt += [None if s is None else s.covariance(i, i)[ks] for s in (report.carleman, report.ekf)]
    return _write_files(out_dir, [
        ("trajectories.csv", lambda fh: _write_csv(fh, _TRAJ_COLUMNS, traj)),
        ("checkpoints.csv", lambda fh: _write_csv(fh, _CKPT_COLUMNS, ckpt)),
    ])


def emit_summary(report: ComparisonReport, out_dir: str) -> list[str]:
    """Write mc_validation.csv, the Monte Carlo columns, and report.json, the run's metadata."""
    mc = report.mc or {}

    meta = {
        "scenario": report.scenario.to_dict(),
        "methods": list(report.methods),
        "seed": report.scenario.seed,
        "grid": {"dt": report.scenario.dt, "t_end": report.scenario.t_end, "n_points": report.scenario.n_steps + 1},
        "notes": list(report.notes),
        "psd_min_eig_at_checkpoints": {
            m: {str(t): v for t, v in d.items()} for m, d in report.psd_min_eig.items()
        },
    }
    if mc:
        meta["mc"] = {
            "n_paths": report.scenario.mc_paths,
            "tracking_max_abs_dx1": report.tracking_max_abs_dx1,
            "validation_rows_within_3_stderr": int(np.count_nonzero(mc["within_3_stderr"] == b"1")),
            "validation_rows_total": len(mc["t"]),
        }
    return _write_files(out_dir, [
        ("mc_validation.csv", lambda fh: _write_csv(fh, _MC_COLUMNS, [mc.get(key) for key in _MC_COLUMNS])),
        ("report.json", lambda fh: fh.write((json.dumps(meta, indent=2, sort_keys=True) + "\n").encode())),
    ])


_TRUE_STYLE = dict(color="#000000", style="solid")
_CARLEMAN_STYLE = dict(color="#c02020", style="dashed")
_EKF_STYLE = dict(color="#2040c0", style="dotted")

# One row per chart panel: figure numbers (first, second builtin), title,
# y-label, and lines as (label, report series, style); a panel needs
# every series its lines plot.
_PANELS = (
    ((1, 1), "sample paths", "{}",
     [("true SDE path", "true path", _TRUE_STYLE), ("bilinear path (shared noise)", "bilinear path", _CARLEMAN_STYLE)]),
    ((2, 5), "estimates vs true path", "{}",
     [("true SDE path", "true path", _TRUE_STYLE), ("Carleman mean", "carleman mean", _CARLEMAN_STYLE),
      ("EKF mean", "ekf mean", _EKF_STYLE)]),
    ((3, 6), "absolute prediction error", "|{} - mean|",
     [("|error| Carleman", "carleman error", _CARLEMAN_STYLE), ("|error| EKF", "ekf error", _EKF_STYLE)]),
    ((4, 7), "conditional variance", "P_{}",
     [("Carleman variance", "carleman variance", _CARLEMAN_STYLE), ("EKF variance", "ekf variance", _EKF_STYLE)]),
)


def emit_charts(report: ComparisonReport, out_dir: str) -> list[str]:
    """Write the comparison figures as standalone SVG files, one per panel and state.

    Panels (`_PANELS`): paths (true path and its shared-noise bilinear
    partner), means (true vs moment-path vs EKF), absolute errors, and
    variances; the second builtin uses the reference figure numbers
    5-7.  Line styles: solid = true, dashed = moment or bilinear path,
    dotted = EKF.  A panel whose series the report lacks is skipped
    with a logged notice naming them.  Every figure is drawn before any
    file is opened, and the files are written all or none.
    """
    # series[key][i] is the path of state i: a row of a transposed array, or a variance.
    by_state = lambda a: None if a is None else a.T
    series = {"true path": by_state(report.true_path), "bilinear path": by_state(report.coupled_xi)}
    for method in ("carleman", "ekf"):
        s = getattr(report, method)
        series[f"{method} mean"] = None if s is None else s.mean.T
        series[f"{method} error"] = by_state(report.errors.get(method))
        series[f"{method} variance"] = None if s is None else [s.covariance(i, i) for i in range(3)]
    charts = []
    for i, (state, suffix) in enumerate((("x1", "a"), ("x2", "b"))):
        for figs, title, ylabel, lines in _PANELS:
            name = f"fig{figs[report.scenario.name == 'set2']}{suffix}"
            missing = [key for _, key, _ in lines if series[key] is None]
            if missing:
                logger.info("%s skipped: no %s series in report", name, " or ".join(missing))
                continue
            chart = svgchart.line_chart(
                [svgchart.Series(label, report.t, series[key][i], **style) for label, key, style in lines],
                f"{report.scenario.name}: {title}, {state}",
                "t [s]",
                ylabel.format(state),
            )
            charts.append((f"{name}.svg", lambda fh, text=chart: fh.write(text.encode())))
    return _write_files(out_dir, charts)
