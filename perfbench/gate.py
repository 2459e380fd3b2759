"""Correctness gate for the outputs of each benchmark workload.

A ``run`` call writes CSVs whose Carleman and EKF columns, checkpoint
table and ODE reference columns do not depend on the seed.  Those fields
are compared with a committed reference (``reference/<scenario>/``) to a
tolerance that admits last-digit changes from reordered arithmetic and
rejects a wrong answer.  The Monte Carlo means, which do depend on the
seed, are checked statistically against the exact expectation of the
simulated chain (``ode_em_mean``).  A ``validate`` call must fail exactly
the known-red criteria.

Every check returns ``(name, ok, detail)``; one failed check is one failed
operation of the benchmark.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# |got - ref| <= ABS_TOL + REL_TOL * |ref|.  Reordering floating-point sums
# moves these fields by ~1e-11 at most; a wrong coefficient moves them by
# far more than 1e-7 relative.
REL_TOL = 1e-7
ABS_TOL = 1e-9
# Seed-dependent Monte Carlo means must lie within this many standard
# errors of the exact chain expectation.  Five keeps a false alarm below
# 1e-4 per run over the 72 rows.
MC_STDERR_LIMIT = 5.0
# Every TRAJ_STRIDE-th grid row of trajectories.csv is kept in the reference.
TRAJ_STRIDE = 200

SEED_FREE_TRAJ = tuple(
    f"{v}_{m}"
    for m in ("carleman", "ekf")
    for v in ("x1", "x2", "x3", "P11", "P22", "P12", "P13", "P23", "P33")
)
ODE_COLUMNS = ("t", "component", "ode_mean", "ode_em_mean")
KNOWN_RED = frozenset({3, 8})
N_CRITERIA = 10
# What a missing, truncated or malformed output file raises while checked.
READ_ERRORS = (OSError, ValueError, KeyError, IndexError, StopIteration, csv.Error)


def read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def write_csv(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _select(rows, columns, stride=1) -> list[list[str]]:
    """Columns ``columns`` of every ``stride``-th data row of an iterable of rows."""
    rows = iter(rows)
    header = next(rows)
    idx = [header.index(c) for c in columns]
    return [list(columns)] + [[r[i] for i in idx] for k, r in enumerate(rows) if k % stride == 0]


def seed_free_tables(out_dir: str) -> dict[str, list[list[str]]]:
    """The seed-independent part of a ``run`` output directory, by reference file name.

    trajectories.csv is streamed: the benchmark's own peak memory must stay
    below that of the calls it measures (a child's peak RSS counts its
    parent's at spawn).
    """
    with open(os.path.join(out_dir, "trajectories.csv"), encoding="utf-8", newline="") as fh:
        traj = _select(csv.reader(fh), ("t",) + SEED_FREE_TRAJ, TRAJ_STRIDE)
    mc = read_csv(os.path.join(out_dir, "mc_validation.csv"))
    return {
        "trajectories.csv": traj,
        "checkpoints.csv": read_csv(os.path.join(out_dir, "checkpoints.csv")),
        "mc_validation.csv": _select(mc, ODE_COLUMNS) if len(mc) > 1 else mc,
    }


def compare_tables(ref: list[list[str]], got: list[list[str]]) -> tuple[float, list[str]]:
    """Largest numeric field difference, and every difference beyond tolerance.

    Fields that do not parse as numbers must match exactly, as must the
    table shape.
    """
    if len(ref) != len(got):
        return math.inf, [f"{len(got)} rows, reference has {len(ref)}"]
    worst, errors = 0.0, []
    for k, (rr, gr) in enumerate(zip(ref, got)):
        if len(rr) != len(gr):
            return math.inf, errors + [f"row {k}: {len(gr)} fields, reference has {len(rr)}"]
        for j, (a, b) in enumerate(zip(rr, gr)):
            if a == b:
                continue
            try:
                ra, gb = float(a), float(b)
            except ValueError:
                errors.append(f"row {k} field {j}: {b!r}, reference {a!r}")
                continue
            diff = abs(gb - ra)
            if not math.isfinite(diff):
                diff = math.inf
            worst = max(worst, diff)
            if not diff <= ABS_TOL + REL_TOL * abs(ra):
                errors.append(f"row {k} field {j} ({ref[0][j]}): {b}, reference {a}, diff {diff:.3e}")
    return worst, errors


def _check(name, errors):
    return name, not errors, "; ".join(errors[:3]) + (f" (+{len(errors) - 3} more)" if len(errors) > 3 else "")


def check_reference(out_dir: str, scenario: str) -> tuple[list, float]:
    """Compare the seed-independent tables to the committed reference."""
    checks, worst = [], 0.0
    for name, got in seed_free_tables(out_dir).items():
        diff, errors = compare_tables(read_csv(os.path.join(REFERENCE_DIR, scenario, name)), got)
        worst = max(worst, diff)
        checks.append(_check(f"reference {name}", errors))
    return checks, worst


def check_trajectories(out_dir: str, dt: float, n_steps: int) -> tuple:
    """Layout, grid and the seed-dependent columns of trajectories.csv."""
    errors, n_rows = [], 0
    with open(os.path.join(out_dir, "trajectories.csv"), encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows)
        col = {c: i for i, c in enumerate(header)}
        for k, r in enumerate(rows):
            n_rows += 1
            if not errors:
                errors = _trajectory_row_errors(k, r, header, col, dt)
    if n_rows != n_steps + 1:
        errors.append(f"{n_rows} grid rows, expected {n_steps + 1}")
    return _check("trajectories layout and error columns", errors)


def _trajectory_row_errors(k, r, header, col, dt) -> list[str]:
    errors = []
    if len(r) != len(header):
        return [f"row {k}: {len(r)} fields, header has {len(header)}"]
    if abs(float(r[0]) - k * dt) > 1e-9 * (1 + k * dt):
        return [f"row {k}: t={r[0]} off the grid"]
    for m in ("carleman", "ekf"):
        for i in (1, 2):
            true, mean, err = (float(r[col[f"x{i}_true"]]), float(r[col[f"x{i}_{m}"]]),
                               float(r[col[f"e{i}_{m}"]]))
            if not (math.isfinite(true) and abs(err - abs(true - mean)) <= 1e-8 * (1 + abs(true))):
                errors.append(f"row {k}: e{i}_{m}={err} is not |x{i}_true - x{i}_{m}|")
    return errors


def check_mc_statistics(out_dir: str) -> tuple:
    """Seeded ensemble means against the exact chain expectation."""
    rows = read_csv(os.path.join(out_dir, "mc_validation.csv"))
    header, body = rows[0], rows[1:]
    col = {c: i for i, c in enumerate(header)}
    errors = [] if body else ["no Monte Carlo rows"]
    for r in body:
        mc, ref, se = (float(r[col[c]]) for c in ("mc_mean", "ode_em_mean", "stderr"))
        err = abs(mc - ref)
        if not (se > 0 and err <= MC_STDERR_LIMIT * se + 1e-9 * abs(ref)):
            errors.append(f"t={r[col['t']]} {r[col['component']]}: |mc - em| = {err:.3e}, stderr {se:.3e}")
        if abs(float(r[col["abs_err"]]) - err) > 1e-9 * (1 + abs(ref)):
            errors.append(f"t={r[col['t']]} {r[col['component']]}: abs_err column is not |mc_mean - ode_em_mean|")
    return _check(f"mc_mean within {MC_STDERR_LIMIT:g} stderr of ode_em_mean", errors)


def check_report(out_dir: str, seed: int, methods, mc_paths) -> tuple:
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        meta = json.load(fh)
    errors = []
    if meta["seed"] != seed:
        errors.append(f"report seed {meta['seed']}, requested {seed}")
    if meta["methods"] != list(methods):
        errors.append(f"methods {meta['methods']}, expected {list(methods)}")
    got_paths = meta.get("mc", {}).get("n_paths")
    if got_paths != mc_paths:
        errors.append(f"mc n_paths {got_paths}, expected {mc_paths}")
    return _check("report.json seed, methods and ensemble size", errors)


def check_charts(out_dir: str, names) -> tuple:
    errors = []
    for name in names:
        path = os.path.join(out_dir, f"{name}.svg")
        if not os.path.exists(path):
            errors.append(f"{name}.svg missing")
            continue
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if "<svg" not in text or not text.rstrip().endswith("</svg>"):
            errors.append(f"{name}.svg is not a complete SVG document")
    return _check("SVG charts", errors)


_CRITERION = re.compile(r"^\[\s*(\d+)\] (PASS|FAIL) ")


def check_validate(stdout: str, exit_code: int) -> tuple[list, int]:
    """One check per criterion: it must pass, except the known-red ones,
    which must fail.  Returns the checks and the number of criteria that
    failed."""
    outcome = {}
    for line in stdout.splitlines():
        m = _CRITERION.match(line)
        if m:
            outcome[int(m.group(1))] = m.group(2) == "PASS"
    checks = []
    for n in range(1, N_CRITERIA + 1):
        expected = n not in KNOWN_RED
        got = outcome.get(n)
        detail = "" if got == expected else (
            "missing" if got is None else f"{'passed' if got else 'failed'}, expected {'PASS' if expected else 'FAIL'}"
        )
        checks.append((f"criterion {n}", got == expected, detail))
    failed = sum(1 for ok in outcome.values() if not ok)
    extra = sorted(set(outcome) - set(range(1, N_CRITERIA + 1)))
    code_ok = exit_code == (1 if failed else 0) and not extra
    checks.append(("validate exit code and criteria count", code_ok,
                   "" if code_ok else f"exit code {exit_code} with {failed} failed, extra {extra}"))
    return checks, failed
