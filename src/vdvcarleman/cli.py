"""Command-line interface.

Subcommands:
  run            execute a scenario and write CSV/SVG outputs, all but
                 the Monte Carlo ones while the ensemble runs; with two
                 or more usable CPUs, the ensemble's ranges and the EKF
                 run in forked children, one range per CPU
  dump-scenario  print a builtin scenario as JSON
  matrices       dump the embedded system's coefficient blocks
  validate       run the acceptance checks (exit 0 only if all pass)
"""
from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
from dataclasses import replace

from .carleman import build_vandevusse, write_blocks
from .experiments import (
    METHODS,
    builtin_scenario,
    emit_charts,
    emit_summary,
    emit_trajectories,
    load_scenario,
    removed_on_failure,
    scenario_run,
)
from .moments import grid_index, grid_steps
from .montecarlo import _usable_cpus

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vdvcarleman", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and emit reports")
    run.add_argument("--scenario", default="builtin:set1",
                     help="'builtin:set1', 'builtin:set2', or a scenario JSON path")
    run.add_argument("--methods", default="carleman,ekf,mc",
                     help=f"comma-separated subset of {','.join(METHODS)}")
    run.add_argument("--dt", type=float, default=None, help="override grid step [s]")
    run.add_argument("--t-end", type=float, default=None, help="override horizon [s]")
    run.add_argument("--mc-paths", type=int, default=None, help="override ensemble size")
    run.add_argument("--seed", type=int, default=None, help="override RNG seed")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--no-charts", action="store_true", help="skip SVG emission")
    run.set_defaults(parser=run, func=_cmd_run)

    dump = sub.add_parser("dump-scenario", help="print a builtin scenario as JSON")
    dump.add_argument("name", choices=("set1", "set2"))
    dump.set_defaults(func=_cmd_dump)

    mat = sub.add_parser("matrices", help="dump the bilinear system blocks as text")
    mat.add_argument("--scenario", default="builtin:set1")
    mat.add_argument("--out", required=True, help="output directory")
    mat.set_defaults(parser=mat, func=_cmd_matrices)

    check = sub.add_parser("validate", help="run the acceptance checks, one process per usable CPU")
    check.set_defaults(func=_cmd_validate)
    return parser


def _apply_overrides(scenario, args):
    updates = {}
    if args.dt is not None:
        updates["dt"] = args.dt
    if args.t_end is not None:
        updates["t_end"] = args.t_end
    if args.mc_paths is not None:
        updates["mc_paths"] = args.mc_paths
    if args.seed is not None:
        updates["seed"] = args.seed
    if not updates:
        return scenario
    dt, t_end = updates.get("dt", scenario.dt), updates.get("t_end", scenario.t_end)
    n_steps = grid_steps(dt, t_end)
    kept = tuple(c for c in scenario.checkpoints if grid_index(dt, c) <= n_steps)
    if len(kept) != len(scenario.checkpoints):
        logger.info("dropping checkpoints beyond t_end=%g", t_end)
    updates["checkpoints"] = kept
    # checkpoint/grid compatibility is re-validated by the Scenario itself
    return replace(scenario, **updates)


def _make_out_dir(args) -> None:
    """Create the ``--out`` directory before any work; failing, end in a usage error naming ``--out``."""
    try:
        os.makedirs(args.out, exist_ok=True)
    except FileExistsError:
        args.parser.error(f"argument --out: {args.out} exists and is not a directory")
    except OSError as exc:
        args.parser.error(f"argument --out: {exc}")


@contextlib.contextmanager
def _usage_errors(parser):
    """End a configuration error raised inside as ``parser``'s one-line usage error (exit 2)."""
    try:
        yield
    except (KeyError, ValueError, OSError) as exc:
        parser.error(exc.args[0] if isinstance(exc, KeyError) else str(exc))  # str() would quote a KeyError


def _cmd_run(args) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    unknown = sorted(set(methods) - set(METHODS))
    if unknown:
        args.parser.error(f"unknown methods: {', '.join(unknown)} (choose from {', '.join(METHODS)})")
    with _usage_errors(args.parser):
        scenario = _apply_overrides(load_scenario(args.scenario), args)
    _make_out_dir(args)
    paths, charts = [], []
    with removed_on_failure(paths, charts):  # a failed run leaves none of the files it wrote
        with scenario_run(scenario, methods, _usable_cpus()) as report:
            paths += emit_trajectories(report, args.out)
            if not args.no_charts:
                charts += emit_charts(report, args.out)
        paths += emit_summary(report, args.out)
    for p in paths + charts:
        print(p)
    return 0


def _cmd_dump(args) -> int:
    print(json.dumps(builtin_scenario(args.name).to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_matrices(args) -> int:
    with _usage_errors(args.parser):
        scenario = load_scenario(args.scenario)
    _make_out_dir(args)
    for p in write_blocks(build_vandevusse(scenario.params), args.out):
        print(p)
    return 0


def _cmd_validate(args) -> int:
    from .validation import run_all  # only validate loads the acceptance checks

    results = run_all()
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{r.number:2d}] {status}  {r.name}: {r.detail}")
        failed += not r.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader gone from stdout raises here, not at exit
    except BrokenPipeError:  # as the `signal` docs advise: what the exit flushes goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
