"""Command-line interface.

Subcommands:
  run            execute a scenario and write CSV/SVG outputs, all but
                 the Monte Carlo ones while the ensemble runs; with
                 --mc-workers above one, the ensemble's ranges, the EKF
                 and the chart rendering run in forked children
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
    emit_summary,
    emit_trajectories,
    load_scenario,
    removed_on_failure,
    render_charts,
    scenario_run,
    write_charts,
)
from .moments import grid_index, grid_steps
from .montecarlo import _fork_map, _usable_cpus

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
    run.add_argument("--mc-workers", type=int, default=_usable_cpus(),
                     help="worker processes: the ensemble's ranges, and the EKF and chart children "
                          "beside them (default: the CPUs this process may use)")
    run.add_argument("--out", type=_out_dir, required=True, help="output directory")
    run.add_argument("--no-charts", action="store_true", help="skip SVG emission")
    run.set_defaults(parser=run)

    dump = sub.add_parser("dump-scenario", help="print a builtin scenario as JSON")
    dump.add_argument("name", choices=("set1", "set2"))

    mat = sub.add_parser("matrices", help="dump the bilinear system blocks as text")
    mat.add_argument("--scenario", default="builtin:set1")
    mat.add_argument("--out", type=_out_dir, required=True, help="output directory")
    mat.set_defaults(parser=mat)

    sub.add_parser("validate", help="run the acceptance checks, one process per usable CPU")
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


def _out_dir(path: str) -> str:
    """An ``--out`` value: a directory, or a path where none exists yet."""
    if os.path.exists(path) and not os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"{path} exists and is not a directory")
    return path


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
    if args.mc_workers < 1:
        args.parser.error(f"--mc-workers must be at least 1, got {args.mc_workers}")
    with _usage_errors(args.parser):
        scenario = _apply_overrides(load_scenario(args.scenario), args)
    paths, charts = [], []
    with removed_on_failure(paths, charts):  # a failed run leaves none of the files it wrote
        with scenario_run(scenario, methods, args.mc_workers) as report:
            # Beside the ensemble, a child only renders the charts while the caller
            # writes the CSVs: every file of the run is written, and so removed on failure, here.
            render = [] if args.no_charts else [("chart rendering", lambda: render_charts(report))]
            with _fork_map(render, args.mc_workers) as join:
                paths += emit_trajectories(report, args.out)
                for rendered in join():
                    charts += write_charts(rendered, args.out)
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
    for p in write_blocks(build_vandevusse(scenario.params), args.out):
        print(p)
    return 0


def _cmd_validate() -> int:
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
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "dump-scenario":
        return _cmd_dump(args)
    if args.command == "matrices":
        return _cmd_matrices(args)
    if args.command == "validate":
        return _cmd_validate()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
