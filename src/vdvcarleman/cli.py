"""Command-line interface.

Subcommands:
  run            execute a scenario and write CSV/SVG outputs
  dump-scenario  print a builtin scenario as JSON
  matrices       dump the embedded system's coefficient blocks
  validate       run the acceptance checks (exit 0 only if all pass)
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace

from .carleman import build_vandevusse, write_blocks
from .experiments import METHODS, builtin_scenario, emit_charts, emit_csv, load_scenario, run_scenario
from .validation import run_all

logger = logging.getLogger(__name__)


def _usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where affinity is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
                     help="ensemble worker processes (default: the CPUs this process may use)")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--no-charts", action="store_true", help="skip SVG emission")

    dump = sub.add_parser("dump-scenario", help="print a builtin scenario as JSON")
    dump.add_argument("name", choices=("set1", "set2"))

    mat = sub.add_parser("matrices", help="dump the bilinear system blocks as text")
    mat.add_argument("--scenario", default="builtin:set1")
    mat.add_argument("--out", required=True, help="output directory")

    sub.add_parser("validate", help="run the acceptance checks")
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
    t_end = updates.get("t_end", scenario.t_end)
    kept = tuple(c for c in scenario.checkpoints if c <= t_end + 1e-9)
    if len(kept) != len(scenario.checkpoints):
        logger.info("dropping checkpoints beyond t_end=%g", t_end)
    updates["checkpoints"] = kept
    # checkpoint/grid compatibility is re-validated by the Scenario itself
    return replace(scenario, **updates)


def _cmd_run(args) -> int:
    scenario = _apply_overrides(load_scenario(args.scenario), args)
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    report = run_scenario(scenario, methods, mc_workers=args.mc_workers)
    paths = emit_csv(report, args.out)
    if not args.no_charts:
        paths += emit_charts(report, args.out)
    for p in paths:
        print(p)
    return 0


def _cmd_dump(args) -> int:
    print(json.dumps(builtin_scenario(args.name).to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_matrices(args) -> int:
    scenario = load_scenario(args.scenario)
    for p in write_blocks(build_vandevusse(scenario.params), args.out):
        print(p)
    return 0


def _cmd_validate() -> int:
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
