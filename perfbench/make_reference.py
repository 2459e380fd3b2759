"""Regenerate the committed reference tables of the correctness gate.

Usage (from the root of a checkout): python3 perfbench/make_reference.py

Runs each ``run`` workload once and writes the seed-independent part of
its output to ``perfbench/reference/<scenario>/``.  Only do this when a
change is meant to alter those numbers beyond the gate's tolerance, and
say so where the change is recorded.
"""
import os
import shutil

import gate
import run


def main() -> None:
    for name, workload in run.WORKLOADS.items():
        if not workload.methods:
            continue
        call_dir = os.path.join(run.WORK, f"reference-{name}")
        shutil.rmtree(call_dir, ignore_errors=True)
        os.makedirs(call_dir)
        out_dir = os.path.join(call_dir, "out")
        argv = ["-m", "vdvcarleman", *run.command(workload, 42, out_dir)]
        call = run.invoke(argv, call_dir, run.Deadline(600.0))
        if call.exit_code != 0:
            raise SystemExit(f"{name}: exit code {call.exit_code}")
        target = os.path.join(gate.REFERENCE_DIR, workload.scenario)
        os.makedirs(target, exist_ok=True)
        for file_name, rows in gate.seed_free_tables(out_dir).items():
            gate.write_csv(os.path.join(target, file_name), rows)
        shutil.rmtree(call_dir)
        print(f"{name}: wrote {target}")


if __name__ == "__main__":
    main()
