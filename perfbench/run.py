"""Benchmark of the ``vdvcarleman`` CLI: three workloads, end-to-end and
per-module metrics, and a correctness gate on every output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one CLI call, run one at a time from this process, each
in a fresh interpreter with its own TMPDIR under ``perfbench/work/``:

* ``run-set1-mc``      ``run --scenario builtin:set1`` with all methods and
  1536 paths: the Monte Carlo ensemble is most of the wall time, and two
  calls fit in a 30-second run.
* ``run-set2-moments`` ``run --scenario builtin:set2 --methods carleman,ekf``:
  40 000 RK4 steps and a 17.8 MB trajectories.csv, no ensemble, so a Monte
  Carlo change must leave it unchanged.
* ``validate``         the ten acceptance criteria: the only call that
  reaches ``integrate_augmented``, and a second shape of ensemble (10^4
  short paths at dt = 0.005, and a 4-thread pool).

The seed is passed to the program only as ``--seed``; ``validate`` takes no
seed, so its inputs are fixed.

``--trace 0`` repeats the call, untraced, for about ``--seconds`` seconds
of calls (at least one) and reports the end-to-end metrics as medians over
the calls; set-up time is the median over several set-up probes.
``--trace 1`` makes one untraced and one traced call and reports the
per-layer metrics from the traced call's spans (``traced_cli.py``); the
spans are written to ``perfbench/work/trace-<workload>-seed<N>.json``.

A line per metric, with its unit, is printed first, then the environment
(CPU count, Python and numpy versions, git sha, load average at start);
the last line of standard output is the JSON result.  Each run also writes
its checks, samples and environment to
``perfbench/work/result-<workload>-seed<N>-trace<T>.json``.  Failed operations are counted in its
``failed`` out of ``attempted``: one operation is one output check of a
``run`` call, or one criterion of ``validate`` matching its known state.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import gate
from spans import duration, nesting_violations, self_times

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")

SETUP_PROBES = 9
GRID_DT = 0.01  # grid step of both builtin scenarios
# A run must end within 180 s; calls still running at this point are killed.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    scenario: str  # builtin scenario of the set-up probe and the model floors
    methods: tuple[str, ...] = ()  # empty for ``validate``
    mc_paths: int | None = None
    n_steps: int = 0
    charts: tuple[str, ...] = ()


WORKLOADS = {
    "run-set1-mc": Workload(
        argv=("run", "--scenario", "builtin:set1", "--mc-paths", "1536"),
        scenario="set1",
        methods=("carleman", "ekf", "mc"),
        mc_paths=1536,
        n_steps=20000,
        charts=tuple(f"fig{n}{s}" for n in (1, 2, 3, 4) for s in "ab"),
    ),
    "run-set2-moments": Workload(
        argv=("run", "--scenario", "builtin:set2", "--methods", "carleman,ekf"),
        scenario="set2",
        methods=("carleman", "ekf"),
        n_steps=40000,
        charts=tuple(f"fig{n}{s}" for n in (5, 6, 7) for s in "ab"),
    ),
    "validate": Workload(argv=("validate",), scenario="set1"),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "experiments.run_scenario_self_s": "s",
    "experiments.emit_csv_s": "s",
    "experiments.csv_bytes": "bytes",
    "experiments.emit_charts_s": "s",
    "experiments.svg_bytes": "bytes",
    "experiments.max_field_diff": "abs",
    "montecarlo.ensemble_s": "s",
    "montecarlo.ns_per_path_step": "ns",
    "montecarlo.path_steps": "count",
    "montecarlo.rng_draw_s": "s",
    "montecarlo.true_path_s": "s",
    "montecarlo.shared_noise_s": "s",
    "montecarlo.em_reference_s": "s",
    "moments.physical_path_s": "s",
    "moments.physical_us_per_step": "us",
    "moments.augmented_path_s": "s",
    "moments.augmented_us_per_step": "us",
    "moments.crosscheck_s": "s",
    "moments.integrate_s": "s",
    "ekf.predict_path_s": "s",
    "ekf.us_per_step": "us",
    "model.drift_us": "us",
    "model.jacobian_us": "us",
    "carleman.build_s": "s",
    "svgchart.line_chart_s": "s",
    **{f"validation.check_{n:02d}_s": "s" for n in range(1, gate.N_CRITERIA + 1)},
    "validation.checks_failed": "count",
    "validation.tmp_dirs_leaked": "count",
    "trace.overhead_s": "s",
}


def command(workload: Workload, seed: int, out_dir: str) -> list[str]:
    """CLI arguments of one call; the seed reaches the program only here."""
    if not workload.methods:
        return list(workload.argv)
    return [*workload.argv, "--seed", str(seed), "--out", out_dir]


@dataclass
class Call:
    wall_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: str
    tmp_leaked: int


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0:
            raise TimeoutError("benchmark run exceeded its deadline")
        return left


def _child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    env["TMPDIR"] = tmp
    return env


def _reap(proc: subprocess.Popen, timeout: float):
    """Wait for ``proc``, killing it at ``timeout``; return (status, rusage)."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def invoke(argv: list[str], call_dir: str, deadline: Deadline) -> Call:
    """Run one program call in ``call_dir`` with its own TMPDIR."""
    tmp = os.path.join(call_dir, "tmp")
    os.makedirs(tmp)
    out_path = os.path.join(call_dir, "stdout.txt")
    with open(out_path, "wb") as out, open(os.path.join(call_dir, "stderr.txt"), "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=_child_env(tmp), stdout=out, stderr=err)
        try:
            code, usage = _reap(proc, deadline.left())
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    return Call(wall_s=wall, peak_rss_mb=usage.ru_maxrss / 1024.0, exit_code=code, stdout=stdout,
                tmp_leaked=len(os.listdir(tmp)))


def setup_probe(scenario: str, call_dir: str, deadline: Deadline) -> float:
    """Seconds from process start until the package is imported and the
    scenario and its system are built."""
    tmp = os.path.join(call_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "setup_probe.py"), scenario], cwd=ROOT,
                            env=_child_env(tmp), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.close()
        code, _ = _reap(proc, deadline.left())
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit code {code})")
    return elapsed


def _guarded(name, fn, *args):
    try:
        return fn(*args)
    except gate.READ_ERRORS as exc:
        return name, False, f"{type(exc).__name__}: {exc}"


def check_call(workload: Workload, call: Call, out_dir: str, seed: int) -> tuple[list, float, int]:
    """Output checks of one call: (checks, max seed-free field difference,
    number of failed criteria)."""
    if not workload.methods:
        checks, failed = gate.check_validate(call.stdout, call.exit_code)
        return checks, 0.0, failed
    checks = [("exit code 0", call.exit_code == 0, f"exit code {call.exit_code}")]
    try:
        ref_checks, max_diff = gate.check_reference(out_dir, workload.scenario)
    except gate.READ_ERRORS as exc:
        ref_checks, max_diff = [("reference tables", False, f"{type(exc).__name__}: {exc}")], float("inf")
    checks += ref_checks
    checks.append(_guarded("report.json", gate.check_report, out_dir, seed, workload.methods, workload.mc_paths))
    checks.append(_guarded("trajectories", gate.check_trajectories, out_dir, GRID_DT, workload.n_steps))
    if workload.mc_paths:
        checks.append(_guarded("mc statistics", gate.check_mc_statistics, out_dir))
    checks.append(_guarded("charts", gate.check_charts, out_dir, workload.charts))
    return checks, max_diff, 0


class Runner:
    """One benchmark run: calls, their checks, and what they measured."""

    def __init__(self, workload: Workload, seed: int, run_dir: str):
        self.workload, self.seed, self.run_dir = workload, seed, run_dir
        self.deadline = Deadline(RUN_DEADLINE_S)
        self.checks: list = []
        self.max_field_diff = 0.0
        self.criteria_failed = 0
        self._n = 0

    def _call_dir(self) -> str:
        self._n += 1
        path = os.path.join(self.run_dir, f"call{self._n}")
        os.makedirs(path)
        return path

    def call(self, traced_spans: str | None = None) -> Call:
        call_dir = self._call_dir()
        out_dir = os.path.join(call_dir, "out")
        cli_args = command(self.workload, self.seed, out_dir)
        if traced_spans:
            argv = [os.path.join(HERE, "traced_cli.py"), traced_spans, self.workload.scenario, "--", *cli_args]
        else:
            argv = ["-m", "vdvcarleman", *cli_args]
        result = invoke(argv, call_dir, self.deadline)
        checks, diff, failed = check_call(self.workload, result, out_dir, self.seed)
        self.checks += checks
        self.max_field_diff = max(self.max_field_diff, diff)
        self.criteria_failed = failed
        shutil.rmtree(call_dir)
        return result

    def setup_times(self) -> list[float]:
        call_dir = self._call_dir()
        setup_probe(self.workload.scenario, call_dir, self.deadline)  # warm: byte-code caches
        times = [setup_probe(self.workload.scenario, call_dir, self.deadline) for _ in range(SETUP_PROBES)]
        shutil.rmtree(call_dir)
        return times

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        setup = self.setup_times()
        calls: list[Call] = []
        while not calls or sum(c.wall_s for c in calls) + calls[-1].wall_s <= seconds:
            calls.append(self.call())
        samples = {"wall_s": [c.wall_s for c in calls], "setup_s": setup,
                   "peak_rss_mb": [c.peak_rss_mb for c in calls]}
        return {name: statistics.median(values) for name, values in samples.items()}, samples

    def per_layer(self) -> tuple[dict, dict]:
        plain = self.call()
        spans_path = os.path.join(self.run_dir, "spans.json")
        traced = self.call(traced_spans=spans_path)
        with open(spans_path, encoding="utf-8") as fh:
            trace = json.load(fh)
        bad = nesting_violations(trace["spans"])
        self.checks.append(("child self times within parent spans", not bad, "; ".join(bad[:3])))
        metrics = layer_metrics(trace["spans"], trace["floors"])
        metrics["experiments.max_field_diff"] = self.max_field_diff
        metrics["validation.checks_failed"] = self.criteria_failed
        metrics["validation.tmp_dirs_leaked"] = plain.tmp_leaked
        metrics["trace.overhead_s"] = traced.wall_s - trace["post_main_s"] - plain.wall_s
        trace["untraced_wall_s"] = plain.wall_s
        trace["traced_wall_s"] = traced.wall_s
        return metrics, trace


def layer_metrics(spans: list[dict], floors: dict) -> dict:
    """Per-layer metrics from the spans of one traced call."""
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def parent(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    def named(name, where=lambda s: True):
        return [s for s in spans if s["name"] == name and where(s)]

    def total(name, where=lambda s: True):
        return sum(duration(s) for s in named(name, where))

    def attr(name, key):
        return sum(s["attrs"].get(key, 0) for s in named(name))

    def per_step(name, scale):
        steps = attr(name, "steps")
        return total(name) / steps * scale if steps else 0.0

    ensembles = named("montecarlo.ensemble_moments")
    path_steps = sum(s["attrs"]["paths"] * s["attrs"]["steps"] for s in ensembles)
    ensemble_s = total("montecarlo.ensemble_moments")
    # RK4 paths that the moment and EKF layers run themselves are counted
    # under their own metrics; integrate_s is the mean RK4 called directly.
    inner = {"moments.integrate_physical", "moments.integrate_augmented", "moments.crosscheck_mean_paths",
             "ekf.ekf_predict"}
    m = {
        "experiments.run_scenario_self_s": sum(own[s["id"]] for s in named("experiments.run_scenario")),
        "experiments.emit_csv_s": total("experiments.emit_csv"),
        "experiments.csv_bytes": attr("experiments.emit_csv", "bytes"),
        "experiments.emit_charts_s": total("experiments.emit_charts"),
        "experiments.svg_bytes": attr("experiments.emit_charts", "bytes"),
        "montecarlo.ensemble_s": ensemble_s,
        "montecarlo.ns_per_path_step": ensemble_s / path_steps * 1e9 if path_steps else 0.0,
        "montecarlo.path_steps": path_steps,
        "montecarlo.rng_draw_s": floors["rng_draw_s"],
        "montecarlo.true_path_s": total("montecarlo.simulate_path",
                                        lambda s: parent(s) != "montecarlo.simulate_shared_noise"),
        "montecarlo.shared_noise_s": total("montecarlo.simulate_shared_noise"),
        "montecarlo.em_reference_s": total("montecarlo.em_mean_reference"),
        "moments.physical_path_s": total("moments.integrate_physical"),
        "moments.physical_us_per_step": per_step("moments.integrate_physical", 1e6),
        "moments.augmented_path_s": total("moments.integrate_augmented"),
        "moments.augmented_us_per_step": per_step("moments.integrate_augmented", 1e6),
        "moments.crosscheck_s": total("moments.crosscheck_mean_paths"),
        "moments.integrate_s": total("moments.integrate", lambda s: parent(s) not in inner),
        "ekf.predict_path_s": total("ekf.ekf_predict"),
        "ekf.us_per_step": per_step("ekf.ekf_predict", 1e6),
        "model.drift_us": floors["drift_us"],
        "model.jacobian_us": floors["jacobian_us"],
        "carleman.build_s": total("carleman.build_vandevusse"),
        "svgchart.line_chart_s": total("svgchart.line_chart"),
    }
    for n in range(1, gate.N_CRITERIA + 1):
        m[f"validation.check_{n:02d}_s"] = total(f"validation.check_{n:02d}")
    return m


def git_sha(root: str) -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    # numpy's version is read in a child: importing it here would raise this
    # process's memory, which every call it spawns inherits as a floor of
    # its peak RSS.
    numpy_version = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                                   capture_output=True, text=True, timeout=60, check=True).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(ROOT),
        "loadavg_start": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "vdvcarleman", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    run_dir = os.path.join(WORK, f"calls-{args.workload}-{os.getpid()}")
    os.makedirs(run_dir)
    runner = Runner(WORKLOADS[args.workload], args.seed, run_dir)
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, trace = runner.per_layer()
            units = PER_LAYER
            trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_path, "w", encoding="utf-8") as fh:
                json.dump({"env": env, "workload": args.workload, "seed": args.seed, "metrics": metrics, **trace}, fh)
            detail = {"trace_file": os.path.relpath(trace_path, ROOT)}
        else:
            metrics, detail = runner.end_to_end(args.seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = [c for c in runner.checks if not c[1]]
    result = {
        "correct": not failed,
        "attempted": len(runner.checks),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(os.path.join(WORK, f"result-{label}.json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed, "detail": detail,
                   "checks": runner.checks, **result}, fh, indent=1)
    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]!r} {unit}")
    for name, _, why in failed:
        print(f"FAILED CHECK {name}: {why}")
    print("env " + json.dumps(env))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
