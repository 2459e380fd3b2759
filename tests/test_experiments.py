import filecmp
import json
import logging
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest

from dataclasses import asdict, replace

from hypothesis import given, settings
from hypothesis import strategies as st

import vdvcarleman
from vdvcarleman import cli, experiments, montecarlo, svgchart
from vdvcarleman.experiments import (
    ComparisonReport,
    Scenario,
    builtin_scenario,
    emit_charts,
    emit_csv,
    emit_summary,
    emit_trajectories,
    load_scenario,
    run_scenario,
)
from vdvcarleman.carleman import build_vandevusse, point_lift
from vdvcarleman.model import PARAM_SET1, PhysicalState, ReactorParams
from vdvcarleman.moments import IntegrationError, augmented_mean_path, grid_index, grid_steps
from vdvcarleman.montecarlo import PathConfig

from test_moments import bits
from test_montecarlo import _assert_reaped, _recording_fork, ensemble_stats


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(n)`` makes ``run`` see ``n`` CPUs, the process count it forks by."""
    return lambda n: monkeypatch.setattr(cli, "_usable_cpus", lambda: n)


def small_scenario(**overrides):
    base = replace(
        builtin_scenario("set1"),
        t_end=5.0,
        checkpoints=(0.5, 5.0),
        mc_paths=60,
    )
    return replace(base, **overrides) if overrides else base


def test_builtin_scenarios_roundtrip_json(tmp_path):
    for name in ("set1", "set2"):
        s = builtin_scenario(name)
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(s.to_dict()))
        assert load_scenario(str(path)) == s
    assert load_scenario("builtin:set2") == builtin_scenario("set2")
    with pytest.raises(KeyError):
        builtin_scenario("set3")


def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(checkpoints=(0.503,))  # off the dt grid: no interpolation
    with pytest.raises(ValueError):
        small_scenario(checkpoints=(6.0,))  # beyond t_end
    with pytest.raises(ValueError, match=r"^checkpoint 3e-10 beyond t_end=2e-10$"):
        small_scenario(dt=1e-10, t_end=2e-10, checkpoints=(3e-10,))  # one step beyond, at a tiny dt
    with pytest.raises(ValueError):
        small_scenario(mc_paths=1)
    with pytest.raises(ValueError, match="seed"):
        small_scenario(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        Scenario.from_dict({**small_scenario().to_dict(), "seed": -1})


def test_overrides_drop_a_checkpoint_one_step_past_t_end():
    s = small_scenario(dt=1e-10, t_end=4e-10, checkpoints=(2e-10, 3e-10))
    args = cli._build_parser().parse_args(["run", "--t-end", "2e-10", "--out", "unused"])
    assert cli._apply_overrides(s, args).checkpoints == (2e-10,)


_MUST_BE = {
    "name": "a string",
    "seed": "an integer",
    "mc_paths": "an integer",
    "dt": "a finite real number",
    "t_end": "a finite real number",
    "checkpoints": "a list of finite real numbers",
}


@pytest.mark.parametrize("field, value", [
    ("seed", 1.5), ("seed", 4.9), ("seed", 4.0), ("seed", True), ("seed", "4"),
    ("mc_paths", 2.5), ("mc_paths", 2500.7), ("mc_paths", 2500.0), ("mc_paths", False), ("mc_paths", None),
    ("dt", None), ("dt", "abc"), ("dt", "0.01"), ("dt", True), ("dt", float("inf")),
    ("t_end", None), ("t_end", "5.0"), ("t_end", False), ("t_end", float("nan")),
    ("checkpoints", 5.0), ("checkpoints", ["a"]), ("checkpoints", "0.5"), ("checkpoints", [0.5, True]),
    ("checkpoints", [float("nan")]), ("checkpoints", {"0.5": 1}),
    ("name", None), ("name", 5), ("name", ["a"]),
])
def test_scenario_rejects_non_integer_seed_and_paths(field, value):
    # from_dict passes the JSON value through: no silent truncation or
    # conversion.  The grid fields share the table with the integer counts.
    want = rf"^{field} must be {_MUST_BE[field]}, got "
    with pytest.raises(ValueError, match=want):
        small_scenario(**{field: value})
    with pytest.raises(ValueError, match=want):
        Scenario.from_dict({**small_scenario().to_dict(), field: value})


def test_scenario_stores_checkpoints_as_floats(tmp_path):
    # As dt and t_end: an int-spelled checkpoint is the same time, and
    # report.json names it as the float it is.
    s = Scenario.from_dict({**small_scenario().to_dict(), "t_end": 2, "checkpoints": [1, 2.0]})
    assert s.checkpoints == (1.0, 2.0) and all(type(c) is float for c in s.checkpoints)
    assert s.to_dict()["checkpoints"] == [1.0, 2.0] and s.to_dict()["t_end"] == 2.0
    assert s == small_scenario(t_end=2.0, checkpoints=(1.0, 2.0))
    experiments.emit_summary(run_scenario(s, ("carleman",)), str(tmp_path))
    meta = json.loads((tmp_path / "report.json").read_text())
    assert list(meta["psd_min_eig_at_checkpoints"]["carleman"]) == ["1.0", "2.0"]
    assert all(type(c) is float for c in meta["scenario"]["checkpoints"])


def test_scenario_normalizes_numpy_integers():
    s = small_scenario(seed=np.int64(7), mc_paths=np.uint16(300))
    assert (s.seed, s.mc_paths) == (7, 300)
    assert type(s.seed) is int and type(s.mc_paths) is int
    assert json.loads(json.dumps(s.to_dict()))["mc_paths"] == 300


@pytest.mark.parametrize(
    "p0_diag",
    [
        (-1.0, 1.0, 0.01),
        (1.0, float("nan"), 0.01),
        (1.0, 1.0, float("inf")),
        (1.0, 1.0),
        (1.0, 1.0, 0.01, 1.0),
        ("1", 1.0, 0.01),
        1.0,
        (1.0, True, 0.01),
    ],
)
def test_scenario_rejects_bad_p0_diag(p0_diag):
    with pytest.raises(ValueError, match="p0_diag"):
        small_scenario(p0_diag=p0_diag)
    with pytest.raises(ValueError, match="p0_diag"):
        Scenario.from_dict({**small_scenario().to_dict(), "p0_diag": p0_diag})


@pytest.mark.parametrize("field, value, want", [
    ("params", asdict(PARAM_SET1), "a ReactorParams, got dict"),
    ("params", None, "a ReactorParams, got NoneType"),
    ("x0", [3.0, 1.12, 0.0095], "a PhysicalState, got list"),
    ("x0", np.array([3.0, 1.12, 0.0095]), "a PhysicalState, got ndarray"),
])
def test_scenario_rejects_params_and_x0_of_another_type(field, value, want):
    # Caught here, not as an AttributeError deep inside run_scenario.
    with pytest.raises(ValueError, match=rf"^{field} must be {want}$"):
        small_scenario(**{field: value})


def test_scenario_accepts_zero_p0_diag_as_tuple():
    s = small_scenario(p0_diag=[0.0, 0, 0.5])
    assert s.p0_diag == (0.0, 0, 0.5)


def test_from_dict_names_missing_and_unknown_keys():
    d = small_scenario().to_dict()
    with pytest.raises(ValueError, match="missing keys: params"):
        Scenario.from_dict({k: v for k, v in d.items() if k != "params"})
    with pytest.raises(ValueError, match="missing keys: dt, seed"):
        Scenario.from_dict({k: v for k, v in d.items() if k not in ("dt", "seed")})
    with pytest.raises(ValueError, match="unknown keys: mc_path"):
        Scenario.from_dict({**d, "mc_path": 5})
    with pytest.raises(ValueError, match="params has unknown keys: kk"):
        Scenario.from_dict({**d, "params": {**d["params"], "kk": 1.0}})
    with pytest.raises(ValueError, match="params is missing keys: beta"):
        Scenario.from_dict({**d, "params": {k: v for k, v in d["params"].items() if k != "beta"}})
    with pytest.raises(ValueError, match="params must be a JSON object"):
        Scenario.from_dict({**d, "params": [1.0, 2.0]})


@pytest.mark.parametrize("x0", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], ["a", "b", "c"], [1.0, None, 3.0],
                                [1.0, float("nan"), 3.0], 5.0, "abc", [1.0, True, 3.0]])
def test_from_dict_rejects_bad_x0(x0):
    with pytest.raises(ValueError, match="x0 must be three finite numbers"):
        Scenario.from_dict({**small_scenario().to_dict(), "x0": x0})


def test_from_dict_names_a_bad_param_field():
    d = small_scenario().to_dict()
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        Scenario.from_dict({**d, "params": {**d["params"], "alpha": float("nan")}})
    with pytest.raises(ValueError, match="caf must be nonnegative"):
        Scenario.from_dict({**d, "params": {**d["params"], "caf": -1.0}})
    # A JSON true is not the rate constant 1.
    with pytest.raises(ValueError, match="k1 must be a finite number, got True"):
        Scenario.from_dict({**d, "params": {**d["params"], "k1": True}})


_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-6, max_value=1e6)
_nonnegative = st.floats(min_value=0.0, max_value=1e6)


@st.composite
def scenarios(draw):
    dt = draw(st.floats(min_value=1e-4, max_value=1.0))
    n_steps = draw(st.integers(min_value=0, max_value=10_000))
    ks = draw(st.lists(st.integers(min_value=0, max_value=n_steps), max_size=8))
    return Scenario(
        name=draw(st.text(max_size=12)),
        params=ReactorParams(
            k1=draw(_positive), k2=draw(_positive), k3=draw(_positive), caf=draw(_nonnegative),
            v=draw(_positive), alpha=draw(_positive), beta=draw(_nonnegative),
        ),
        x0=PhysicalState(draw(_finite), draw(_finite), draw(_finite)),
        p0_diag=(draw(_nonnegative), draw(_nonnegative), draw(_nonnegative)),
        dt=dt,
        t_end=n_steps * dt,
        checkpoints=tuple(k * dt for k in ks),
        seed=draw(st.integers(min_value=0, max_value=2**63 - 1)),
        mc_paths=draw(st.integers(min_value=2, max_value=10**6)),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_scenario_json_roundtrip_property(s):
    assert Scenario.from_dict(json.loads(json.dumps(s.to_dict()))) == s


def test_worker_count_below_one_is_rejected_before_any_work(monkeypatch):
    # The CLI's own check is a usage error (test_a_configuration_error_is_a_one_line_usage_error).
    def no_work(*args, **kwargs):
        raise AssertionError("run_scenario started work")

    monkeypatch.setattr(experiments, "simulate_path", no_work)
    for methods in (("carleman",), ("carleman", "ekf", "mc")):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="n_workers"):
                run_scenario(small_scenario(), methods=methods, mc_workers=bad)


@pytest.mark.parametrize("methods", [("carleman",), ("carleman", "mc")], ids=["no-mc", "mc"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
def test_worker_count_must_be_an_integer_before_any_work(monkeypatch, methods, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("run_scenario started work")

    monkeypatch.setattr(experiments, "simulate_path", no_work)
    with pytest.raises(ValueError, match=r"^mc_workers must be an integer"):
        run_scenario(small_scenario(), methods=methods, mc_workers=bad)


def test_run_defaults_to_one_worker_per_usable_cpu(tmp_path, capsys, monkeypatch, usable_cpus):
    # The count is read as `run` runs, and no option sets it.
    asked, scenario_run = [], cli.scenario_run

    def recorded(scenario, methods, mc_workers):
        asked.append(mc_workers)
        return scenario_run(scenario, methods, mc_workers)

    monkeypatch.setattr(cli, "scenario_run", recorded)
    argv = ["run", "--methods", "", "--out", str(tmp_path)]
    cli.main(argv)
    usable_cpus(3)
    cli.main(argv)
    assert asked == [len(os.sched_getaffinity(0)), 3]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exited:
        cli.main([*argv, "--mc-workers", "2"])
    assert exited.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith("error: unrecognized arguments: --mc-workers 2")


def test_run_with_the_default_workers_writes_the_bytes_of_one_worker(tmp_path, capsys, monkeypatch, usable_cpus):
    # 600 paths allow three ranges, so two usable CPUs fork two ranges;
    # the EKF is forked with or without them, and nothing else is.
    pids = _recording_fork(monkeypatch)
    for methods in ("carleman,ekf,mc", "carleman,ekf"):
        for charts in (False, True):
            case = tmp_path / f"{methods}-{charts}"
            argv = ["run", "--t-end", "5", "--mc-paths", "600", "--seed", "4", "--methods", methods,
                    *([] if charts else ["--no-charts"])]
            mc = methods.endswith(",mc")
            del pids[:]
            usable_cpus(2)
            cli.main([*argv, "--out", str(case / "default")])
            assert len(pids) == 2 * mc + 1
            printed = capsys.readouterr().out
            usable_cpus(1)
            cli.main([*argv, "--out", str(case / "one")])
            assert len(pids) == 2 * mc + 1
            assert capsys.readouterr().out == printed.replace(str(case / "default"), str(case / "one"))
            names = sorted(os.listdir(case / "one"))
            assert names == sorted(os.listdir(case / "default"))
            assert len(names) == 4 + charts * (8 if mc else 6)
            match, mismatch, errors = filecmp.cmpfiles(case / "default", case / "one", names, shallow=False)
            assert match == names and not mismatch and not errors


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_logs_the_ekf_wall_time_once(tmp_path, caplog, usable_cpus, cpus):
    usable_cpus(cpus)
    with caplog.at_level(logging.INFO, logger="vdvcarleman.experiments"):
        cli.main(["run", "--t-end", "1", "--methods", "carleman,ekf", "--no-charts", "--out", str(tmp_path)])
    times = [re.fullmatch(rf"ekf \(scenario set1, mc_workers {cpus}\) ran in ([0-9.]+) s", r.message)
             for r in caplog.records]
    assert len([m for m in times if m]) == 1


@pytest.mark.parametrize("workers", [1, 2])
def test_the_ekf_time_names_the_scenario_and_the_process_count(caplog, workers):
    # Criterion 10 runs one scenario at 1 and at 4 workers: its two lines must differ.
    with caplog.at_level(logging.INFO, logger="vdvcarleman.experiments"):
        run_scenario(small_scenario(name="tagged", t_end=1.0, checkpoints=(0.5,)), ("ekf",), mc_workers=workers)
    lines = [r.message for r in caplog.records if " ran in " in r.message]
    assert len(lines) == 1
    assert re.fullmatch(rf"ekf \(scenario tagged, mc_workers {workers}\) ran in [0-9.]+ s", lines[0])


@pytest.mark.parametrize("command", [["dump-scenario", "set1"], ["run", "--methods", ""]], ids=["dump", "run"])
def test_a_reader_gone_from_stdout_ends_the_call_with_status_1_and_no_traceback(tmp_path, command):
    # The read end of the pipe is closed before the call writes, so its every write fails.
    src = os.path.dirname(os.path.dirname(vdvcarleman.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path / "out"
    argv = [sys.executable, "-m", "vdvcarleman", *command, *(["--out", str(out)] if command[0] == "run" else [])]
    r, w = os.pipe()
    os.close(r)
    try:
        done = subprocess.run(argv, stdout=w, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(w)
    err = done.stderr.decode()
    assert done.returncode == 1 and "Traceback" not in err and "Exception ignored" not in err
    if command[0] == "run":  # the paths are printed once the files are complete
        assert sorted(os.listdir(out)) == ["checkpoints.csv", "mc_validation.csv", "report.json", "trajectories.csv"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_whose_ensemble_fails_leaves_none_of_its_files(tmp_path, monkeypatch, usable_cpus, workers):
    # Every range reports a blow-up once the files that need no ensemble
    # statistics are written; the run fails as the mc method, and removes
    # them but nothing else.
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("kept")
    written = []

    def emitted(emit):
        def call(report, out_dir):
            paths = emit(report, out_dir)
            assert paths and all(os.path.exists(p) for p in paths)
            written.extend(paths)
            return paths

        return call

    monkeypatch.setattr(cli, "emit_trajectories", emitted(cli.emit_trajectories))
    monkeypatch.setattr(cli, "emit_charts", emitted(cli.emit_charts))
    monkeypatch.setattr(montecarlo, "_lockstep", lambda *args: (3, 7))
    usable_cpus(workers)
    argv = ["run", "--t-end", "1", "--mc-paths", "600", "--out", str(out)]
    with pytest.raises(RuntimeError, match=r"^method 'mc' failed: path 7 non-finite at step 3 \(t=0\.03\)$"):
        cli.main(argv)
    assert len(written) == 2 + 8
    assert os.listdir(out) == ["earlier.txt"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_whose_chart_rendering_fails_leaves_none_of_its_files(tmp_path, monkeypatch, usable_cpus, workers):
    # The caller draws the charts after the CSV writes: the chart's own error
    # comes through whatever the worker count, and the CSVs are removed.
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("kept")
    written = []

    def emitted(report, out_dir):
        paths = emit_trajectories(report, out_dir)
        written.extend(paths)
        return paths

    def broken(*args):
        raise ValueError("no chart today")

    monkeypatch.setattr(cli, "emit_trajectories", emitted)
    monkeypatch.setattr(svgchart, "line_chart", broken)
    pids = _recording_fork(monkeypatch)
    usable_cpus(workers)
    argv = ["run", "--t-end", "1", "--methods", "carleman,ekf", "--out", str(out)]
    with pytest.raises(ValueError, match="^no chart today$"):
        cli.main(argv)
    if workers == 1:
        assert not pids
    else:
        assert len(pids) == 1  # the EKF
        _assert_reaped(pids)
    assert len(written) == 2
    assert os.listdir(out) == ["earlier.txt"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("blocked", ["checkpoints.csv", "fig2b.svg", "report.json"])
def test_a_file_that_cannot_be_opened_leaves_none_of_the_run_files(tmp_path, usable_cpus, workers, blocked):
    # A directory stands where the run writes ``blocked``: the files written
    # before it, in the same emitting call or earlier, are all removed.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    (out / "earlier.txt").write_text("kept")
    usable_cpus(workers)
    argv = ["run", "--methods", "carleman,ekf", "--t-end", "10", "--out", str(out)]
    with pytest.raises(IsADirectoryError):
        cli.main(argv)
    assert sorted(os.listdir(out)) == sorted([blocked, "earlier.txt"])
    assert (out / "earlier.txt").read_text() == "kept" and not os.listdir(out / blocked)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_csv_failure_beside_the_chart_child_leaves_none_of_its_files(tmp_path, monkeypatch, usable_cpus, workers):
    # The CSV write fails in the caller once the EKF child is reaped: no
    # chart is written, and nothing else was forked.
    out = tmp_path / "out"
    out.mkdir()
    (out / "earlier.txt").write_text("kept")

    def full_disk(report, out_dir):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "emit_trajectories", full_disk)
    pids = _recording_fork(monkeypatch)
    usable_cpus(workers)
    argv = ["run", "--t-end", "1", "--methods", "carleman,ekf", "--out", str(out)]
    with pytest.raises(OSError, match="No space left on device"):
        cli.main(argv)
    if workers == 1:
        assert not pids
    else:
        assert len(pids) == 1  # the EKF
        _assert_reaped(pids)
    assert os.listdir(out) == ["earlier.txt"]


@pytest.mark.parametrize("methods", ["carleman,ekf,mc", "carleman,ekf", "carleman,mc", "ekf,mc", "carleman", "ekf",
                                     "mc", ""])
def test_every_method_subset_writes_its_files_and_prints_them_in_order(tmp_path, capsys, methods):
    # The run writes what needs no ensemble statistics while the ensemble
    # runs, and the rest after it: the same files, bytes and printed order
    # as the library writers called one after another.
    argv = ["run", "--t-end", "2", "--mc-paths", "600", "--seed", "5", "--methods", methods]
    cli.main([*argv, "--out", str(tmp_path / "cli")])
    printed = capsys.readouterr().out.splitlines()
    chosen = tuple(m for m in methods.split(",") if m)
    figs = [1] * ("mc" in chosen) + [2, 3, 4] * ({"carleman", "ekf"} <= set(chosen))
    names = ["trajectories.csv", "checkpoints.csv", "mc_validation.csv", "report.json",
             *(f"fig{n}{s}.svg" for s in "ab" for n in figs)]
    assert printed == [str(tmp_path / "cli" / name) for name in names]
    assert sorted(os.listdir(tmp_path / "cli")) == sorted(names)
    args = cli._build_parser().parse_args([*argv, "--out", str(tmp_path / "lib")])
    report = run_scenario(cli._apply_overrides(builtin_scenario("set1"), args), chosen, mc_workers=2)
    emit_csv(report, str(tmp_path / "lib"))
    emit_charts(report, str(tmp_path / "lib"))
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "cli", tmp_path / "lib", names, shallow=False)
    assert match == names and not mismatch and not errors


def test_worker_count_accepts_numpy_integers():
    s = small_scenario(t_end=1.0, checkpoints=(1.0,), mc_paths=8)
    assert run_scenario(s, ("carleman",), mc_workers=np.int64(2)).carleman is not None
    got = run_scenario(s, ("mc",), mc_workers=np.int64(2)).mc
    want = run_scenario(s, ("mc",), mc_workers=1).mc
    assert list(got) == list(want) == list(experiments._MC_COLUMNS)
    assert all(np.array_equal(got[key], want[key]) for key in want)


def overridden(argv):
    """The builtin set1 scenario with the overrides of ``run`` ``argv``: what the CLI runs."""
    return cli._apply_overrides(builtin_scenario("set1"), cli._build_parser().parse_args(["run", *argv]))


@pytest.mark.parametrize("call", [
    lambda out: grid_steps(1e-320, 400.0),
    lambda out: grid_index(1e-320, 5.0),
    lambda out: grid_steps(0.01, 1e300),
    lambda out: PathConfig(dt=1e-320, t_end=400.0, seed=0),
    lambda out: small_scenario(dt=1e-320),
    lambda out: small_scenario(t_end=1e300),
    lambda out: overridden(["--dt", "1e-320", "--out", out]),
    lambda out: overridden(["--dt", "1e-320", "--t-end", "0", "--out", out]),  # a checkpoint overflows
    lambda out: overridden(["--t-end", "1e300", "--out", out]),
], ids=["grid_steps", "grid_index", "grid_steps_long", "path_config", "scenario", "scenario_long",
        "cli_dt", "cli_dt_t_end_0", "cli_t_end"])
def test_a_step_count_beyond_any_array_index_is_a_value_error(tmp_path, call):
    with pytest.raises(ValueError, match=r"^time \S+ is \S+ steps of dt=\S+, more than a grid can index$"):
        call(str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_grid_index_counts_up_to_the_largest_array_index():
    top = float(np.iinfo(np.intp).max)  # rounds up, one past the largest index
    below = np.nextafter(top, 0.0)
    assert grid_index(1.0, below) == grid_steps(1.0, below) == int(below)
    for time in (top, np.float64(top)):
        with pytest.raises(ValueError, match="more than a grid can index"):
            grid_index(1.0, time)


def test_run_scenario_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown"):
        run_scenario(small_scenario(), methods=("kalman",))


def off_grid_scenario(tmp_path):
    """A scenario file whose checkpoint 0.7 is off the grid of --dt 0.2."""
    path = tmp_path / "custom.json"
    path.write_text(json.dumps(small_scenario(checkpoints=(0.7,)).to_dict()))
    return ["run", "--scenario", str(path), "--dt", "0.2", "--t-end", "0.4"]


def out_is_a_file(command):
    """The ``command`` arguments, with a regular file where its --out directory goes."""
    def argv(tmp_path):
        (tmp_path / "out").write_text("kept")
        return [command]

    return argv


def overflowing_scenario(command, field, value, *extra):
    """The ``command`` arguments on a scenario file whose finite ``params.<field>`` overflows the embedded system."""
    def argv(tmp_path):
        d = small_scenario().to_dict()
        d["params"][field] = value
        (tmp_path / "overflow.json").write_text(json.dumps(d))
        return [command, "--scenario", str(tmp_path / "overflow.json"), *extra]

    return argv


def _tree(root):
    """Every path under ``root``, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize("argv, message", [
    (lambda tmp: ["run", "--dt", "1e-320"], "time 200.0 is inf steps of dt=1e-320, more than a grid can index"),
    (lambda tmp: ["run", "--methods", "carleman,bogus"], "unknown methods: bogus (choose from carleman, ekf, mc)"),
    (lambda tmp: ["run", "--scenario", "builtin:set3"], "unknown builtin scenario 'set3'"),
    (lambda tmp: ["matrices", "--scenario", "builtin:set3"], "unknown builtin scenario 'set3'"),
    (lambda tmp: ["run", "--scenario", str(tmp / "missing.json")], "No such file or directory"),
    (off_grid_scenario, "time 0.7 is not on the dt=0.2 grid"),
    (out_is_a_file("run"), "out exists and is not a directory"),
    (out_is_a_file("matrices"), "out exists and is not a directory"),
    # beta^2 and 1/v are inf: entries of a0 and of a.
    (overflowing_scenario("run", "beta", 1e160), "params overflow the embedded system: non-finite entries in a0"),
    (overflowing_scenario("run", "v", 1e-310), "params overflow the embedded system: non-finite entries in a"),
    (overflowing_scenario("run", "beta", 1e160, "--methods", ""), "params overflow the embedded system"),
    (overflowing_scenario("matrices", "beta", 1e160), "params overflow the embedded system: non-finite entries in a0"),
    (overflowing_scenario("matrices", "v", 1e-310), "params overflow the embedded system: non-finite entries in a"),
], ids=["dt", "methods", "builtin", "matrices_builtin", "missing_file", "off_grid_checkpoint", "out_is_a_file",
        "matrices_out_is_a_file", "params_beta", "params_v", "params_beta_no_methods", "matrices_params_beta",
        "matrices_params_v"])
def test_a_configuration_error_is_a_one_line_usage_error(tmp_path, capsys, monkeypatch, argv, message):
    argv = argv(tmp_path)
    out = tmp_path / "out"
    before = _tree(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the usage error")

    monkeypatch.setattr(cli, "scenario_run", no_work)
    monkeypatch.setattr(cli, "write_blocks", no_work)
    pids = _recording_fork(monkeypatch)
    with pytest.raises(SystemExit) as exited:
        cli.main([*argv, "--out", str(out)])
    assert exited.value.code == 2 and not pids
    err = capsys.readouterr().err
    assert "Traceback" not in err
    last = err.splitlines()[-1]
    assert last.startswith(f"vdvcarleman {argv[0]}: error: ") and message in last
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("command", [
    ["run", "--t-end", "1", "--mc-paths", "600"],
    ["matrices"],
], ids=["run", "matrices"])
@pytest.mark.parametrize("out", ["file/sub", ""], ids=["under_a_file", "empty"])
def test_an_out_that_cannot_be_a_directory_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch,
                                                                           usable_cpus, command, out):
    usable_cpus(2)
    (tmp_path / "file").write_text("kept")
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the usage error")

    monkeypatch.setattr(experiments, "simulate_path", no_work)
    monkeypatch.setattr(cli, "write_blocks", no_work)
    pids = _recording_fork(monkeypatch)
    with pytest.raises(SystemExit) as exited:
        cli.main([*command, "--out", out])
    assert exited.value.code == 2 and not pids
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"vdvcarleman {command[0]}: error: argument --out: ")
    assert _tree(tmp_path) == before


def test_scenario_inputs_are_held_as_python_floats(tmp_path):
    k1 = np.float32(PARAM_SET1.k1)
    s = replace(small_scenario(), params=ReactorParams(**{**asdict(PARAM_SET1), "k1": k1, "v": 10}),
                x0=PhysicalState(np.float32(3.0), 1, np.float64(0.009528)), p0_diag=(1, np.float32(1.0), 0.01))
    held = [*asdict(s.params).values(), *asdict(s.x0).values(), *s.p0_diag]
    assert all(type(v) is float for v in held)
    # The EKF steps in double precision, as from the float of k1.
    plain = replace(s, params=replace(PARAM_SET1, k1=float(k1)), x0=PhysicalState(3.0, 1.0, 0.009528))
    assert np.array_equal(run_scenario(s, ("ekf",)).ekf.mean, run_scenario(plain, ("ekf",)).ekf.mean)
    emit_summary(run_scenario(s, ()), str(tmp_path))
    echoed = json.loads((tmp_path / "report.json").read_text())["scenario"]
    assert type(echoed["params"]["v"]) is float and type(echoed["x0"][1]) is float
    assert echoed["params"]["k1"] == float(k1) and echoed["p0_diag"] == [1.0, 1.0, 0.01]


def test_a_scenario_derives_its_grid_and_system_outside_its_fields():
    s = small_scenario()
    assert s.n_steps == 500 and s.checkpoint_steps.dtype == np.intp and s.checkpoint_steps.tolist() == [50, 500]
    with pytest.raises(ValueError, match="read-only"):
        s.checkpoint_steps[0] = 0
    built = build_vandevusse(s.params)
    assert all(np.array_equal(getattr(s.system, f), getattr(built, f)) for f in ("a0", "a", "d", "g"))
    # Not fields: the echo and equality see only what the scenario was given, and replace derives anew.
    assert set(s.to_dict()) == {"name", "params", "x0", "p0_diag", "dt", "t_end", "checkpoints", "seed", "mc_paths"}
    coarse = replace(s, dt=0.5)
    assert coarse.n_steps == 10 and coarse.checkpoint_steps.tolist() == [1, 10] and coarse != s
    assert replace(coarse, dt=0.01) == s


def test_a_covariance_of_huge_finite_entries_reaches_the_methods(tmp_path, usable_cpus):
    # 1e308 + 1e308 overflows, so symmetrizing p0 as a sum ended both methods in a ValueError.
    d = small_scenario().to_dict()
    d["p0_diag"] = [1e308, 1.0, 0.01]
    (tmp_path / "huge.json").write_text(json.dumps(d))
    argv = ["run", "--scenario", str(tmp_path / "huge.json"), "--no-charts", "--out"]
    usable_cpus(2)  # the EKF runs in a child
    assert cli.main([*argv, str(tmp_path / "ekf"), "--methods", "ekf"]) == 0
    with pytest.raises(RuntimeError, match=r"^method 'carleman' failed: non-finite state at t=0\.01$"):
        cli.main([*argv, str(tmp_path / "carleman"), "--methods", "carleman"])


def test_a_run_of_no_method_builds_no_time_grid(tmp_path):
    # 10^14 steps: the grid alone would be 728 TiB.
    report = run_scenario(replace(builtin_scenario("set1"), t_end=1e12), ())
    assert report.t is None
    cli.main(["run", "--t-end", "1e12", "--methods", "", "--out", str(tmp_path)])
    for name, columns in (("trajectories.csv", experiments._TRAJ_COLUMNS),
                          ("checkpoints.csv", experiments._CKPT_COLUMNS),
                          ("mc_validation.csv", experiments._MC_COLUMNS)):
        assert (tmp_path / name).read_text() == ",".join(columns) + "\n"
    assert json.loads((tmp_path / "report.json").read_text())["grid"]["n_points"] == 10**14 + 1


def test_empty_method_set_gives_metadata_only_report(tmp_path):
    report = run_scenario(small_scenario(), methods=())
    assert report.true_path is None and report.carleman is None and report.ekf is None
    paths = emit_csv(report, str(tmp_path))
    assert (tmp_path / "checkpoints.csv").read_text().splitlines()[1:] == []
    for p in paths:
        name = p.rsplit("/", 1)[-1]
        if name.endswith(".csv"):
            lines = Path(p).read_text().splitlines()
            assert len(lines) == 1  # header only
    meta = json.loads((tmp_path / "report.json").read_text())
    assert meta["grid"]["n_points"] == 501
    assert meta["methods"] == []


def test_set1_checkpoint_anchor_and_row_count(tmp_path):
    report = run_scenario(builtin_scenario("set1"), methods=("carleman",))
    emit_csv(report, str(tmp_path))
    rows = (tmp_path / "checkpoints.csv").read_text().splitlines()
    table = {float(row.split(",")[0]): row.split(",") for row in rows[1:]}
    assert abs(float(table[0.5][1]) - 1.08) <= 0.02
    assert rows[0] == "t,carleman_P_x1,ekf_P_x1,carleman_P_x2,ekf_P_x2"
    assert len(rows) == 1 + 8
    # ekf columns are empty in a carleman-only run
    assert rows[1].split(",")[2] == ""


def test_set2_checkpoint_row_count(tmp_path):
    report = run_scenario(builtin_scenario("set2"), methods=("carleman",))
    emit_csv(report, str(tmp_path))
    rows = (tmp_path / "checkpoints.csv").read_text().splitlines()
    assert len(rows) == 1 + 10
    table = {float(row.split(",")[0]): row.split(",") for row in rows[1:]}
    assert float(table[400.0][1]) <= 0.001


def test_trajectory_csv_layout(tmp_path):
    report = run_scenario(small_scenario(), methods=("carleman", "ekf"))
    emit_csv(report, str(tmp_path))
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["t", "x1_true", "x2_true", "x3_true"]
    assert header[7:13] == [
        "P11_carleman", "P22_carleman", "P12_carleman",
        "P13_carleman", "P23_carleman", "P33_carleman",
    ]
    assert header[-4:] == ["e1_carleman", "e2_carleman", "e1_ekf", "e2_ekf"]
    assert len(lines) == 1 + 501
    first = lines[1].split(",")
    assert len(first) == len(header)
    assert float(first[0]) == 0.0
    # error columns are nonnegative numbers
    assert all(float(v) >= 0.0 for v in first[-4:])


def num(x):
    return f"{x:.10e}"


def trajectory_csv_oracle(report):
    """trajectories.csv body formatted field by field, as `emit_csv` did with one f-string per field."""
    def cov_cols(series, k):
        c = series.at_time(report.t[k])[1]
        return [num(c[0, 0]), num(c[1, 1]), num(c[0, 1]), num(c[0, 2]), num(c[1, 2]), num(c[2, 2])]

    lines = []
    for k in range(report.t.size if report.true_path is not None else 0):
        row = [num(report.t[k])] + [num(v) for v in report.true_path[k]]
        for series in (report.carleman, report.ekf):
            row += [num(v) for v in series.mean[k]] + cov_cols(series, k) if series is not None else [""] * 9
        for method in ("carleman", "ekf"):
            err = report.errors.get(method)
            row += [num(err[k, 0]), num(err[k, 1])] if err is not None else ["", ""]
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def checkpoint_csv_oracle(report):
    """checkpoints.csv body, field by field: t, then P_x1 and P_x2 of carleman and ekf."""
    lines = []
    for c in report.scenario.checkpoints if report.true_path is not None else ():
        row = [num(c)]
        for i in (0, 1):
            row += [num(s.at_time(c)[1][i, i]) if s is not None else "" for s in (report.carleman, report.ekf)]
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def mc_csv_oracle(report):
    """mc_validation.csv body, field by field, from the Monte Carlo columns."""
    mc = report.mc if report.mc is not None else {"t": []}
    keys = ("mc_mean", "ode_mean", "ode_em_mean", "stderr", "abs_err")
    return "".join(
        ",".join([num(mc["t"][i]), mc["component"][i].decode(), *(num(mc[key][i]) for key in keys),
                  str(int(mc["within_3_stderr"][i]))]) + "\n"
        for i in range(len(mc["t"]))
    )


@pytest.mark.parametrize("methods", [("carleman", "ekf"), ("carleman",), ("ekf",), ("carleman", "ekf", "mc"),
                                     ("mc",), ()],
                         ids=["carleman_ekf", "carleman", "ekf", "all", "mc", "none"])
def test_trajectory_csv_equals_per_field_formatting(tmp_path, methods):
    report = run_scenario(small_scenario(t_end=6.0, checkpoints=(0.5, 3.1, 6.0)), methods=methods)
    # Values whose text is easy to get wrong: signed zeros, non-finite and subnormal numbers.
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310, 1.0, 9.99999999995e-5]
    if report.true_path is not None:
        report.true_path[300:300 + len(specials), 1] = specials
    for series in (report.carleman, report.ekf):
        if series is not None:
            series.covariance(0, 2)[310:310 + len(specials)] = specials
            series.mean[320:320 + len(specials), 0] = specials
            series.covariance(0, 0)[310], series.covariance(1, 1)[310] = -0.0, np.nan  # the checkpoint at t=3.1
    if report.mc is not None:
        report.mc["abs_err"][:len(specials)] = specials
    emit_csv(report, str(tmp_path))
    text = (tmp_path / "trajectories.csv").read_text()
    header, body = text.split("\n", 1)
    assert grid_steps(report.scenario.dt, report.scenario.t_end) > 2 * 256  # more than one block of rows
    assert body == trajectory_csv_oracle(report)
    for name, oracle in (("checkpoints.csv", checkpoint_csv_oracle), ("mc_validation.csv", mc_csv_oracle)):
        header, body = (tmp_path / name).read_text().split("\n", 1)
        assert body == oracle(report)


def block_formatted(values):
    """The fields `experiments._format_fields` makes of ``values``, as text."""
    words, _ = experiments._format_fields(np.asarray(values, dtype=float))
    return [w.tobytes().replace(b"\0", b"").decode() for w in words.reshape(-1, 5)]


def assert_formats_as_percent(values):
    values = np.asarray(values, dtype=float)
    assert block_formatted(values) == ["%.10e" % v for v in values.tolist()]


# Every float64 a bit pattern can hold (NaN payloads of either sign,
# infinities, subnormals, normal numbers of every decade), and hypothesis's
# own floats, which favour short decimals and boundary values.
FLOAT64 = st.one_of(st.integers(min_value=0, max_value=2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
                    st.floats())


@settings(max_examples=500, deadline=None)
@given(values=st.lists(FLOAT64, min_size=1, max_size=64))
def test_block_formatter_equals_percent_on_raw_bit_patterns(values):
    assert_formats_as_percent(values)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(min_value=10**10, max_value=10**11 - 1), sign=st.sampled_from([1.0, -1.0]))
def test_block_formatter_rounds_exact_ties_as_percent(n, sign):
    # 12 significant digits ending in 5, exact in binary: '%.10e' rounds the
    # tie half to even, which the fast path leaves to the fallback.
    assert_formats_as_percent([sign * (10 * n + 5), sign * (n + 0.5), sign * (10 * n + 4), sign * (n + 0.49999)])


def test_block_formatter_equals_percent_in_every_decade():
    # One value per decade of the float64 range, and, per decade, the digits
    # that round up into the next decade (9.99999999996) or just do not, and
    # the double below the power of ten, whose log10 may round up to it.
    values = [float(f"{m}e{d}") for d in range(-324, 309) for m in ("1", "3.3", "9.99999999996", "9.999999999949999")]
    values += np.nextafter([float(f"1e{d}") for d in range(-323, 309)], 0.0).tolist()
    values += [0.0, -0.0, 100000000005.0, 99999999999.5, 1e-12, 9.99999999995e32, 1e33, 5e-324, -1e-310]
    assert_formats_as_percent(values + [-v for v in values])
    # Zeros of either sign stay on the fast path.
    assert experiments._format_fields(np.array([0.0, -0.0]))[1] == 0


def test_block_formatter_leaves_few_set1_fields_to_the_fallback(tmp_path, caplog):
    # A tie guard widened by mistake would keep every byte and lose the
    # speed, unseen by any byte test: the share of trajectories.csv fields
    # formatted by '%' is about 2e-4 on set1.
    report = run_scenario(builtin_scenario("set1"), methods=("carleman", "ekf"))
    with caplog.at_level(logging.DEBUG, logger="vdvcarleman.experiments"):
        experiments.emit_trajectories(report, str(tmp_path))
    counts = [r.args[1:] for r in caplog.records if r.name == "vdvcarleman.experiments"
              and r.args[0] == "trajectories.csv"]
    assert len(counts) == 1
    n_slow, n_fields = counts[0]
    assert n_fields == report.t.size * len(experiments._TRAJ_COLUMNS)
    assert n_slow < 1e-3 * n_fields


def test_errors_are_absolute_differences():
    report = run_scenario(small_scenario(), methods=("carleman", "ekf"))
    for method in ("carleman", "ekf"):
        series = getattr(report, method)
        err = report.errors[method]
        assert np.all(err >= 0.0)
        assert np.allclose(err, np.abs(report.true_path[:, :2] - series.mean[:, :2]), atol=1e-300)


def test_report_determinism_same_seed(tmp_path):
    s = small_scenario()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    emit_csv(run_scenario(s, methods=("carleman", "ekf", "mc")), str(out_a))
    emit_csv(run_scenario(s, methods=("carleman", "ekf", "mc")), str(out_b))
    for name in ("trajectories.csv", "checkpoints.csv", "mc_validation.csv", "report.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_mc_validation_rows_and_report_metadata(tmp_path):
    report = run_scenario(small_scenario(), methods=("carleman", "ekf", "mc"))
    assert report.mc is not None
    # 2 checkpoints x 9 components, one array per column
    assert list(report.mc) == list(experiments._MC_COLUMNS)
    assert all(len(column) == 18 for column in report.mc.values())
    assert report.mc["component"].dtype.kind == "S"
    emit_csv(report, str(tmp_path))
    lines = (tmp_path / "mc_validation.csv").read_text().splitlines()
    assert lines[0].startswith("t,component,mc_mean,ode_mean,ode_em_mean,stderr")
    assert len(lines) == 1 + 18
    meta = json.loads((tmp_path / "report.json").read_text())
    assert meta["mc"]["n_paths"] == 60
    within = report.mc["abs_err"] <= 3.0 * report.mc["stderr"]
    assert report.mc["within_3_stderr"].tolist() == [b"1" if w else b"0" for w in within]
    assert meta["mc"]["validation_rows_total"] == len(report.mc["t"]) == 18
    assert meta["mc"]["validation_rows_within_3_stderr"] == np.count_nonzero(within)
    assert meta["mc"]["tracking_max_abs_dx1"] > 0.0
    assert meta["scenario"]["seed"] == meta["seed"] == 42
    assert any("t=150" in note for note in meta["notes"])
    assert "carleman" in meta["psd_min_eig_at_checkpoints"]


def test_mc_rows_read_the_ensemble_at_each_checkpoint():
    # Unsorted, repeated checkpoints: each row reads the full-grid ensemble
    # statistics at its own grid index.
    s = small_scenario(checkpoints=(5.0, 0.5, 5.0))
    report = run_scenario(s, methods=("mc",))
    cfg = PathConfig(dt=s.dt, t_end=s.t_end, seed=s.seed)
    full = ensemble_stats(cfg, s.x0.as_array(), s.mc_paths, build_vandevusse(s.params),
                          record=np.arange(cfg.n_steps + 1))
    mc = report.mc
    assert mc["t"].tolist() == [c for c in (5.0, 0.5, 5.0) for _ in range(9)]
    k = [grid_index(s.dt, t) for t in mc["t"]]
    j = [mc["component"][:9].tolist().index(comp) for comp in mc["component"]]
    assert np.array_equal(mc["mc_mean"], full.mean[k, j])
    assert np.array_equal(mc["stderr"], full.stderr[k, j])


def test_mc_ode_mean_is_the_augmented_mean_path():
    s = small_scenario(mc_paths=4)
    mc = run_scenario(s, methods=("mc",)).mc
    ode = augmented_mean_path(build_vandevusse(s.params), point_lift(s.x0.as_array()), s.dt, s.t_end)
    k = [grid_index(s.dt, t) for t in mc["t"]]
    assert mc["ode_mean"].tobytes() == ode[k, np.tile(np.arange(9), len(s.checkpoints))].tobytes()


def test_run_simulates_the_nonlinear_realization_once(tmp_path, monkeypatch):
    nonlinear = []

    def counted(real):
        def call(cfg, x0, dynamics, *args, **kwargs):
            if isinstance(dynamics, ReactorParams):
                nonlinear.append(cfg)
            return real(cfg, x0, dynamics, *args, **kwargs)

        return call

    monkeypatch.setattr(experiments, "simulate_path", counted(experiments.simulate_path))
    monkeypatch.setattr(montecarlo, "simulate_path", counted(montecarlo.simulate_path))
    report = run_scenario(small_scenario(mc_paths=4), methods=("carleman", "ekf", "mc"))
    assert len(nonlinear) == 1
    # fig1's true path is the report's, the nonlinear half of the shared-noise pair.
    charts = []
    monkeypatch.setattr(svgchart, "line_chart", lambda series, title, *args: charts.append((title, series)) or "")
    emit_charts(report, str(tmp_path))
    fig1 = [series for title, series in charts if "sample paths" in title]
    assert len(fig1) == 2
    for i, series in enumerate(fig1):
        true = [sr for sr in series if sr.label == "true SDE path"]
        assert len(true) == 1 and np.array_equal(true[0].y, report.true_path[:, i])
        assert np.shares_memory(true[0].y, report.true_path)


def test_charts_full_and_reduced_sets(tmp_path, caplog):
    full_dir = tmp_path / "full"
    report = run_scenario(small_scenario(), methods=("carleman", "ekf", "mc"))
    paths = emit_charts(report, str(full_dir))
    names = sorted(p.rsplit("/", 1)[-1] for p in paths)
    assert names == [
        "fig1a.svg", "fig1b.svg", "fig2a.svg", "fig2b.svg",
        "fig3a.svg", "fig3b.svg", "fig4a.svg", "fig4b.svg",
    ]
    # without the Monte Carlo series the sample-path panels are skipped
    reduced_dir = tmp_path / "reduced"
    report2 = run_scenario(small_scenario(), methods=("carleman", "ekf"))
    with caplog.at_level(logging.INFO, logger="vdvcarleman.experiments"):
        paths2 = emit_charts(report2, str(reduced_dir))
    names2 = sorted(p.rsplit("/", 1)[-1] for p in paths2)
    assert len(names2) == 6 and not any(n.startswith("fig1") for n in names2)
    assert any("fig1a skipped" in r.message for r in caplog.records)


def test_charts_byte_identical_for_same_report(tmp_path):
    report = run_scenario(small_scenario(), methods=("carleman", "ekf"))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    emit_charts(report, str(dir_a))
    emit_charts(report, str(dir_b))
    for p in sorted(dir_a.iterdir()):
        assert p.read_bytes() == (dir_b / p.name).read_bytes()


def test_chart_text_is_escaped(tmp_path):
    report = run_scenario(small_scenario(name="R&D <run>", t_end=0.5, checkpoints=(0.5,)),
                          methods=("carleman", "ekf"))
    paths = emit_charts(report, str(tmp_path))
    titles = [minidom.parse(p).getElementsByTagName("text")[0].firstChild.data for p in paths]
    assert titles and all(title.startswith("R&D <run>: ") for title in titles)


def test_chart_of_a_series_two_ulps_wide_returns_within_a_second():
    # The tick step of a range a few ulps wide is lost in rounding: v + step == v.
    y = np.array([3.0, np.nextafter(3.0, 4.0), np.nextafter(np.nextafter(3.0, 4.0), 4.0)])

    def stuck(signum, frame):
        raise TimeoutError("line_chart did not return within 1 s")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        svg = svgchart.line_chart([svgchart.Series("x1", np.arange(3.0), y)], "t", "x", "y")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    ticks = [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")]
    assert ticks.count("3") == 1


def _polyline_points_per_point(series):
    """The points of each polyline of `svgchart.line_chart`, one f-string per point: the oracle."""
    xs = np.concatenate([np.asarray(s.x, float) for s in series])
    ys = np.concatenate([np.asarray(s.y, float) for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    y_lo, y_hi = float(ys[finite].min()), float(ys[finite].max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    plot_w = svgchart.WIDTH - svgchart.MARGIN_L - svgchart.MARGIN_R
    plot_h = svgchart.HEIGHT - svgchart.MARGIN_T - svgchart.MARGIN_B

    def px(x):
        return svgchart.MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return svgchart.MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    points = []
    for s in series:
        pts = svgchart._downsample(np.column_stack([np.asarray(s.x, float), np.asarray(s.y, float)]))
        keep = np.isfinite(pts).all(axis=1)
        points.append(" ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts[keep]))
    return points


def _line_chart_concatenated(series, title, xlabel, ylabel):
    """`svgchart.line_chart` with its ranges over every series concatenated,
    and each series downsampled as full-length (x, y) rows: the oracle."""
    from vdvcarleman.svgchart import (
        DASH, HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, WIDTH, _ESCAPES, _downsample, _fmt, _nice_ticks,
    )
    if not series:
        raise ValueError("line_chart needs at least one series")
    xs = np.concatenate([np.asarray(s.x, float) for s in series])
    ys = np.concatenate([np.asarray(s.y, float) for s in series])
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not np.any(finite):
        raise ValueError("no finite data to plot")
    x_lo, x_hi = float(xs[finite].min()), float(xs[finite].max())
    y_lo, y_hi = float(ys[finite].min()), float(ys[finite].max())
    if y_hi == y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    )
    out.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>')
    out.append(
        f'<text x="{WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title.translate(_ESCAPES)}</text>'
    )
    # axes
    x0, y0 = MARGIN_L, MARGIN_T + plot_h
    out.append(
        f'<path d="M {x0} {MARGIN_T} L {x0} {y0} L {x0 + plot_w} {y0}" '
        f'stroke="#000000" fill="none" stroke-width="1"/>'
    )
    for tx in _nice_ticks(x_lo, x_hi):
        X = px(tx)
        out.append(f'<line x1="{X:.2f}" y1="{y0}" x2="{X:.2f}" y2="{y0 + 5}" stroke="#000000"/>')
        out.append(
            f'<text x="{X:.2f}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _nice_ticks(y_lo, y_hi):
        Y = py(ty)
        out.append(f'<line x1="{x0 - 5}" y1="{Y:.2f}" x2="{x0}" y2="{Y:.2f}" stroke="#000000"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{Y + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{MARGIN_L + plot_w / 2:.1f}" y="{HEIGHT - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{xlabel.translate(_ESCAPES)}</text>'
    )
    out.append(
        f'<text x="18" y="{MARGIN_T + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {MARGIN_T + plot_h / 2:.1f})">{ylabel.translate(_ESCAPES)}</text>'
    )
    # series
    for s in series:
        pts = _downsample(np.column_stack([np.asarray(s.x, float), np.asarray(s.y, float)]))
        x, y = pts[np.isfinite(pts).all(axis=1)].T
        # px and py on whole rows: each point sees the operations of the scalar form.
        coords = " ".join(["%.2f,%.2f" % xy for xy in zip(px(x).tolist(), py(y).tolist())])
        dash = DASH.get(s.style)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="{s.color}" '
            f'stroke-width="1.5"{dash_attr}/>'
        )
    # legend
    lx, ly = MARGIN_L + plot_w - 180, MARGIN_T + 10
    out.append(
        f'<rect x="{lx - 8}" y="{ly - 14}" width="186" height="{18 * len(series) + 8}" '
        f'fill="#ffffff" stroke="#999999"/>'
    )
    for i, s in enumerate(series):
        Y = ly + 18 * i
        dash = DASH.get(s.style)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        out.append(
            f'<line x1="{lx}" y1="{Y - 4}" x2="{lx + 30}" y2="{Y - 4}" '
            f'stroke="{s.color}" stroke-width="1.5"{dash_attr}/>'
        )
        out.append(
            f'<text x="{lx + 36}" y="{Y}" font-family="sans-serif" font-size="11">{s.label.translate(_ESCAPES)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _chart_cases():
    """Inputs whose ranges and kept rows depend on which points are finite."""
    n = 3 * svgchart.MAX_POINTS + 7
    stride = -(-n // svgchart.MAX_POINTS)  # every stride-th row and the last are kept
    x = np.linspace(-1.0, 4.0, n)
    holed = np.sin(x)
    holed[[0, stride, 2 * stride, n - 1]] = np.nan, np.inf, -np.inf, np.nan
    x_holed = x.copy()
    x_holed[[3 * stride, 3 * stride + 1]] = -np.inf, np.nan
    short = np.arange(6.0)
    return {
        "non_finite_points": [
            svgchart.Series("a", short, np.array([1.0, np.nan, -2.5, np.inf, 0.25, -np.inf])),
            svgchart.Series("b", np.array([np.nan, 1.0, np.inf, 3.0, -np.inf, 5.0]), -short),
        ],
        "no_finite_point_beside_finite_ones": [
            svgchart.Series("none", short, np.array([np.nan, np.inf, -np.inf, np.nan, np.nan, np.inf])),
            svgchart.Series("some", short + 10.0, short ** 2),
            svgchart.Series("x_none", np.full(6, np.nan), short),
        ],
        "constant": [svgchart.Series("c", short, np.full(6, -0.75))],
        "longer_than_max_points": [svgchart.Series("long", x, holed), svgchart.Series("x_holed", x_holed, np.cos(x))],
    }


@pytest.mark.parametrize("case", list(_chart_cases()))
def test_line_chart_equals_the_concatenated_form(case):
    series = _chart_cases()[case]
    assert svgchart.line_chart(series, "t", "x", "y") == _line_chart_concatenated(series, "t", "x", "y")


def _polyline_points(series):
    return re.findall(r'<polyline points="([^"]*)"', svgchart.line_chart(series, "t", "x", "y"))


def test_polylines_equal_the_per_point_form():
    # x on eighths puts many pixel columns on .xx5 ties of '%.2f'; the y
    # series hold NaN and +-inf rows, negatives, decimal .xx5 values, a
    # constant, and one is longer than MAX_POINTS, so it is downsampled.
    n = 624 * 8 + 1
    x = np.arange(n) / 8.0
    ramp = np.linspace(-2.345, 7.125, n)
    ramp[[3, 50, 4000]] = np.nan, np.inf, -np.inf
    x_holed = x.copy()
    x_holed[[7, 8]] = np.nan, -np.inf
    cases = [
        [svgchart.Series("ramp", x, ramp), svgchart.Series("wave", x_holed, -np.cos(x) * 1e-3 - 0.005)],
        [svgchart.Series("constant", x[:100], np.full(100, -1.005))],
        [svgchart.Series("ties", np.arange(8.0), np.array([0.005, 0.015, 0.125, -0.375, 1.005, 2.675, 0.0, -0.0]))],
        [svgchart.Series("one", np.array([2.0]), np.array([-3.0]))],
    ]
    for series in cases:
        assert _polyline_points(series) == _polyline_points_per_point(series)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=2, max_size=300),
       st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
def test_polylines_equal_the_per_point_form_on_any_floats(ys, x0, dx):
    y = np.array(ys)
    if not np.isfinite(y).any():
        y[0] = 0.0
    x = x0 + dx * np.arange(y.size)
    series = [svgchart.Series("y", x, y), svgchart.Series("-y", x, -y[::-1])]
    with np.errstate(over="ignore", invalid="ignore"):
        assert _polyline_points(series) == _polyline_points_per_point(series)


def test_set2_uses_second_figure_numbering(tmp_path):
    s = replace(builtin_scenario("set2"), t_end=2.0, checkpoints=(0.5,), mc_paths=10)
    report = run_scenario(s, methods=("carleman", "ekf"))
    paths = emit_charts(report, str(tmp_path))
    names = sorted(p.rsplit("/", 1)[-1] for p in paths)
    assert names == [
        "fig5a.svg", "fig5b.svg", "fig6a.svg", "fig6b.svg", "fig7a.svg", "fig7b.svg",
    ]


def test_method_failure_carries_method_name():
    bad = small_scenario(params=replace(PARAM_SET1, k3=1e9), t_end=5.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RuntimeError, match="true|carleman"):
            run_scenario(bad, methods=("carleman",))


def test_physical_overflow_is_a_method_failure():
    # m1 * m1 of the recovered covariance overflows at the first step; the
    # physical path must fail as the method, not with a bare numpy error.
    bad = small_scenario(x0=PhysicalState(1e103, 1.0, 0.01), t_end=0.01, checkpoints=(0.01,))
    with pytest.raises(RuntimeError, match=r"^method 'carleman' failed: non-finite state at t=0\.01$"):
        run_scenario(bad, methods=("carleman",))


@pytest.mark.parametrize("methods", [("ekf",), ("carleman", "ekf", "mc")], ids=["ekf", "all"])
@pytest.mark.parametrize("workers", [1, 2])
def test_an_ekf_failing_in_its_child_reads_as_with_one_worker(monkeypatch, workers, methods):
    # ekf_predict raises in the forked child; ``join()`` raises the child's
    # error, with its grid index, and the caller reports it as the EKF's failure.
    def blows_up(*args):
        raise IntegrationError("non-finite state at t=0.03", step=3)

    monkeypatch.setattr(experiments, "ekf_predict", blows_up)
    pids = _recording_fork(monkeypatch)
    with pytest.raises(RuntimeError, match=r"^method 'ekf' failed: non-finite state at t=0\.03$") as got:
        run_scenario(small_scenario(mc_paths=600), methods=methods, mc_workers=workers)
    assert isinstance(got.value.__cause__, IntegrationError) and got.value.__cause__.step == 3
    assert len(pids) == (0 if workers == 1 else 1 + 2 * ("mc" in methods))
    if pids:
        _assert_reaped(pids)


def test_an_integration_error_pickles_with_its_step():
    back = pickle.loads(pickle.dumps(IntegrationError("non-finite state at t=0.5", step=50)))
    assert type(back) is IntegrationError and str(back) == "non-finite state at t=0.5" and back.step == 50


@pytest.mark.parametrize("workers", [1, 2])
def test_a_true_path_failure_kills_the_ekf_child_and_is_reported_first(monkeypatch, workers):
    def slow_ekf(*args):
        time.sleep(30)

    def broken_path(*args):
        raise IntegrationError("non-finite state at t=0.01", step=1)

    monkeypatch.setattr(experiments, "ekf_predict", slow_ekf)
    monkeypatch.setattr(experiments, "simulate_path", broken_path)
    pids = _recording_fork(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"^method 'true' failed: non-finite state at t=0\.01$"):
        run_scenario(small_scenario(), methods=("carleman", "ekf"), mc_workers=workers)
    assert time.perf_counter() - t0 < 10.0
    assert len(pids) == (workers > 1)
    if pids:
        _assert_reaped(pids)


@pytest.mark.parametrize("mc_paths, workers", [(60, 1), (600, 2)], ids=["serial", "forked"])
def test_a_method_failing_beside_the_ensemble_keeps_its_name(mc_paths, workers):
    # The physical path fails while the ensemble runs (or before it, with one
    # range): it is reported as itself, first, not as a failure of mc.
    bad = small_scenario(x0=PhysicalState(1e103, 1.0, 0.01), t_end=0.01, checkpoints=(0.01,), mc_paths=mc_paths)
    with pytest.raises(RuntimeError, match=r"^method 'carleman' failed: non-finite state at t=0\.01$"):
        run_scenario(bad, methods=("carleman", "ekf", "mc"), mc_workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
def test_the_scenario_run_block_holds_everything_but_the_mc_rows(workers):
    # With 600 paths and two workers the block runs beside two forked ranges.
    s = small_scenario(mc_paths=600)
    methods = ("carleman", "ekf", "mc")
    want = run_scenario(s, methods, mc_workers=workers)
    with experiments.scenario_run(s, methods, workers) as report:
        assert report.mc is None
        for name in ("t", "true_path", "coupled_xi"):
            assert np.array_equal(bits(getattr(report, name)), bits(getattr(want, name)))
        for method in ("carleman", "ekf"):
            got, ref = getattr(report, method), getattr(want, method)
            assert np.array_equal(bits(got.mean), bits(ref.mean)) and np.array_equal(bits(got.cov), bits(ref.cov))
            assert np.array_equal(bits(report.errors[method]), bits(want.errors[method]))
        assert report.psd_min_eig == want.psd_min_eig and report.notes == want.notes
        assert report.tracking_max_abs_dx1 == want.tracking_max_abs_dx1
    assert report.mc.keys() == want.mc.keys()
    for key, column in want.mc.items():
        assert report.mc[key].dtype == column.dtype and report.mc[key].tobytes() == column.tobytes()


def test_emit_csv_leaves_none_of_its_files_when_the_summary_fails(tmp_path):
    # report.json, the last file written, cannot be opened: the three CSVs go.
    out = tmp_path / "out"
    (out / "report.json").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        emit_csv(run_scenario(small_scenario(), methods=("carleman", "ekf", "mc")), str(out))
    assert os.listdir(out) == ["report.json"] and not os.listdir(out / "report.json")


def test_report_is_plain_dataclass_of_results():
    report = run_scenario(small_scenario(), methods=("carleman",))
    assert isinstance(report, ComparisonReport)
    assert isinstance(report.scenario, Scenario)
    assert report.methods == ("carleman",)
