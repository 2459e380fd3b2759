import filecmp
import json
import logging
import os
from xml.dom import minidom

import numpy as np
import pytest

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from vdvcarleman import cli, experiments, montecarlo, svgchart
from vdvcarleman.experiments import (
    ComparisonReport,
    Scenario,
    builtin_scenario,
    emit_charts,
    emit_csv,
    load_scenario,
    run_scenario,
)
from vdvcarleman.carleman import build_vandevusse, point_lift
from vdvcarleman.model import PARAM_SET1, PhysicalState, ReactorParams
from vdvcarleman.moments import augmented_mean_path, grid_index
from vdvcarleman.montecarlo import PathConfig, ensemble_moments


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
    with pytest.raises(ValueError):
        small_scenario(mc_paths=1)
    with pytest.raises(ValueError, match="seed"):
        small_scenario(seed=-1)
    with pytest.raises(ValueError, match="seed"):
        Scenario.from_dict({**small_scenario().to_dict(), "seed": -1})


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


def test_worker_count_below_one_is_rejected_before_any_work(tmp_path):
    with pytest.raises(ValueError, match="n_workers"):
        run_scenario(small_scenario(), methods=("carleman",), mc_workers=0)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="n_workers"):
        cli.main(["run", "--scenario", "builtin:set1", "--mc-workers", "-3", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("methods", [("carleman",), ("carleman", "mc")], ids=["no-mc", "mc"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True, "2"])
def test_worker_count_must_be_an_integer_before_any_work(monkeypatch, methods, bad):
    def no_work(*args, **kwargs):
        raise AssertionError("run_scenario started work")

    monkeypatch.setattr(experiments, "simulate_path", no_work)
    with pytest.raises(ValueError, match=r"^mc_workers must be an integer"):
        run_scenario(small_scenario(), methods=methods, mc_workers=bad)


def test_run_defaults_to_one_worker_per_usable_cpu(tmp_path):
    args = cli._build_parser().parse_args(["run", "--out", str(tmp_path)])
    assert args.mc_workers == len(os.sched_getaffinity(0))


def test_run_with_the_default_workers_writes_the_bytes_of_one_worker(tmp_path, capsys):
    # 600 paths allow three ranges, so any count above 1 forks.
    argv = ["run", "--t-end", "5", "--mc-paths", "600", "--seed", "4", "--no-charts"]
    cli.main([*argv, "--out", str(tmp_path / "default")])
    cli.main([*argv, "--mc-workers", "1", "--out", str(tmp_path / "one")])
    names = sorted(os.listdir(tmp_path / "one"))
    assert names == sorted(os.listdir(tmp_path / "default")) and "mc_validation.csv" in names
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "default", tmp_path / "one", names, shallow=False)
    assert match == names and not mismatch and not errors


def test_worker_count_accepts_numpy_integers():
    s = small_scenario(t_end=1.0, checkpoints=(1.0,), mc_paths=8)
    assert run_scenario(s, ("carleman",), mc_workers=np.int64(2)).carleman is not None
    got = run_scenario(s, ("mc",), mc_workers=np.int64(2)).mc.rows
    assert got == run_scenario(s, ("mc",), mc_workers=1).mc.rows


def test_run_scenario_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown"):
        run_scenario(small_scenario(), methods=("kalman",))


def test_empty_method_set_gives_metadata_only_report(tmp_path):
    report = run_scenario(small_scenario(), methods=())
    assert report.true_path is None and report.carleman is None and report.ekf is None
    paths = emit_csv(report, str(tmp_path))
    assert (tmp_path / "checkpoints.csv").read_text().splitlines()[1:] == []
    for p in paths:
        name = p.rsplit("/", 1)[-1]
        if name.endswith(".csv"):
            lines = open(p).read().splitlines()
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
        c = series.cov[k]
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
        k = grid_index(report.scenario.dt, c)
        row = [num(c)]
        for i in (0, 1):
            row += [num(s.cov[k, i, i]) if s is not None else "" for s in (report.carleman, report.ekf)]
        lines.append(",".join(row) + "\n")
    return "".join(lines)


def mc_csv_oracle(report):
    """mc_validation.csv body, field by field."""
    keys = ("mc_mean", "ode_mean", "ode_em_mean", "stderr", "abs_err")
    rows = report.mc.rows if report.mc is not None else []
    return "".join(
        ",".join([num(r["t"]), r["component"], *(num(r[key]) for key in keys), str(int(r["within_3_stderr"]))]) + "\n"
        for r in rows
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
            series.cov[310:310 + len(specials), 0, 2] = specials
            series.mean[320:320 + len(specials), 0] = specials
            series.cov[310, 0, 0], series.cov[310, 1, 1] = -0.0, np.nan  # the checkpoint at t=3.1
    if report.mc is not None:
        for row, value in zip(report.mc.rows, specials):
            row["abs_err"] = value
    emit_csv(report, str(tmp_path))
    text = (tmp_path / "trajectories.csv").read_text()
    header, body = text.split("\n", 1)
    assert report.t.size > 2 * 256  # more than one block of rows
    assert body == trajectory_csv_oracle(report)
    for name, oracle in (("checkpoints.csv", checkpoint_csv_oracle), ("mc_validation.csv", mc_csv_oracle)):
        header, body = (tmp_path / name).read_text().split("\n", 1)
        assert body == oracle(report)


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
    # 2 checkpoints x 9 components
    assert len(report.mc.rows) == 18
    emit_csv(report, str(tmp_path))
    lines = (tmp_path / "mc_validation.csv").read_text().splitlines()
    assert lines[0].startswith("t,component,mc_mean,ode_mean,ode_em_mean,stderr")
    assert len(lines) == 1 + 18
    meta = json.loads((tmp_path / "report.json").read_text())
    assert meta["mc"]["n_paths"] == 60
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
    full = ensemble_moments(cfg, s.x0.as_array(), s.mc_paths, build_vandevusse(s.params),
                            record=np.arange(cfg.n_steps + 1))
    rows = report.mc.rows
    assert [r["t"] for r in rows[::9]] == [5.0, 0.5, 5.0]
    for row in rows:
        k = grid_index(s.dt, row["t"])
        j = [r["component"] for r in rows[:9]].index(row["component"])
        assert row["mc_mean"] == float(full.mean[k, j])
        assert row["stderr"] == float(full.stderr[k, j])


def test_mc_ode_mean_is_the_augmented_mean_path():
    s = small_scenario(mc_paths=4)
    mc = run_scenario(s, methods=("mc",)).mc
    _, ode = augmented_mean_path(build_vandevusse(s.params), point_lift(s.x0.as_array()), s.dt, s.t_end)
    assert np.array_equal(mc.ode_mean, ode)
    for r, row in enumerate(mc.rows):
        assert row["ode_mean"] == float(ode[grid_index(s.dt, row["t"]), r % 9])


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


def test_report_is_plain_dataclass_of_results():
    report = run_scenario(small_scenario(), methods=("carleman",))
    assert isinstance(report, ComparisonReport)
    assert isinstance(report.scenario, Scenario)
    assert report.methods == ("carleman",)
