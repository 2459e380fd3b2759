import json
import logging

import numpy as np
import pytest

from dataclasses import replace

from vdvcarleman.experiments import (
    ComparisonReport,
    Scenario,
    builtin_scenario,
    emit_charts,
    emit_csv,
    load_scenario,
    run_scenario,
)
from vdvcarleman.carleman import build_vandevusse
from vdvcarleman.model import PARAM_SET1
from vdvcarleman.moments import grid_index
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


def test_run_scenario_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown"):
        run_scenario(small_scenario(), methods=("kalman",))


def test_empty_method_set_gives_metadata_only_report(tmp_path):
    report = run_scenario(small_scenario(), methods=())
    assert report.true_path is None and report.carleman is None and report.ekf is None
    assert report.checkpoint_rows == []
    paths = emit_csv(report, str(tmp_path))
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
    table = {row["t"]: row for row in report.checkpoint_rows}
    assert abs(table[0.5]["carleman_P_x1"] - 1.08) <= 0.02
    emit_csv(report, str(tmp_path))
    rows = (tmp_path / "checkpoints.csv").read_text().splitlines()
    assert rows[0] == "t,carleman_P_x1,ekf_P_x1,carleman_P_x2,ekf_P_x2"
    assert len(rows) == 1 + 8
    # ekf columns are empty in a carleman-only run
    assert rows[1].split(",")[2] == ""


def test_set2_checkpoint_row_count(tmp_path):
    report = run_scenario(builtin_scenario("set2"), methods=("carleman",))
    emit_csv(report, str(tmp_path))
    rows = (tmp_path / "checkpoints.csv").read_text().splitlines()
    assert len(rows) == 1 + 10
    table = {row["t"]: row for row in report.checkpoint_rows}
    assert table[400.0]["carleman_P_x1"] <= 0.001


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
    cfg = PathConfig(dt=s.dt, t_end=s.t_end, seed=s.seed, system="bilinear")
    full = ensemble_moments(cfg, s.x0.as_array(), s.mc_paths, build_vandevusse(s.params))
    rows = report.mc.rows
    assert [r["t"] for r in rows[::9]] == [5.0, 0.5, 5.0]
    for row in rows:
        k = grid_index(s.dt, row["t"])
        j = [r["component"] for r in rows[:9]].index(row["component"])
        assert row["mc_mean"] == float(full.mean[k, j])
        assert row["stderr"] == float(full.stderr[k, j])


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


def test_report_is_plain_dataclass_of_results():
    report = run_scenario(small_scenario(), methods=("carleman",))
    assert isinstance(report, ComparisonReport)
    assert isinstance(report.scenario, Scenario)
    assert report.methods == ("carleman",)
