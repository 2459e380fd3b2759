"""Tests of the benchmark itself (not of the program it measures).

Run: python3 -m pytest -q perfbench
"""
import json
import os

import pytest

import gate
import run
from spans import Tracer, nesting_violations, self_times


def _span(id_, parent, start, end, name="s"):
    return {"id": id_, "parent": parent, "name": name, "start": start, "end": end, "attrs": {}}


def test_self_time_subtracts_nested_children():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 4.0),
        _span(2, 1, 2.0, 3.0),
        _span(3, 0, 5.0, 9.0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)
    assert nesting_violations(spans) == []


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, None, 0.0, 10.0), _span(1, 0, 1.0, 4.0), _span(2, 0, 3.0, 6.0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_nesting_violation_is_reported():
    spans = [_span(0, None, 0.0, 2.0), _span(1, 0, 0.0, 1.5), _span(2, 0, 0.5, 2.0)]
    # Overlapping children whose self times exceed the parent's duration.
    assert nesting_violations(spans)


def test_tracer_records_parent_links():
    ticks = iter(range(100))
    tracer = Tracer("t", clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1, attrs=lambda a, k, r: {"result": r})
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None
    assert by_name["inner"]["attrs"] == {"result": 2}
    assert self_times(tracer.spans)[by_name["outer"]["id"]] == pytest.approx(2.0)


def _reference(scenario, name):
    return gate.read_csv(os.path.join(gate.REFERENCE_DIR, scenario, name))


def _fake_run_output(out_dir):
    """A set2 ``run`` output directory whose grid rows are the reference rows."""
    ref = _reference("set2", "trajectories.csv")
    header = ref[0] + ["x1_true", "x2_true", "x3_true", "e1_carleman", "e2_carleman", "e1_ekf", "e2_ekf"]
    col = {c: i for i, c in enumerate(ref[0])}
    rows = [header]
    for r in ref[1:]:
        true = [r[col["x1_carleman"]], r[col["x2_carleman"]], r[col["x3_carleman"]]]
        errs = [f"{abs(float(r[col[f'x{i}_carleman']]) - float(r[col[f'x{i}_{m}']])):.10e}"
                for m in ("carleman", "ekf") for i in (1, 2)]
        rows.append(r + true + errs)
    gate.write_csv(os.path.join(out_dir, "trajectories.csv"), rows)
    for name in ("checkpoints.csv", "mc_validation.csv"):
        gate.write_csv(os.path.join(out_dir, name), _reference("set2", name))
    return rows


def test_gate_rejects_one_perturbed_field(tmp_path, monkeypatch):
    monkeypatch.setattr(gate, "TRAJ_STRIDE", 1)
    rows = _fake_run_output(str(tmp_path))
    checks, worst = gate.check_reference(str(tmp_path), "set2")
    assert all(ok for _, ok, _ in checks) and worst == 0.0
    assert gate.check_trajectories(str(tmp_path), dt=2.0, n_steps=200)[1]

    j = rows[0].index("P11_ekf")
    rows[50][j] = f"{float(rows[50][j]) * (1 + 1e-5):.10e}"
    gate.write_csv(os.path.join(str(tmp_path), "trajectories.csv"), rows)
    checks, worst = gate.check_reference(str(tmp_path), "set2")
    failed = [(name, why) for name, ok, why in checks if not ok]
    assert len(failed) == 1 and failed[0][0] == "reference trajectories.csv" and "P11_ekf" in failed[0][1]
    assert worst > 1e-9


def test_gate_accepts_last_digit_changes():
    ref = _reference("set2", "checkpoints.csv")
    got = [row[:] for row in ref]
    got[3][1] = f"{float(got[3][1]) * (1 + 2e-10):.10e}"
    worst, errors = gate.compare_tables(ref, got)
    assert errors == [] and 0 < worst < 1e-9


def test_gate_rejects_changed_labels_and_shape():
    ref = _reference("set1", "mc_validation.csv")
    got = [row[:] for row in ref]
    got[1][1] = "x2"
    assert gate.compare_tables(ref, got)[1]
    assert gate.compare_tables(ref, got[:-1])[1]


def test_seed_reaches_the_program_only_as_seed_flag():
    for name in ("run-set1-mc", "run-set2-moments"):
        argv = run.command(run.WORKLOADS[name], 1234, "out")
        assert argv[argv.index("--seed") + 1] == "1234"
        assert argv.count("1234") == 1
    assert "--seed" not in run.command(run.WORKLOADS["validate"], 1234, "out")


def test_report_check_rejects_a_different_seed(tmp_path):
    (tmp_path / "report.json").write_text(json.dumps({"seed": 5, "methods": ["carleman", "ekf"]}))
    assert gate.check_report(str(tmp_path), 5, ("carleman", "ekf"), None)[1]
    assert not gate.check_report(str(tmp_path), 6, ("carleman", "ekf"), None)[1]


def _validate_stdout(failing):
    lines = [f"[{n:2d}] {'FAIL' if n in failing else 'PASS'}  criterion {n}: detail" for n in range(1, 11)]
    return "\n".join(lines + [f"{10 - len(failing)}/10 checks passed"])


def test_validate_gate_expects_exactly_the_known_red_criteria():
    checks, failed = gate.check_validate(_validate_stdout({3, 8}), exit_code=1)
    assert failed == 2 and all(ok for _, ok, _ in checks)
    checks, _ = gate.check_validate(_validate_stdout({8}), exit_code=1)
    assert [name for name, ok, _ in checks if not ok] == ["criterion 3"]
    checks, _ = gate.check_validate(_validate_stdout({3, 8}), exit_code=0)
    assert not checks[-1][1]


def test_benchmark_json_lists_what_run_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
