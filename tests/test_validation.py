"""`validation.run_all` and ``vdvcarleman validate``: criterion order, exit code and forks."""
import logging
import re
import time

import pytest

from vdvcarleman import cli, experiments, montecarlo, validation

from test_montecarlo import _recording_fork


def _stub(number, passed=True, delay=0.0):
    """A check that sleeps ``delay`` seconds and returns criterion ``number``."""
    def check():
        time.sleep(delay)
        return validation.CheckResult(number, f"stub {number}", passed, f"detail {number}")

    check.__name__ = f"check_{number}"
    return check


@pytest.mark.parametrize("failing", [set(), {2}], ids=["all-pass", "one-fails"])
def test_validate_prints_in_criterion_order_and_exits_1_on_a_failure(monkeypatch, capsys, failing):
    # The later criteria are done first; each runs in a child of its own.
    pids = _recording_fork(monkeypatch)
    monkeypatch.setattr(validation, "_usable_cpus", lambda: 4)
    checks = tuple(_stub(n, n not in failing, 0.1 * (4 - n)) for n in range(1, 5))
    monkeypatch.setattr(validation, "ALL_CHECKS", checks)
    code = cli.main(["validate"])
    want = [f"[{n:2d}] {'FAIL' if n in failing else 'PASS'}  stub {n}: detail {n}" for n in range(1, 5)]
    assert capsys.readouterr().out.splitlines() == [*want, f"{4 - len(failing)}/4 checks passed"]
    assert code == (1 if failing else 0)
    assert len(pids) == 4


def test_run_all_logs_each_criterions_wall_time_in_order(monkeypatch, caplog):
    monkeypatch.setattr(validation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(validation, "ALL_CHECKS", (_stub(1, delay=0.3), _stub(2)))
    with caplog.at_level(logging.INFO, logger="vdvcarleman.validation"):
        results = validation.run_all()
    assert [r.number for r in results] == [1, 2]
    times = [re.fullmatch(r"criterion (\d) ran in ([0-9.]+) s", r.message) for r in caplog.records]
    assert [m.group(1) for m in times] == ["1", "2"]
    assert float(times[0].group(2)) >= 0.3 > float(times[1].group(2))


def _run_all_on(monkeypatch, cpus):
    monkeypatch.setattr(validation, "_usable_cpus", lambda: cpus)
    return validation.run_all()


def test_run_all_in_children_equals_run_all_in_the_caller(monkeypatch):
    monkeypatch.setattr(validation, "ALL_CHECKS", tuple(_stub(n, n % 2 == 0) for n in range(1, 6)))
    pids = _recording_fork(monkeypatch)
    assert _run_all_on(monkeypatch, 3) == _run_all_on(monkeypatch, 1)
    assert len(pids) == 5


def test_run_all_starts_the_slowest_checks_first_and_returns_criterion_order(monkeypatch):
    started = []

    def recording(number):
        check = _stub(number)

        def run():
            started.append(number)
            return check()

        return run

    checks = tuple(recording(n) for n in range(1, 6))
    monkeypatch.setattr(validation, "ALL_CHECKS", checks)
    monkeypatch.setattr(validation, "SLOWEST_FIRST", (checks[3], checks[1]))
    # With one CPU the checks run in the caller, in the order they start.
    assert [r.number for r in _run_all_on(monkeypatch, 1)] == [1, 2, 3, 4, 5]
    assert started == [4, 2, 1, 3, 5]
    assert [r.number for r in _run_all_on(monkeypatch, 2)] == [1, 2, 3, 4, 5]


def test_a_check_that_raises_in_a_child_is_named_with_its_traceback(monkeypatch):
    def check_broken():
        raise ValueError("broken check")

    monkeypatch.setattr(validation, "ALL_CHECKS", (_stub(1), check_broken))
    with pytest.raises(RuntimeError, match=r"^acceptance check check_broken exited with status 1\n") as got:
        _run_all_on(monkeypatch, 2)
    assert "in check_broken\n" in str(got.value)
    assert str(got.value).endswith("ValueError: broken check\n")
    with pytest.raises(ValueError, match="broken check"):
        _run_all_on(monkeypatch, 1)


def test_criterion_10_splits_its_ensemble_four_ways(monkeypatch):
    # The 1-worker run stays in the caller; the 4-worker run forks a child per
    # range, and one for the EKF beside them.
    pids = _recording_fork(monkeypatch)
    forked = []

    def recording(fork_map):
        def call(tasks, n_procs):
            if n_procs > 1:
                forked.extend(name for name, _ in tasks)
            return fork_map(tasks, n_procs)

        return call

    monkeypatch.setattr(montecarlo, "_fork_map", recording(montecarlo._fork_map))
    monkeypatch.setattr(experiments, "_fork_map", recording(experiments._fork_map))
    result = validation.check_determinism()
    assert result.passed, result.detail
    assert len(pids) == len(forked) == 5
    ranges = [name for name in forked if name.startswith("ensemble worker for paths ")]
    assert ranges == [f"ensemble worker for paths [{256 * w}, {256 * (w + 1)})" for w in range(4)]
    assert sorted(set(forked) - set(ranges)) == ["ekf_predict"]
