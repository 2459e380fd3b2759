"""One failure behaviour: a task that raises fails with the same exception at every worker count.

From a forked child, the exception's ``__cause__`` is a `RuntimeError`
naming the task, with the child's traceback; the tests at the end pin the
failures that cannot come back from a child.
"""
import functools
import os
import re
import signal
import time

import pytest

from vdvcarleman import experiments, montecarlo, validation
from vdvcarleman.moments import IntegrationError
from vdvcarleman.montecarlo import RANGE_PATHS, PathConfig

from test_experiments import small_scenario
from test_montecarlo import SYS1, X0, _assert_reaped, _recording_fork, ensemble_stats, fork_values
from test_validation import _run_all_on, _stub

SLEEPER = ("sleeper", functools.partial(time.sleep, 60.0))


def _fork_map_task(monkeypatch, n):
    def fail():
        raise ValueError("task failed")

    fork_values([("the failing task", fail), SLEEPER], n)


def _ensemble_range(monkeypatch, n):
    lockstep = montecarlo._lockstep

    def failing(cfg, x0, dynamics, start, snap, *args):
        if start <= RANGE_PATHS < start + snap.shape[2]:
            raise ValueError("worker range failed")
        return lockstep(cfg, x0, dynamics, start, snap, *args)

    monkeypatch.setattr(montecarlo, "_lockstep", failing)
    ensemble_stats(PathConfig(dt=0.01, t_end=0.5, seed=2), X0, 3 * RANGE_PATHS, SYS1, n_workers=n, record=[50])


def _validate_check(monkeypatch, n):
    def check_broken():
        raise ValueError("broken check")

    monkeypatch.setattr(validation, "ALL_CHECKS", (check_broken, _stub(2, delay=60.0)))
    _run_all_on(monkeypatch, n)


def _ekf(monkeypatch, n):
    def blows_up(*args):
        raise IntegrationError("non-finite state at t=0.03", step=3)

    monkeypatch.setattr(experiments, "ekf_predict", blows_up)
    experiments.run_scenario(small_scenario(), methods=("ekf",), mc_workers=n)


# case: (call, forked n, exception type, message, task name, lines of the child's traceback)
CASES = {
    "fork_map": (_fork_map_task, 2, ValueError, "task failed", "the failing task",
                 ("in fail\n", "ValueError: task failed\n")),
    "ensemble": (_ensemble_range, 3, ValueError, "worker range failed", "ensemble worker for paths [256, 512)",
                 ("in failing\n", "ValueError: worker range failed\n")),
    "validate": (_validate_check, 2, ValueError, "broken check", "acceptance check check_broken",
                 ("in check_broken\n", "ValueError: broken check\n")),
    "ekf": (_ekf, 2, RuntimeError, "method 'ekf' failed: non-finite state at t=0.03", "ekf_predict",
            ("in blows_up\n", "IntegrationError: non-finite state at t=0.03\n")),
}


def _causes(exc):
    while exc is not None:
        yield exc
        exc = exc.__cause__


@pytest.mark.parametrize("forked", [False, True], ids=["in-caller", "forked"])
@pytest.mark.parametrize("case", list(CASES))
def test_a_failure_is_the_same_exception_at_every_worker_count(monkeypatch, case, forked):
    call, n, error, message, task, lines = CASES[case]
    pids = _recording_fork(monkeypatch)
    t0 = time.perf_counter()
    with pytest.raises(error, match=f"^{re.escape(message)}$") as got:
        call(monkeypatch, n if forked else 1)
    assert time.perf_counter() - t0 < 30.0
    told = [c for c in _causes(got.value) if str(c).startswith(f"{task} raised in a child process\n")]
    if case == "ekf":
        assert [c.step for c in _causes(got.value) if isinstance(c, IntegrationError)] == [3]
    if not forked:
        assert pids == [] and told == []
        return
    assert len(told) == 1 and type(told[0]) is RuntimeError
    assert all(line in str(told[0]) for line in lines) and str(told[0]).endswith(lines[-1])
    _assert_reaped(pids)


@pytest.mark.parametrize("how", ["unpicklable", "exit", "signal"])
def test_a_child_failure_that_cannot_come_back_is_a_runtime_error_naming_the_task(monkeypatch, how):
    # These three differ from the same task run in the caller: an exception
    # that does not pickle comes back as its traceback alone, and a child
    # that ends without sending anything is known only by how it ended.
    class LocalError(Exception):
        pass

    def fail():
        if how == "unpicklable":
            raise LocalError("a local failure")
        if how == "exit":
            os._exit(3)
        os.kill(os.getpid(), signal.SIGKILL)

    want = {
        "unpicklable": r"raised in a child process\nTraceback (?s:.*)\n[\w.<>]*LocalError: a local failure\n",
        "exit": "exited with status 3",
        "signal": f"killed by signal {signal.SIGKILL.value}",
    }
    pids = _recording_fork(monkeypatch)
    with pytest.raises(RuntimeError, match=f"^the failing task {want[how]}$") as got:
        fork_values([("the failing task", fail), SLEEPER], 2)
    assert got.value.__cause__ is None
    assert len(pids) == 2
    _assert_reaped(pids)
