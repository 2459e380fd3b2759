import contextlib
import errno
import functools
import logging
import os
import re
import resource
import signal
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdvcarleman import montecarlo
from vdvcarleman.carleman import (
    BilinearSystem,
    QuadraticSde,
    build_vandevusse,
    embed_order2,
    point_lift,
    vandevusse_coefficients,
)
from vdvcarleman.model import PARAM_SET1, PARAM_SET2, ReactorParams, X0_SET1, X0_SET2, diffusion, drift, float_drift
from vdvcarleman.moments import (BLOCK_STEPS, IntegrationError, augmented_mean_path, grid_index, integrate,
                                 ou_variance)
from vdvcarleman.montecarlo import (
    RANGE_PATHS,
    EnsembleStats,
    PathConfig,
    SimulationError,
    _initial_state,
    em_mean_reference,
    ensemble_moments,
    simulate_path,
    simulate_shared_noise,
    substream_seed,
)

from test_moments import bits, ou_mean

X0 = X0_SET1.as_array()
SYS1 = build_vandevusse(PARAM_SET1)
SYS2 = build_vandevusse(PARAM_SET2)


def ensemble_stats(*args, **kwargs):
    """The statistics of `ensemble_moments` with an empty block."""
    with ensemble_moments(*args, **kwargs) as stats:
        return stats()


def fork_values(tasks, n_procs):
    """The values of `montecarlo._fork_map` with an empty block."""
    with montecarlo._fork_map(tasks, n_procs) as join:
        return join()


def em_path_oracle(cfg, x0, p, increments=None):
    """Euler-Maruyama path of the nonlinear reactor on numpy arrays, checking
    every step: the array loop the float loop of `simulate_path` must match."""
    if increments is None:
        increments = np.random.Generator(np.random.PCG64(cfg.seed)).standard_normal(cfg.n_steps)
    x = np.asarray(x0, dtype=float)
    g = diffusion(p)
    sqdt = np.sqrt(cfg.dt)
    out = np.empty((cfg.n_steps + 1, 3))
    out[0] = x
    for k in range(cfg.n_steps):
        x = x + drift(x, p) * cfg.dt + g * (sqdt * increments[k])
        if not np.isfinite(x).all():
            raise SimulationError(f"non-finite state at step {k + 1} (t={(k + 1) * cfg.dt:.6g})")
        out[k + 1] = x
    return out


def em_rows(cfg, x0, p, z):
    """The float path of `_em_step` from x0 on the normals z, unchecked, one row per grid index."""
    step = montecarlo._em_step(p, cfg.dt, iter(z.tolist()))
    rows = [tuple(x0.tolist())]
    for _ in range(z.size):
        rows.append(step(rows[-1]))
    return np.array(rows)


@pytest.mark.parametrize("p, x0", [(PARAM_SET1, X0), (PARAM_SET2, X0_SET2.as_array())], ids=["set1", "set2"])
def test_nonlinear_path_equals_array_oracle_bit_for_bit(p, x0):
    cfg = PathConfig(dt=0.01, t_end=60.0, seed=17)
    path = simulate_path(cfg, x0, p)
    assert np.array_equal(bits(path), bits(em_path_oracle(cfg, x0, p)))
    # Normals with zeros of both signs, from starts with signed zeros, stepped
    # by `_em_step`.  Where f_i dt underflows to -0.0 at x_i = -0.0 (the
    # subnormal starts), the 0.0 * noise term decides the sign of the zero sum.
    z = np.random.Generator(np.random.PCG64(3)).standard_normal(cfg.n_steps)
    z[::7] = 0.0
    z[3::7] = -0.0
    starts = (x0, np.array([0.0, -0.0, 0.0]), np.array([-0.0, -0.0, -0.0]),
              np.array([-0.0, -0.0, -2e-320]), np.array([-1e-322, -0.0, 0.0]))
    for start in starts:
        assert np.array_equal(bits(em_rows(cfg, start, p, z)), bits(em_path_oracle(cfg, start, p, z)))
    # An infinite normal makes every zero-noise term 0.0 * inf = nan.
    z[2500] = np.inf
    finite = np.isfinite(em_rows(cfg, x0, p, z)).all(axis=1)
    assert finite[:2501].all() and not finite[2501]
    with np.errstate(invalid="ignore"):
        with pytest.raises(SimulationError, match=r"^non-finite state at step 2501 "):
            em_path_oracle(cfg, x0, p, z)


def test_substream_seeds_distinct_and_stable():
    seeds = [substream_seed(42, i) for i in range(20000)]
    assert len(set(seeds)) == len(seeds)
    assert seeds[0] == substream_seed(42, 0)  # deterministic
    assert all(0 <= s < 2**64 for s in seeds)
    with pytest.raises(ValueError):
        substream_seed(42, -1)
    # numpy integers mix as Python ints; a float is not an index
    assert substream_seed(np.int64(42), np.int64(300)) == substream_seed(42, 300)
    assert substream_seed(np.uint64(2**64 - 1), np.int32(7)) == substream_seed(2**64 - 1, 7)
    with pytest.raises(TypeError):
        substream_seed(42, 1.0)


def test_path_config_validation():
    with pytest.raises(ValueError):
        PathConfig(dt=-0.01, t_end=1.0, seed=0)
    with pytest.raises(ValueError, match="seed"):
        PathConfig(dt=0.01, t_end=1.0, seed=-1)
    for bad in (1.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match=r"^seed must be an integer"):
            PathConfig(dt=0.01, t_end=1.0, seed=bad)
    for dt in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match=r"^dt must be a finite"):
            PathConfig(dt=dt, t_end=5.0, seed=0)
    cfg = PathConfig(dt=0.01, t_end=1.0, seed=np.int64(3))
    assert cfg.seed == 3 and type(cfg.seed) is int
    with pytest.raises(TypeError, match="dynamics must be ReactorParams or BilinearSystem, got dict"):
        simulate_path(PathConfig(dt=0.01, t_end=1.0, seed=0), X0, {"k1": 1.0})
    assert PathConfig(dt=0.01, t_end=1.0, seed=0).n_steps == 100


def test_every_path_returns_one_array_of_its_states():
    # Row k is the state at time k * dt; no path returns a time grid.
    cfg = PathConfig(dt=0.01, t_end=0.5, seed=3)
    for path, d in ((simulate_path(cfg, X0, PARAM_SET1), 3),
                    (simulate_path(cfg, X0, SYS1), 9),
                    (simulate_shared_noise(SYS1, X0, cfg.dt, cfg.t_end, cfg.seed), 9),
                    (integrate(float_drift(PARAM_SET1), X0, cfg.dt, cfg.t_end), 3),
                    (augmented_mean_path(SYS1, point_lift(X0), cfg.dt, cfg.t_end), 9),
                    (em_mean_reference(SYS1, X0, cfg.dt, cfg.t_end), 9)):
        assert type(path) is np.ndarray and path.shape == (cfg.n_steps + 1, d)


def test_same_seed_identical_trajectories():
    cfg = PathConfig(dt=0.01, t_end=5.0, seed=314)
    x1 = simulate_path(cfg, X0, PARAM_SET1)
    x2 = simulate_path(cfg, X0, PARAM_SET1)
    assert x1.shape == (cfg.n_steps + 1, 3)
    assert np.array_equal(x1, x2)


def test_zero_noise_path_equals_deterministic_euler():
    p = ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1, beta=0.0)
    cfg = PathConfig(dt=0.01, t_end=5.0, seed=9)
    path = simulate_path(cfg, X0, p)
    y = X0.copy()
    for k in range(cfg.n_steps):
        y = y + drift(y, p) * cfg.dt  # diffusion column is identically zero
        assert np.array_equal(path[k + 1], y)
    assert np.array_equal(diffusion(p), np.zeros(3))


def test_bilinear_start_is_lifted_consistently():
    cfg = PathConfig(dt=0.01, t_end=0.5, seed=1)
    path = simulate_path(cfg, X0, SYS1)
    assert path.shape[1] == 9
    lifted = np.concatenate([X0, np.outer(X0, X0)[np.triu_indices(3)]])
    assert np.array_equal(path[0], lifted)
    # the physical 3-vector is the only start: a 9-vector is a shape error
    for dynamics in (SYS1, PARAM_SET1):
        with pytest.raises(ValueError, match=r"physical 3-vector, got shape \(9,\)"):
            simulate_path(cfg, lifted, dynamics)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_start_whose_lift_overflows_fails_at_step_0():
    # The start is finite but its square is not, so the lifted state at
    # step 0 is the first non-finite one, with or without steps to take.
    sys = embed_order2(QuadraticSde(c=[0.0], lin=[[-1.0]], quad=[[[0.0]]], g=[1.0]))
    for t_end in (0.0, 1.0):
        with pytest.raises(SimulationError, match=r"^non-finite state at step 0 \(t=0\)$"):
            simulate_path(PathConfig(dt=0.01, t_end=t_end, seed=0), [1e200], sys)


_CFG = PathConfig(dt=0.01, t_end=0.1, seed=1)


@pytest.mark.parametrize("start", [
    lambda x0: simulate_path(_CFG, x0, PARAM_SET1),
    lambda x0: simulate_path(_CFG, x0, SYS1),
    lambda x0: ensemble_stats(_CFG, x0, 4, SYS1, record=[10]),
    lambda x0: em_mean_reference(SYS1, x0, _CFG.dt, _CFG.t_end),
], ids=["path-nonlinear", "path-bilinear", "ensemble-bilinear", "em-mean"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_start_is_rejected_at_the_boundary(start, bad):
    with pytest.raises(ValueError, match=r"^initial state must be finite, got \[0\.8, "):
        start([0.8, bad, 0.0])


def test_simulate_path_names_coefficients_passed_as_dynamics():
    cfg = PathConfig(dt=0.01, t_end=1.0, seed=1)
    with pytest.raises(TypeError, match="got QuadraticSde"):
        simulate_path(cfg, X0, vandevusse_coefficients(PARAM_SET1))  # coefficients, not dynamics


def test_divergent_path_reports_step():
    unstable = ReactorParams(k1=1e-6, k2=1e-6, k3=1e3, caf=1.0, v=1e-3, alpha=1e-6, beta=0.0)
    cfg = PathConfig(dt=10.0, t_end=10000.0, seed=0)
    start = np.array([10.0, 0.0, 10.0])
    with pytest.raises(SimulationError, match=r"^non-finite state at step 6 \(t=60\)$") as got:
        simulate_path(cfg, start, unstable)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as want:
            em_path_oracle(cfg, start, unstable)
    assert str(got.value) == str(want.value)


def test_divergence_inside_a_block_matches_array_oracle():
    # The OU factor 1 - alpha dt = -1.005 lets the flow rate grow until the
    # dilution term makes x1 diverge, in the second block of rows.
    unstable = ReactorParams(k1=0.01, k2=0.01, k3=0.01, caf=1.0, v=1e3, alpha=2.005, beta=1.0)
    cfg = PathConfig(dt=1.0, t_end=4000.0, seed=5)
    start = np.array([1.0, 0.0, 0.0])
    with pytest.raises(SimulationError) as got:
        simulate_path(cfg, start, unstable)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationError) as want:
            em_path_oracle(cfg, start, unstable)
    assert str(got.value) == str(want.value)
    k = int(re.search(r"step (\d+)", str(got.value)).group(1))
    assert BLOCK_STEPS + 100 < k < 2 * BLOCK_STEPS - 100


def test_ensemble_matches_individually_simulated_paths():
    cfg = PathConfig(dt=0.01, t_end=1.0, seed=77)
    n = 5
    stats = ensemble_stats(cfg, X0, n, SYS1, record=np.arange(cfg.n_steps + 1))
    paths = []
    for i in range(n):
        single = PathConfig(dt=cfg.dt, t_end=cfg.t_end, seed=substream_seed(cfg.seed, i))
        paths.append(simulate_path(single, X0, SYS1))
    stack = np.stack(paths)
    assert np.allclose(stats.mean, stack.mean(axis=0), atol=1e-12)
    assert np.allclose(stats.var, stack.var(axis=0, ddof=1), atol=1e-12)
    assert np.allclose(stats.stderr, np.sqrt(stats.var / n), atol=1e-300)


@pytest.mark.parametrize("dynamics", [PARAM_SET1, {"k1": 1.0}], ids=["reactor", "dict"])
def test_an_ensemble_takes_only_a_bilinear_system(dynamics):
    # The nonlinear reactor is simulated one path at a time (`simulate_path`).
    name = type(dynamics).__name__
    with pytest.raises(TypeError, match=f"^an ensemble steps a BilinearSystem, got {name}$"):
        ensemble_stats(PathConfig(dt=0.01, t_end=1.0, seed=0), X0, 4, dynamics, record=[])


def test_ensemble_requires_two_paths_and_nonneg_variance():
    cfg = PathConfig(dt=0.01, t_end=0.2, seed=5)
    with pytest.raises(ValueError):
        ensemble_stats(cfg, X0, 1, SYS1, record=[0])
    stats = ensemble_stats(cfg, X0, 30, SYS1, record=np.arange(cfg.n_steps + 1))
    assert np.all(stats.var >= 0.0)
    # All paths share the initial point; the sample mean of n identical
    # values rounds in the last bit for non-power-of-two n, so the t=0
    # variance is zero only to round-off.
    assert np.all(stats.var[0] <= 1e-28)


def test_zero_noise_ensemble_has_zero_variance():
    quiet = build_vandevusse(ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1,
                                           beta=0.0))
    cfg = PathConfig(dt=0.01, t_end=1.0, seed=2)
    stats = ensemble_stats(cfg, X0, 2, quiet, record=np.arange(cfg.n_steps + 1))
    assert np.abs(stats.var).max() == 0.0
    path = simulate_path(cfg, X0, quiet)
    assert np.allclose(stats.mean, path, atol=1e-300)


def test_worker_count_does_not_change_results():
    # Four forked children write their columns of the one shared snapshot;
    # a lost or misplaced column would move the statistics.
    cfg = PathConfig(dt=0.01, t_end=1.0, seed=6)
    n = 4 * RANGE_PATHS + 37  # an uneven four-range split
    a = ensemble_stats(cfg, X0, n, SYS1, n_workers=1, record=[0, 50, 100])
    b = ensemble_stats(cfg, X0, n, SYS1, n_workers=4, record=[0, 50, 100])
    assert np.array_equal(a.mean, b.mean)
    assert np.array_equal(a.var, b.var)


def _recording_fork(monkeypatch):
    """Patch ``os.fork`` to record the pid of every child it makes; returns the list."""
    pids, fork = [], os.fork

    def recorded():
        pid = fork()
        pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded)
    return pids


def _assert_reaped(pids):
    assert pids and 0 not in pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@contextlib.contextmanager
def _raising_after(seconds, error):
    """Raise ``error`` in this process, from a SIGALRM handler, ``seconds`` from now."""
    def handler(signum, frame):
        raise error("interrupted while waiting")

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def test_failed_worker_process_raises_naming_its_paths(monkeypatch):
    # Every range runs in a child; the middle one raises, and the other two
    # are done or killed and reaped as the caller leaves.  The caller raises
    # the child's exception, caused by one naming the range, with its traceback.
    pids = _recording_fork(monkeypatch)
    lockstep = montecarlo._lockstep

    def failing(cfg, x0, dynamics, start, *args):
        if start == RANGE_PATHS:
            raise ValueError("worker range failed")
        return lockstep(cfg, x0, dynamics, start, *args)

    monkeypatch.setattr(montecarlo, "_lockstep", failing)
    cfg = PathConfig(dt=0.01, t_end=0.5, seed=2)
    with pytest.raises(ValueError, match="^worker range failed$") as got:
        ensemble_stats(cfg, X0, 3 * RANGE_PATHS, SYS1, n_workers=3, record=[50])
    cause = str(got.value.__cause__)
    assert cause.startswith("ensemble worker for paths [256, 512) raised in a child process\nTraceback ")
    assert cause.endswith("ValueError: worker range failed\n")
    assert len(pids) == 3
    _assert_reaped(pids)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_an_error_while_waiting_kills_and_reaps_the_workers(monkeypatch, error):
    # The children would sleep for a minute; the caller is interrupted while
    # it waits for them, and the call returns as soon as they are killed.
    pids = _recording_fork(monkeypatch)

    def lockstep(*args):
        time.sleep(60.0)

    monkeypatch.setattr(montecarlo, "_lockstep", lockstep)
    cfg = PathConfig(dt=0.01, t_end=0.5, seed=2)
    t0 = time.perf_counter()
    with pytest.raises(error, match="interrupted while waiting"), _raising_after(0.2, error):
        ensemble_stats(cfg, X0, 3 * RANGE_PATHS, SYS1, n_workers=3, record=[50])
    assert time.perf_counter() - t0 < 30.0
    assert len(pids) == 3
    _assert_reaped(pids)


def test_fork_map_returns_values_in_task_order_when_tasks_finish_out_of_order():
    # The last task is done first; the first one sends more than a pipe holds.
    def task(i):
        def run():
            time.sleep(0.2 * (3 - i))
            return i, time.monotonic(), np.arange(100_000 if i == 0 else i)

        return f"task {i}", run

    values = fork_values([task(i) for i in range(4)], 4)
    assert [v[0] for v in values] == [0, 1, 2, 3]
    done = [v[1] for v in values]
    assert done == sorted(done, reverse=True)
    assert np.array_equal(values[0][2], np.arange(100_000)) and values[3][2].tolist() == [0, 1, 2]


def test_fork_map_never_has_more_than_n_procs_children(monkeypatch):
    # A child counts from its fork until the caller has reaped it.
    alive, most = set(), []
    fork, waitpid = os.fork, os.waitpid

    def counted_fork():
        pid = fork()
        if pid:
            alive.add(pid)
            most.append(len(alive))
        return pid

    def counted_waitpid(pid, options):
        status = waitpid(pid, options)
        alive.discard(pid)
        return status

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    tasks = [(f"task {i}", functools.partial(time.sleep, 0.05 * (i % 3))) for i in range(7)]
    assert fork_values(tasks, 2) == [None] * 7
    assert len(most) == 7 and max(most) == 2 and not alive


def test_fork_map_names_a_raising_task_and_kills_and_reaps_the_others(monkeypatch):
    pids = _recording_fork(monkeypatch)

    def fail():
        raise ValueError("task failed")

    sleep = functools.partial(time.sleep, 60.0)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="^task failed$") as got:
        fork_values([("sleeper", sleep), ("the failing task", fail), ("sleeper", sleep)], 3)
    cause = str(got.value.__cause__)
    assert cause.startswith("the failing task raised in a child process\nTraceback ")
    assert cause.endswith("ValueError: task failed\n")
    assert time.perf_counter() - t0 < 30.0
    assert len(pids) == 3
    _assert_reaped(pids)


def test_fork_map_waits_on_descriptors_above_fd_setsize():
    # select.select takes no descriptor above FD_SETSIZE (1024); with 1100
    # others open, the children's pipes are above it.
    if resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200:
        pytest.skip("fewer than 1200 open descriptors allowed")
    held = []
    try:
        for _ in range(550):
            held.extend(os.pipe())
        assert fork_values([("a", functools.partial(int, 1)), ("b", functools.partial(int, 2))], 2) == [1, 2]
    finally:
        for fd in held:
            os.close(fd)


def test_fork_map_interrupted_while_waiting_kills_and_reaps_every_child(monkeypatch):
    pids = _recording_fork(monkeypatch)
    tasks = [(f"sleeper {i}", functools.partial(time.sleep, 60.0)) for i in range(2)]
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt), _raising_after(0.2, KeyboardInterrupt):
        fork_values(tasks, 2)
    assert time.perf_counter() - t0 < 30.0
    assert len(pids) == 2
    _assert_reaped(pids)


def test_fork_map_without_fork_or_with_one_process_runs_the_tasks_in_the_caller(monkeypatch):
    ran = []

    def task(i):
        def run():
            ran.append(i)
            return i * i, os.getpid()

        return f"task {i}", run

    forked = fork_values([task(i) for i in range(3)], 3)
    assert ran == [] and all(pid != os.getpid() for _, pid in forked)
    assert fork_values([task(i) for i in range(3)], 1) == [(i * i, os.getpid()) for i in range(3)]
    monkeypatch.delattr(os, "fork")
    alone = fork_values([task(i) for i in range(3)], 3)
    assert ran == [0, 1, 2, 0, 1, 2]
    assert alone == [(i * i, os.getpid()) for i in range(3)]
    assert [v for v, _ in alone] == [v for v, _ in forked]


def test_an_ensemble_block_runs_while_the_ranges_are_alive(monkeypatch):
    # Every ensemble range blocks on a pipe until it reads a byte, and only
    # the body of the block writes them: stats() can return only if the body
    # runs while the ranges are alive.
    cfg = PathConfig(dt=0.05, t_end=1.0, seed=12)
    n = 3 * RANGE_PATHS + 5
    want = ensemble_stats(cfg, X0, n, SYS1, n_workers=3, record=[0, 10, 20])
    pids = _recording_fork(monkeypatch)
    gate_r, gate_w = os.pipe()
    lockstep = montecarlo._lockstep

    def gated(*args):
        assert os.read(gate_r, 1) == b"g"
        return lockstep(*args)

    monkeypatch.setattr(montecarlo, "_lockstep", gated)
    try:
        with _raising_after(30.0, TimeoutError), \
                ensemble_moments(cfg, X0, n, SYS1, n_workers=3, record=[0, 10, 20]) as stats:
            assert len(pids) == 3
            for pid in pids:
                assert os.waitpid(pid, os.WNOHANG) == (0, 0)  # still running
            os.write(gate_w, b"ggg")
            got = stats()
    finally:
        os.close(gate_r)
        os.close(gate_w)
    assert np.array_equal(bits(got.mean), bits(want.mean)) and np.array_equal(bits(got.var), bits(want.var))
    _assert_reaped(pids)


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_fork_map_kills_and_reaps_every_child_when_its_block_raises(monkeypatch, error):
    pids = _recording_fork(monkeypatch)
    tasks = [(f"sleeper {i}", functools.partial(time.sleep, 60.0)) for i in range(3)]
    t0 = time.perf_counter()
    with pytest.raises(error, match="^raised in the block$"):
        with montecarlo._fork_map(tasks, 2):
            raise error("raised in the block")
    assert time.perf_counter() - t0 < 30.0
    assert len(pids) == 2
    _assert_reaped(pids)


def test_a_block_left_without_join_leaves_no_child_running(monkeypatch):
    # The children would sleep for a minute; the queued third task is never forked.
    pids = _recording_fork(monkeypatch)
    monkeypatch.setattr(montecarlo, "_lockstep", lambda *args: time.sleep(60.0))
    tasks = [(f"sleeper {i}", functools.partial(time.sleep, 60.0)) for i in range(3)]
    t0 = time.perf_counter()
    with montecarlo._fork_map(tasks, 2):
        assert len(pids) == 2
    with ensemble_moments(PathConfig(dt=0.01, t_end=0.5, seed=2), X0, 3 * RANGE_PATHS, SYS1, n_workers=3,
                          record=[50]):
        assert len(pids) == 5
    assert time.perf_counter() - t0 < 30.0
    _assert_reaped(pids)


def test_fork_map_runs_its_block_first_where_nothing_is_forked(monkeypatch):
    calls = []
    tasks = [(f"task {i}", functools.partial(calls.append, i)) for i in range(3)]
    with montecarlo._fork_map(tasks, 1) as join:
        calls.append("block")
        assert join() == [None] * 3
    assert calls == ["block", 0, 1, 2]
    with montecarlo._fork_map([], 2) as join:
        calls.append("no tasks")
        assert join() == []
    monkeypatch.delattr(os, "fork")
    with montecarlo._fork_map(tasks, 3) as join:
        calls.append("no fork")
        join()
    assert calls == ["block", 0, 1, 2, "no tasks", "no fork", 0, 1, 2]


def test_orphaned_worker_exits_at_its_next_draw_block():
    # The forked process is told its parent is a pid that is not its
    # parent, as a worker sees once its parent has gone: it must leave by
    # os._exit(1) at the first draw block instead of returning.
    cfg = PathConfig(dt=0.01, t_end=1.0, seed=2)
    snap = np.empty((0, 9, 4))
    pid = os.fork()
    if pid == 0:
        try:
            montecarlo._lockstep(cfg, _initial_state(X0, SYS1), SYS1, 0, snap, np.arange(0), 10, None, -1)
        finally:
            os._exit(0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1


def test_without_fork_the_ranges_run_in_the_caller_bit_for_bit(monkeypatch):
    cfg = PathConfig(dt=0.05, t_end=1.0, seed=12)
    n = 3 * RANGE_PATHS + 5
    record = np.arange(cfg.n_steps + 1)
    forked = ensemble_stats(cfg, X0, n, SYS1, n_workers=3, record=record)
    monkeypatch.delattr(os, "fork")
    alone = ensemble_stats(cfg, X0, n, SYS1, n_workers=3, record=record)
    assert np.array_equal(bits(alone.mean), bits(forked.mean))
    assert np.array_equal(bits(alone.var), bits(forked.var))


def test_path_count_is_normalized_at_the_boundary():
    cfg = PathConfig(dt=0.05, t_end=0.5, seed=3)
    want = ensemble_stats(cfg, X0, 300, SYS1, record=[10])
    got = ensemble_stats(cfg, X0, np.int64(300), SYS1, n_workers=np.int32(2), record=[10])
    assert got.n_paths == 300 and type(got.n_paths) is int
    assert np.array_equal(got.mean, want.mean) and np.array_equal(got.var, want.var)
    for bad in (300.0, 2.5, True, "300", None):
        with pytest.raises(ValueError, match=r"^n_paths must be an integer"):
            ensemble_stats(cfg, X0, bad, SYS1, record=[10])
    with pytest.raises(ValueError, match=r"^n_workers must be an integer"):
        ensemble_stats(cfg, X0, 300, SYS1, n_workers=2.0, record=[10])
    with pytest.raises(ValueError, match=r"^n_paths must be at least 2"):
        ensemble_stats(cfg, X0, np.int64(1), SYS1, record=[10])


def test_worker_count_below_one_is_rejected():
    cfg = PathConfig(dt=0.01, t_end=0.1, seed=6)
    for bad in (0, -3):
        with pytest.raises(ValueError, match="n_workers"):
            ensemble_stats(cfg, X0, 4, SYS1, n_workers=bad, record=[10])


def test_nonlinear_ensemble_flow_rate_statistics():
    # The reactor's flow coordinate is an exact OU process started at a
    # point, and row 2 of its embedding is that same process, so the
    # analytic mean and variance are an independent oracle for the sampler.
    p = PARAM_SET1
    cfg = PathConfig(dt=0.01, t_end=20.0, seed=2024)
    stats = ensemble_stats(cfg, X0, 10000, SYS1, record=[grid_index(cfg.dt, 10.0), grid_index(cfg.dt, 20.0)])
    mean_exact = float(ou_mean(X0[2], p.alpha, np.array([10.0]))[0])
    assert abs(stats.mean[0, 2] - mean_exact) <= 3.0 * stats.stderr[0, 2]
    var_exact = float(ou_variance(0.0, p.alpha, p.beta, np.array([20.0]))[0])
    # sampling error of a variance estimate ~ var * sqrt(2/(n-1)); allow an
    # O(dt) discretization margin on top
    var_sd = var_exact * np.sqrt(2.0 / (stats.n_paths - 1))
    tol = 3.0 * var_sd + p.alpha * cfg.dt * var_exact
    assert abs(stats.var[1, 2] - var_exact) <= tol


def em_mean_oracle(sys, x0, dt, t_end):
    """The Euler mean written out step by step, m <- m + (a0 + a m) dt."""
    m = _initial_state(x0, sys)
    out = [m]
    for _ in range(round(t_end / dt)):
        m = m + (sys.a0 + sys.a @ m) * dt
        out.append(m)
    return np.array(out)


@pytest.mark.parametrize("p, x0, t_end", [(PARAM_SET1, X0, 200.0), (PARAM_SET2, X0_SET2.as_array(), 400.0)],
                         ids=["set1", "set2"])
def test_em_mean_reference_is_the_euler_recursion(p, x0, t_end):
    sys = build_vandevusse(p)
    euler = em_mean_reference(sys, x0, 0.01, t_end)
    oracle = em_mean_oracle(sys, x0, 0.01, t_end)
    assert euler.shape == oracle.shape == (round(t_end / 0.01) + 1, 9)
    assert np.abs(euler - oracle).max() <= 1e-12 * np.abs(oracle).max()


def test_em_mean_reference_is_exact_expectation():
    # For the linear augmented system the EM ensemble mean follows the
    # Euler-discretized mean ODE exactly, up to sampling noise.
    cfg = PathConfig(dt=0.01, t_end=2.0, seed=99)
    k = grid_index(cfg.dt, 2.0)
    stats = ensemble_stats(cfg, X0, 4000, SYS1, record=[k])
    euler = em_mean_reference(SYS1, X0, cfg.dt, cfg.t_end)
    assert np.all(np.abs(stats.mean[0] - euler[k]) <= 4.0 * stats.stderr[0] + 1e-15)


def test_em_mean_reference_blowup_names_first_nonfinite_time():
    # dx = x dt + dB: the Euler mean of the x^2 slot grows 1.2x a step at
    # dt = 0.1 and overflows near t = 389.
    sys = embed_order2(QuadraticSde(c=[0.0], lin=[[1.0]], quad=[[[0.0]]], g=[1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=r"non-finite state at t=") as err:
            em_mean_reference(sys, [1.0], 0.1, 2000.0)
    k = round(float(str(err.value).rsplit("t=", 1)[1]) / 0.1)
    assert 3800 < k < 4000
    # The step before is finite, and one more step of the Euler recursion overflows.
    before = em_mean_reference(sys, [1.0], 0.1, (k - 1) * 0.1)
    m = before[-1]
    assert np.isfinite(before).all()
    with np.errstate(over="ignore"):
        assert not np.isfinite(m + (sys.a0 + sys.a @ m) * 0.1).all()


def test_bilinear_x1_slot_mean_matches_mean_ode():
    # The physical slots carry enough realization noise that the ensemble
    # mean matches even the exact mean ODE within plain standard errors.
    cfg = PathConfig(dt=0.01, t_end=10.0, seed=42)
    ks = [grid_index(cfg.dt, 5.0), grid_index(cfg.dt, 10.0)]
    stats = ensemble_stats(cfg, X0, 2500, SYS1, record=ks)
    xi0 = point_lift(X0)
    ode = augmented_mean_path(SYS1, xi0, cfg.dt, cfg.t_end)
    for r, k in enumerate(ks):
        assert abs(stats.mean[r, 0] - ode[k, 0]) <= 3.0 * stats.stderr[r, 0]


def test_bilinear_ensemble_mean_tracks_mean_ode_with_bias_floor():
    # Against the exact mean ODE the comparison needs the O(dt) scheme-bias
    # floor for the nearly noiseless components; the full-scale statistical
    # validation (bias-free reference) runs in the acceptance suite.
    cfg = PathConfig(dt=0.01, t_end=5.0, seed=12)
    ks = [grid_index(cfg.dt, 1.0), grid_index(cfg.dt, 5.0)]
    stats = ensemble_stats(cfg, X0, 2000, SYS1, record=ks)
    xi0 = point_lift(X0)
    ode = augmented_mean_path(SYS1, xi0, cfg.dt, cfg.t_end)
    rates = SYS1.a0 + ode[::50] @ SYS1.a.T
    floor = 2.0 * cfg.dt * np.abs(rates).max(axis=0)
    for r, k in enumerate(ks):
        bound = np.maximum(3.0 * stats.stderr[r], floor)
        assert np.all(np.abs(stats.mean[r] - ode[k]) <= bound)


def test_shared_noise_pair_tracks():
    x_nl = simulate_path(PathConfig(dt=0.01, t_end=200.0, seed=42), X0, PARAM_SET1)
    xi_bl = simulate_shared_noise(SYS1, X0, 0.01, 200.0, seed=42)
    gap1 = np.abs(x_nl[:, 0] - xi_bl[:, 0]).max()
    gap2 = np.abs(x_nl[:, 1] - xi_bl[:, 1]).max()
    # Qualitative tracking: the embedded path stays close to the exact one
    # for the whole horizon (observed ~0.08 for this seed).
    assert gap1 < 0.35 and gap2 < 0.35
    assert x_nl.shape == (20001, 3) and xi_bl.shape == (20001, 9)
    # both paths consumed identical increments: the OU coordinate agrees exactly
    assert np.abs(x_nl[:, 2] - xi_bl[:, 2]).max() <= 1e-12


def test_ensemble_stats_container_shape():
    cfg = PathConfig(dt=0.1, t_end=1.0, seed=0)
    stats = ensemble_stats(cfg, X0, 8, SYS1, record=np.arange(cfg.n_steps + 1))
    assert isinstance(stats, EnsembleStats)
    assert stats.n_paths == 8
    assert stats.mean.shape == stats.var.shape == stats.stderr.shape == (11, 9)


# ---------------------------------------------------------------------------
# Oracle: all paths stepped row-major through the whole grid, the state
# snapshot at every grid index and reduced once over the paths axis.
# ---------------------------------------------------------------------------


def _oracle_fns(sys):
    """(drift_fn, noise_fn) of row-major (paths, d) states: the array form
    of the Euler-Maruyama step that the ensemble must match bit for bit."""
    return (lambda x: sys.a0 + x @ sys.a.T), (lambda x: sys.g + x @ sys.d.T)


def _oracle_ensemble(cfg, x0, n_paths, sys):
    """Full-grid (mean, var): every path stepped row-major with ``x @ a.T``,
    ``x.T`` snapshot into (n_grid, d, n_paths), one reduction over axis 2."""
    drift_fn, noise_fn = _oracle_fns(sys)
    x0 = _initial_state(x0, sys)
    n_steps = cfg.n_steps
    z = np.empty((n_paths, n_steps))
    for i in range(n_paths):
        z[i] = np.random.Generator(np.random.PCG64(substream_seed(cfg.seed, i))).standard_normal(n_steps)
    sqdt = np.sqrt(cfg.dt)
    x = np.tile(x0, (n_paths, 1))
    snap = np.empty((n_steps + 1, x0.size, n_paths))
    snap[0] = x.T
    for k in range(n_steps):
        x = x + drift_fn(x) * cfg.dt + noise_fn(x) * (sqdt * z[:, k, None])
        snap[k + 1] = x.T
    return snap.mean(axis=2), snap.var(axis=2, ddof=1)


@pytest.mark.parametrize("sys", [SYS1, SYS2], ids=["bilinear", "set2"])
@pytest.mark.parametrize("n_paths", [2, 3, 100, RANGE_PATHS, RANGE_PATHS + 1, RANGE_PATHS + 37, 3 * RANGE_PATHS])
def test_lockstep_ensemble_is_bit_identical_to_chunk_loop(monkeypatch, sys, n_paths):
    # The name predates the path-loop oracle, and the id "bilinear" (set 1)
    # the set 2 case; both are kept so the test ids stay.
    # 60 steps drawn 7 at a time: the last draw block is partial.  With 2 or
    # 3 paths, 4 workers get one range, as 1 worker does.  Cutting 257 paths
    # at 256 would leave a one-path range, whose matrix-vector product
    # rounds differently; the even split gives 128 and 129.
    monkeypatch.setattr(montecarlo, "DRAW_BUFFER", 7 * n_paths)
    cfg = PathConfig(dt=0.05, t_end=3.0, seed=17)
    mean, var = _oracle_ensemble(cfg, X0, n_paths, sys)
    for workers in (1, 2, 3, 4):
        stats = ensemble_stats(cfg, X0, n_paths, sys, n_workers=workers, record=np.arange(cfg.n_steps + 1))
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.var, var)


@settings(max_examples=120, deadline=None)
@given(
    system=st.sampled_from(["set1", "set2"]),
    n_paths=st.integers(min_value=2, max_value=800),
    workers=st.integers(min_value=1, max_value=4),
    block=st.integers(min_value=1, max_value=13),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    record=st.lists(st.integers(min_value=0, max_value=12), max_size=6),
)
def test_lockstep_ensemble_equals_chunk_loop_property(system, n_paths, workers, block, seed, record):
    cfg = PathConfig(dt=0.05, t_end=0.6, seed=seed)  # 12 steps
    sys = SYS1 if system == "set1" else SYS2
    mean, var = _oracle_ensemble(cfg, X0, n_paths, sys)
    rows = np.asarray(record, dtype=int)
    with mock.patch.object(montecarlo, "DRAW_BUFFER", block * n_paths):
        stats = ensemble_stats(cfg, X0, n_paths, sys, n_workers=workers, record=record)
    assert np.array_equal(stats.mean, mean[rows])
    assert np.array_equal(stats.var, var[rows])


def _random_embedding(n, seed):
    """``embed_order2`` of a random stable quadratic SDE with nonzero ``c``.

    ``g`` is nonzero in every entry but the last for n >= 3, so the system
    has noise rows with two nonzeros in ``d`` (n >= 2), rows with one, and
    rows with none.
    """
    rng = np.random.default_rng(seed)
    g = rng.uniform(0.1, 0.4, n) * rng.choice([-1.0, 1.0], n)
    if n >= 3:
        g[-1] = 0.0
    sde = QuadraticSde(c=rng.uniform(-0.2, 0.2, n), lin=rng.uniform(-0.3, 0.3, (n, n)) - np.eye(n),
                       quad=rng.uniform(-0.1, 0.1, (n, n, n)), g=g)
    return embed_order2(sde)


@pytest.mark.parametrize("sys", [SYS1, build_vandevusse(PARAM_SET2), _random_embedding(3, 7)],
                         ids=["set1", "set2", "quadratic"])
def test_component_major_products_equal_row_major_bit_for_bit(sys):
    # The ensemble steps its (d, n) state with a @ X and, on the active noise
    # rows R, d[R] @ X; the path loop oracle (and every earlier version) with
    # x @ a.T on the row-major (n, d) state.  OpenBLAS returns them bit for
    # bit; if a numpy or BLAS build ever stops doing so, this test names the
    # cause.
    rng = np.random.default_rng(2024)
    scale = np.abs(_initial_state(X0, sys)) + 1.0
    active = np.flatnonzero(sys.d.any(axis=1) | (sys.g != 0.0))
    assert active.size >= 2
    d_active = np.ascontiguousarray(sys.d[active])
    for n in (1, 2, 7, 100, RANGE_PATHS, RANGE_PATHS + 37, 3 * RANGE_PATHS, 1536, 2560, 10_000):
        big = np.ascontiguousarray((rng.standard_normal((n, sys.a.shape[0])) * scale).T)
        rows = np.ascontiguousarray(big.T)
        for m in (sys.a, sys.d):
            got = np.matmul(m, big)
            assert np.array_equal(bits(got), bits((rows @ m.T).T)), n
            assert np.array_equal(bits(got), bits((big.T @ m.T).T)), n
        assert np.array_equal(bits(np.matmul(d_active, big)), bits((rows @ sys.d.T).T[active])), n


def test_default_draw_block_is_bit_identical_to_chunk_loop():
    cfg = PathConfig(dt=0.01, t_end=2.0, seed=5)
    n = 2 * RANGE_PATHS + 1
    mean, var = _oracle_ensemble(cfg, X0, n, SYS1)
    stats = ensemble_stats(cfg, X0, n, SYS1, n_workers=2, record=np.arange(cfg.n_steps + 1))
    assert np.array_equal(stats.mean, mean)
    assert np.array_equal(stats.var, var)


@pytest.mark.parametrize("start", [(1.0, -0.0, -0.0), (-0.0, -0.0, -0.0), (-0.0, -0.0, -1e-320)],
                         ids=["one-negzero", "negzero", "subnormal"])
def test_signed_zero_starts_are_bit_identical_to_chunk_loop(start):
    # The sparse step skips adds of zero, which can change only an entry of
    # -0.0, and only rows that start at -0.0 can hold one.  From the
    # subnormal start x1's drift increment underflows to -0.0 at the first
    # step, so x1 stays -0.0 unless its (0 + 0) * w noise add is made: the
    # step keeps every add on the rows that start at -0.0.
    x0 = _initial_state(start, SYS1)
    assert np.signbit(x0).any()
    cfg = PathConfig(dt=0.05, t_end=1.0, seed=23)
    n = 2 * RANGE_PATHS + 37
    mean, var = _oracle_ensemble(cfg, start, n, SYS1)
    for workers in (1, 3):
        stats = ensemble_stats(cfg, start, n, SYS1, n_workers=workers, record=np.arange(cfg.n_steps + 1))
        assert np.array_equal(bits(stats.mean), bits(mean))
        assert np.array_equal(bits(stats.var), bits(var))
    # numpy sums -0.0 entries to +0.0, so the statistics cannot show the sign
    # of a zero; the state itself is compared with the row-major step.
    w = np.sqrt(cfg.dt) * np.random.default_rng(5).standard_normal((20, 7))
    x = np.repeat(x0[:, None], 7, axis=1)
    step = montecarlo._ensemble_step(SYS1, cfg.dt, x)
    drift_fn, noise_fn = _oracle_fns(SYS1)
    rows = np.tile(x0, (7, 1))
    for wk in w:
        step(wk)
        rows = rows + drift_fn(rows) * cfg.dt + noise_fn(rows) * wk[:, None]
        assert np.array_equal(bits(x), bits(rows.T))


def _one_noise_row():
    """A system whose only noise row, row 4, sums five products."""
    d = np.zeros((5, 5))
    d[4] = (0.31, -0.17, 0.23, 0.11, -0.29)
    return BilinearSystem(n=2, a0=np.zeros(5), a=-np.eye(5), d=d, g=np.zeros(5))


@pytest.mark.parametrize("sys", [*(_random_embedding(n, 100 + n) for n in (1, 2, 3, 4)), _one_noise_row()],
                         ids=["quadratic-n1", "quadratic-n2", "quadratic-n3", "quadratic-n4", "one-noise-row"])
def test_general_bilinear_ensembles_are_bit_identical_to_chunk_loop(sys):
    # Noise rows of embed_order2 hold up to two nonzeros of d, and for n >= 3
    # some rows have no noise: the step forms the active rows as one
    # row-subset product d[R] @ X.  A single noise row would make that a
    # vector-matrix product, which rounds differently; the step widens R to
    # all rows.
    assert sys.n == 1 or (np.count_nonzero(sys.d, axis=1) >= 2).any()
    cfg = PathConfig(dt=0.05, t_end=1.0, seed=41)
    x0 = np.random.default_rng(sys.n).uniform(-1.0, 1.0, sys.n)
    paths = 2 * RANGE_PATHS + 37
    mean, var = _oracle_ensemble(cfg, x0, paths, sys)
    for workers in (1, 3):
        stats = ensemble_stats(cfg, x0, paths, sys, n_workers=workers, record=np.arange(cfg.n_steps + 1))
        assert np.array_equal(bits(stats.mean), bits(mean))
        assert np.array_equal(bits(stats.var), bits(var))


def test_recorded_rows_equal_full_grid_rows():
    cfg = PathConfig(dt=0.05, t_end=3.0, seed=8)
    n = RANGE_PATHS + 37
    full = ensemble_stats(cfg, X0, n, SYS1, record=np.arange(cfg.n_steps + 1))
    record = [60, 0, 17, 17, 33]
    for workers in (1, 2):
        part = ensemble_stats(cfg, X0, n, SYS1, n_workers=workers, record=record)
        assert np.array_equal(part.mean, full.mean[record])
        assert np.array_equal(part.var, full.var[record])
        assert np.array_equal(part.stderr, full.stderr[record])
    empty = ensemble_stats(cfg, X0, n, SYS1, record=[])
    assert empty.mean.shape == empty.var.shape == empty.stderr.shape == (0, 9)


def test_record_rejects_bad_indices():
    cfg = PathConfig(dt=0.05, t_end=3.0, seed=8)
    for bad in ([61], [-1], [0.5], [[1, 2]], 5, None, np.int64(3), np.array(4)):
        with pytest.raises(ValueError, match="record"):
            ensemble_stats(cfg, X0, 4, SYS1, record=bad)


def test_blocked_draws_equal_one_long_draw():
    n = 1000
    long = np.random.Generator(np.random.PCG64(substream_seed(3, 7))).standard_normal(n)
    gen = np.random.Generator(np.random.PCG64(substream_seed(3, 7)))
    buf = np.empty(7)
    blocks = []
    for k in range(0, n, buf.size):
        part = buf[: min(buf.size, n - k)]
        gen.standard_normal(out=part)
        blocks.append(part.copy())
    assert np.array_equal(np.concatenate(blocks), long)


# The embedded reactor with an unstable OU factor, 1 - alpha dt = -4 at
# dt = 20: every path's x3 x3 slot overflows near step 320, at a step set
# by the path's own noise.
UNSTABLE = build_vandevusse(ReactorParams(k1=0.01, k2=0.01, k3=0.01, caf=1.0, v=1.0, alpha=0.25, beta=1.0))


def _first_nonfinite_steps(cfg, x0, n_paths, sys):
    """Per path, the first step at which the row-major path loop leaves the finite range."""
    drift_fn, noise_fn = _oracle_fns(sys)
    x = np.tile(_initial_state(x0, sys), (n_paths, 1))
    first = np.zeros(n_paths, dtype=int)
    sqdt = np.sqrt(cfg.dt)
    gens = [np.random.Generator(np.random.PCG64(substream_seed(cfg.seed, i))) for i in range(n_paths)]
    z = np.array([gen.standard_normal(cfg.n_steps) for gen in gens])
    for k in range(cfg.n_steps):
        x = x + drift_fn(x) * cfg.dt + noise_fn(x) * (sqdt * z[:, k, None])
        first[(first == 0) & ~np.isfinite(x).all(axis=1)] = k + 1
    assert first.all()
    return first


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_ensemble_blowup_reports_earliest_step_over_all_chunks():
    # For this seed the first divergence is in the second of 3 worker
    # ranges, one step before any path of the first.
    cfg = PathConfig(dt=20.0, t_end=7000.0, seed=33)
    x0 = np.array([1.0, 0.0, 0.0])
    n = 2 * RANGE_PATHS + 37
    first = _first_nonfinite_steps(cfg, x0, n, UNSTABLE)
    path = int(np.argmin(first))
    step = int(first[path])
    assert path >= n // 3 and step < first[:n // 3].min()
    for workers in (1, 3):
        with pytest.raises(SimulationError, match=rf"path {path} non-finite at step {step} \("):
            ensemble_stats(cfg, x0, n, UNSTABLE, n_workers=workers, record=[cfg.n_steps])


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_blowups_in_several_ranges_report_as_one_range():
    # Every path diverges, so all three forked ranges return failures at
    # once; for seeds 30 and 33 paths of two ranges fail at the earliest
    # step.  The lowest of them is reported, in the first range for some
    # seeds and in the second or third for others, as with one range.
    x0 = np.array([1.0, 0.0, 0.0])
    n = 2 * RANGE_PATHS + 37
    ranges = set()
    for seed in (30, 31, 32, 33):
        cfg = PathConfig(dt=20.0, t_end=7000.0, seed=seed)
        with pytest.raises(SimulationError) as want:
            ensemble_stats(cfg, x0, n, UNSTABLE, n_workers=1, record=[cfg.n_steps])
        with pytest.raises(SimulationError, match=f"^{re.escape(str(want.value))}$"):
            ensemble_stats(cfg, x0, n, UNSTABLE, n_workers=3, record=[cfg.n_steps])
        ranges.add(int(re.search(r"^path (\d+)", str(want.value)).group(1)) * 3 // n)
    assert ranges == {0, 1, 2}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_bilinear_blowup_inside_a_draw_block_reports_earliest_step(monkeypatch):
    # The product slot y steps y <- y (1 + 100 dt + 100 sqrt(dt) z): its
    # multiplicative noise sets the step at which each path overflows.  For
    # this seed the first divergence is in the third of 3 worker ranges.
    # The state is checked once per 64-step draw block, so the failing block
    # is replayed; the failure falls mid-block, with a recorded index after
    # it in the same block.
    sys = BilinearSystem(n=1, a0=[0.0, 0.0], a=[[0.0, 0.0], [0.0, 100.0]], d=[[0.0, 0.0], [0.0, 100.0]],
                         g=[1.0, 0.0])
    cfg = PathConfig(dt=1.0, t_end=180.0, seed=34)
    n = 2 * RANGE_PATHS + 37
    failures = []
    for i in range(n):
        with pytest.raises(SimulationError) as exc:
            simulate_path(PathConfig(dt=cfg.dt, t_end=cfg.t_end, seed=substream_seed(cfg.seed, i)), [1.0], sys)
        failures.append((int(re.search(r"step (\d+)", str(exc.value)).group(1)), i))
    step, path = min(failures)
    block = 64
    assert path >= 2 * n // 3 and 0 < (step - 1) % block < block - 1
    monkeypatch.setattr(montecarlo, "DRAW_BUFFER", block * n)
    for workers in (1, 3):
        with pytest.raises(SimulationError, match=rf"^path {path} non-finite at step {step} \("):
            ensemble_stats(cfg, [1.0], n, sys, n_workers=workers, record=[step - 1, step + 1])


def test_ensemble_progress_is_logged(caplog):
    # One range logs its progress in the caller; a forked range 0 logs in its
    # child, and the caller writes only the last line.  Every line names its
    # ensemble, and the cost on the last one is the ranges' own: it leaves
    # out the second that the body of the block sleeps.
    cfg = PathConfig(dt=0.01, t_end=2.0, seed=1)
    for workers, n_lines in ((1, 10), (2, 1)):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="vdvcarleman.montecarlo"):
            with ensemble_moments(cfg, X0, 2 * RANGE_PATHS, SYS1, n_workers=workers, record=[]) as stats:
                time.sleep(1.0)
                stats()
        lines = [r.message for r in caplog.records if r.name == "vdvcarleman.montecarlo"]
        assert len(lines) == n_lines
        assert all(line.startswith("MC ensemble (512 paths, seed 1): step ") for line in lines)
        assert "step 200/200 (100%)" in lines[-1] and "ETA" in lines[-1]
        # the last line, written once every worker is done, carries the cost
        m = re.search(r"; (\d+) path-steps in ([0-9.]+) s, ([0-9.]+) ns per path-step$", lines[-1])
        assert m and int(m.group(1)) == 2 * RANGE_PATHS * 200
        assert 0.0 < float(m.group(3)) and float(m.group(2)) < 1.0
        assert all("path-steps" not in line for line in lines[:-1])


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_fork_map_closes_the_pipe_of_a_fork_that_fails(monkeypatch):
    # The second fork fails as it would when the process limit is reached;
    # the first child is killed and reaped, and no descriptor is left open.
    real_fork, forks = os.fork, []

    def fork():
        forks.append(len(forks))
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(BlockingIOError):
        fork_values([("sleeper", functools.partial(time.sleep, 30.0)), ("second", int)], 2)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert forks == [0, 1]
