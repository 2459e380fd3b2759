"""Seeded Euler-Maruyama simulation and ensemble moment estimation.

Paths of either the exact nonlinear reactor SDE or its bilinear Carleman
embedding are generated with the Euler-Maruyama scheme

    x[k+1] = x[k] + f(x[k]) dt + g(x[k]) sqrt(dt) z[k],

with z[k] i.i.d. standard normal.  A single path (`simulate_path`) of
the nonlinear reactor steps Python floats in the operation order of the
array form, so it is bit-identical to it; a single bilinear path stays on
numpy, whose x @ a^T is a BLAS product.  Reproducibility contract:

* normal increments come from numpy's PCG64 generator (ziggurat
  transform), so a given seed yields bit-identical trajectories across
  runs of one build;
* ensemble path i draws from the substream seed
  ``substream_seed(seed, i)``, a SplitMix64 mix that is injective in the
  path index, so substreams never collide;
* an ensemble is split into contiguous worker ranges.  Range 0 runs in
  the calling process and every other range in a child of it made by
  ``os.fork`` (one after another in the calling process where there is
  no fork).  A worker holds its range as one C-contiguous (d, count)
  array, one column per path, and steps it in place with buffers made
  once per call.  The bilinear step pays for the nonzeros of the system:
  the drift is ``a @ X`` plus ``a0`` on its nonzero rows, times dt, and
  the noise is formed only on the rows where ``d`` or ``g`` has a
  nonzero, as ``d[R] @ X`` plus ``g``, times each path's sqrt(dt) z.  Each path sees the operations,
  in the same order, of the row-major step
  x + f(x) dt + g(x) (sqrt(dt) z) of the whole ensemble at once, less
  adds of zero that cannot change it (OpenBLAS returns ``a @ X`` and
  ``d[R] @ X`` bit for bit as the row-major products, pinned by a
  test).  Each path draws its normals a block of time steps at a time
  (blocked draws from one generator equal one long draw), and the state
  is checked for finiteness once per block: a block that ends
  non-finite is replayed from its start, checking every step;
* at the grid indices asked for (``record``) each worker copies its
  state into its column slice of one (n_record, d, n_paths) snapshot,
  which lives in an anonymous shared mapping made before any fork, so
  the children's columns land in the caller's array.  Once every worker
  is done, the mean and the unbiased variance are taken over the paths
  axis of that snapshot, in one reduction.  The snapshot is the same
  array however the paths are split, so the output bytes do not depend
  on worker count, draw block or which indices are recorded.

`em_mean_reference`, the exact mean of the bilinear chain, is Euler's map
of the augmented mean ODE; `simulate_shared_noise` is the bilinear partner
of a seed's nonlinear path, which a run simulates once.
"""
from __future__ import annotations

import logging
import mmap
import operator
import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from .carleman import BilinearSystem, point_lift
from .model import ReactorParams, diffusion, drift, float_drift
from .moments import BLOCK_STEPS, _affine_mean_path, grid_steps

# An ensemble gets at most one worker range per RANGE_PATHS paths, and its
# paths are split evenly over the ranges, so a range of a split holds more
# than RANGE_PATHS / 2.  It sets only the work per worker: each path is
# stepped in its own column and the statistics come from the gathered
# snapshot, so it cannot move a bit of the output.  A range is never one
# path, whose ``a @ X`` numpy would take as a matrix-vector product, which
# rounds differently from the matrix product of two or more columns.
RANGE_PATHS = 256

# Cap on the normals buffered at once, summed over all paths of an ensemble
# and so over its worker processes (2**20 doubles, 8 MB): each path draws
# this many // n_paths steps at a time.  Draws are sequential per
# substream, so the cap changes memory and speed only, never the numbers.  A short ensemble buffers its whole
# horizon: 400 paths of 2000 steps hold all 6.4 MB of their normals at once.
DRAW_BUFFER = 1 << 20

logger = logging.getLogger(__name__)

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class SimulationError(RuntimeError):
    """Raised when a simulated path leaves the finite range."""


def as_int(name: str, value) -> int:
    """``value`` as a Python int, or a ValueError naming ``name``.

    Accepts Python and numpy integers (anything with ``__index__``) and
    rejects bools, floats (even integral ones) and everything else.
    """
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def substream_seed(seed: int, index: int) -> int:
    """Derive the RNG seed for ensemble path ``index``.

    SplitMix64 finalizer applied to ``seed + (index + 1) * golden`` mod
    2**64.  The pre-mix map is injective in ``index`` (odd multiplier) and
    the finalizer is a bijection, so distinct indices give distinct seeds
    by construction; the finalizer's avalanche decorrelates neighbours.
    """
    seed, index = operator.index(seed), operator.index(index)
    if index < 0:
        raise ValueError("path index must be nonnegative")
    z = (seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class PathConfig:
    """Grid and seed for path simulation; the dynamics passed alongside pick the system."""

    dt: float
    t_end: float
    seed: int

    def __post_init__(self):
        grid_steps(self.dt, self.t_end)  # validates dt, t_end
        object.__setattr__(self, "seed", as_int("seed", self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")

    @property
    def n_steps(self) -> int:
        return grid_steps(self.dt, self.t_end)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-component sample mean/variance over an ensemble at the recorded grid times."""

    n_paths: int
    t: np.ndarray  # (n_record,)
    mean: np.ndarray  # (n_record, d)
    var: np.ndarray  # (n_record, d), unbiased
    stderr: np.ndarray  # sqrt(var / n_paths)


def _initial_state(x0, dynamics) -> np.ndarray:
    """The physical start ``x0``, lifted onto the product slots for a bilinear system."""
    bilinear = isinstance(dynamics, BilinearSystem)
    if not (bilinear or isinstance(dynamics, ReactorParams)):
        raise TypeError(f"dynamics must be ReactorParams or BilinearSystem, got {type(dynamics).__name__}")
    x0 = np.asarray(x0, dtype=float)
    n = dynamics.n if bilinear else 3
    if x0.shape != (n,):
        raise ValueError(f"initial state must be a physical {n}-vector, got shape {x0.shape}")
    if not np.isfinite(x0).all():
        raise ValueError(f"initial state must be finite, got {x0.tolist()}")
    return point_lift(x0) if bilinear else x0


def simulate_path(cfg: PathConfig, x0, dynamics, increments: np.ndarray | None = None):
    """Euler-Maruyama trajectory of one path.  Returns (t, X).

    ``dynamics`` is ReactorParams for the nonlinear system or a
    BilinearSystem for the embedded one; the start ``x0`` is always the
    physical n-vector, lifted onto the product slots for the latter.
    ``increments``, if given, are the standard-normal draws to consume
    (length n_steps); passing the same array to both systems couples them
    through shared noise.  Omitted, they come from the seeded generator.
    Steps are stored in blocks of `BLOCK_STEPS` rows, each checked as it
    is stored: `SimulationError` names the first non-finite step.
    """
    x = _initial_state(x0, dynamics)
    n_steps = cfg.n_steps
    if increments is None:
        increments = np.random.Generator(np.random.PCG64(cfg.seed)).standard_normal(n_steps)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps,):
            raise ValueError(f"need {n_steps} increments, got shape {increments.shape}")
    step = _em_step(dynamics, cfg.dt)
    out = np.empty((n_steps + 1, x.size))
    out[0] = x
    if isinstance(dynamics, ReactorParams):
        x = x.tolist()
    for start in range(1, n_steps + 1, BLOCK_STEPS):
        rows = []
        for z in increments[start - 1:start - 1 + BLOCK_STEPS].tolist():
            x = step(x, z)
            rows.append(x)
        block = out[start:start + len(rows)]
        block[:] = rows
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            k = start + int(np.argmin(finite))
            raise SimulationError(f"non-finite state at step {k} (t={k * cfg.dt:.6g})")
    return np.arange(n_steps + 1) * cfg.dt, out


def _em_step(dynamics, dt: float):
    """One Euler-Maruyama step x <- (x + f(x) dt) + g(x) (sqrt(dt) z) of a single path.

    The nonlinear reactor steps a tuple of floats with `model.float_drift`;
    the zero entries of its diffusion column still add their
    0.0 * (sqrt(dt) z) terms, so signed zeros come out as the array form
    gives them.  The bilinear system steps a numpy vector, since its
    x @ a^T and x @ d^T are BLAS products.
    """
    sqdt = np.sqrt(dt)
    if isinstance(dynamics, BilinearSystem):
        sys = dynamics
        return lambda x, z: x + (sys.a0 + x @ sys.a.T) * dt + (sys.g + x @ sys.d.T) * (sqdt * z)
    f, b = float_drift(dynamics), dynamics.beta
    sqdt = float(sqdt)

    def step(x, z):
        x1, x2, x3 = x
        f1, f2, f3 = f(x)
        w = sqdt * z
        return (x1 + f1 * dt + 0.0 * w, x2 + f2 * dt + 0.0 * w, x3 + f3 * dt + b * w)

    return step


def _ensemble_step(dynamics, dt: float, x: np.ndarray):
    """In-place Euler-Maruyama step of the paths held component-major in ``x``.

    ``step(w)`` advances the (d, count) state ``x`` by
    x <- (x + f(x) dt) + g(x) w, where ``w`` holds each path's
    sqrt(dt) z; its buffers and row views are made here, once.  Each
    entry sees the operations of the row-major form
    ``x + f(x) * dt + g(x) * (sqrt(dt) z)`` in the same order, less adds
    that cannot change it.

    The bilinear step pays for the nonzeros of the system.  The drift is
    ``a @ X`` on every row, plus ``a0`` where it is nonzero, times dt.  The
    noise is formed only on the active rows R, where ``d`` or ``g`` has a
    nonzero: ``d[R] @ X``, plus ``g`` where it is nonzero, times ``w``,
    added row by row after the drift.  OpenBLAS returns ``a @ X`` and
    ``d[R] @ X`` bit for bit as ``(X^T @ a^T)^T`` and the rows R of
    ``(X^T @ d^T)^T`` (pinned in ``tests/test_montecarlo.py``); a one-row
    R would be a vector-matrix product, which rounds differently, so it
    widens to all rows.  A skipped add is of a zero (an entry of ``a0`` or
    ``g``, or the noise of a row where ``d`` and ``g`` are zero), so
    without it a term added to the state can differ only in the sign of a
    zero, and adding a zero changes an entry only if that entry is -0.0.
    x + y is -0.0 only if x is, so only a row that holds -0.0 when the
    step is built can ever hold it; such rows keep every add.
    """
    if isinstance(dynamics, BilinearSystem):
        a, d, a0, g = dynamics.a, dynamics.d, dynamics.a0, dynamics.g
        neg_zero = ((x == 0.0) & np.signbit(x)).any(axis=1)
        rows = np.flatnonzero(d.any(axis=1) | (g != 0.0) | neg_zero)
        if rows.size == 1:
            rows = np.arange(g.size)
        d_rows = np.ascontiguousarray(d[rows])
        inc, noise = np.empty_like(x), np.empty((rows.size, x.shape[1]))
        drift_adds = [(inc[r], float(a0[r])) for r in np.flatnonzero((a0 != 0.0) | neg_zero)]
        noise_adds = [(noise[i], float(g[r])) for i, r in enumerate(rows) if g[r] != 0.0 or neg_zero[r]]
        state_adds = [(x[r], noise[i]) for i, r in enumerate(rows)]

        def step(w):
            np.matmul(a, x, out=inc)
            for row, c in drift_adds:
                np.add(row, c, out=row)
            np.multiply(inc, dt, out=inc)
            np.matmul(d_rows, x, out=noise)
            for row, c in noise_adds:
                np.add(row, c, out=row)
            np.multiply(noise, w, out=noise)
            np.add(x, inc, out=x)
            for row, dx in state_adds:
                np.add(row, dx, out=row)
    else:
        p = dynamics
        g = diffusion(p)[:, None]
        inc, noise = np.empty_like(x), np.empty_like(x)

        def step(w):
            np.multiply(drift(x.T, p).T, dt, out=inc)
            np.multiply(g, w, out=noise)
            np.add(x, inc, out=x)
            np.add(x, noise, out=x)

    return step


def _lockstep(cfg: PathConfig, x0: np.ndarray, dynamics, start: int, snap: np.ndarray,
              record: np.ndarray, block: int, progress: bool, parent: int | None = None):
    """Advance paths [start, start+count) in lockstep, copying the state into ``snap`` at ``record``.

    ``record`` holds sorted, distinct grid indices, and ``snap`` is the
    range's (n_record, d, count) column slice of the ensemble snapshot.
    The paths are the columns of one C-contiguous (d, count) array,
    stepped in place with buffers made once.  Path i draws its normals
    from its own substream, ``block`` steps at a time.

    Every update adds to the state in place, so a non-finite entry never
    becomes finite again: the state is checked once, at the end of each
    draw block.  A block that ends non-finite is replayed from a copy of
    its start state on the same draws, checking every step.

    ``parent`` is given only in a forked worker: the pid of the process
    that forked it.  Once its parent has gone, the worker exits at its
    next draw block.

    Returns None, or the (step, path) of the earliest step at which a
    path left the finite range, the lowest such path.
    """
    n_steps, count = cfg.n_steps, snap.shape[2]
    gens = [np.random.Generator(np.random.PCG64(substream_seed(cfg.seed, start + i))) for i in range(count)]
    z = np.empty((count, min(block, n_steps)))
    x = np.repeat(x0[:, None], count, axis=1)
    x_block, w = np.empty_like(x), np.empty(count)
    step = _ensemble_step(dynamics, cfg.dt, x)
    sqdt = np.sqrt(cfg.dt)

    def advance(k0, n):
        """Step the n draws of the block that starts after grid index k0, yielding each new index."""
        for j in range(n):
            np.multiply(z[:, j], sqdt, out=w)
            step(w)
            yield k0 + j + 1

    r = 0
    if record.size and record[0] == 0:
        snap[0] = x
        r = 1
    log_every = -(-n_steps // 10)
    t_start = time.perf_counter()
    for k0 in range(0, n_steps, block):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        n = min(block, n_steps - k0)
        for i, gen in enumerate(gens):
            gen.standard_normal(out=z[i, :n])
        np.copyto(x_block, x)
        for k in advance(k0, n):
            if r < record.size and record[r] == k:
                snap[r] = x
                r += 1
            if progress and k % log_every == 0 and k < n_steps:
                elapsed = time.perf_counter() - t_start
                logger.info("MC ensemble: step %d/%d (%.0f%%), ETA %.1f s", k, n_steps,
                            100.0 * k / n_steps, elapsed * (n_steps - k) / k)
        if not np.isfinite(x).all():
            np.copyto(x, x_block)
            for k in advance(k0, n):
                failed = ~np.isfinite(x).all(axis=0)
                if failed.any():
                    return k, start + int(np.flatnonzero(failed)[0])
    return None


def ensemble_moments(
    cfg: PathConfig, x0, n_paths: int, dynamics, n_workers: int = 1, *, record
) -> EnsembleStats:
    """Sample mean and unbiased variance over a seeded ensemble.

    Path i uses the substream seed ``substream_seed(cfg.seed, i)``.
    ``n_workers`` splits the paths into contiguous ranges, each advanced
    in lockstep by one process: range 0 by the caller, every other range
    by a child forked for it (where ``os.fork`` is missing, the caller
    advances the ranges one after another).  ``record`` lists the grid
    indices at which statistics are kept; row r of the result belongs to
    grid index ``record[r]``.  Every range writes its states at those
    indices into one (n_record, d, n_paths) snapshot, held with a
    (n_ranges, 3) record of each range's (failed, step, path) in an
    anonymous shared mapping made before the forks.  The mean and
    ``ddof=1`` variance are taken over the snapshot's paths axis once
    every range is done, so the result is independent of ``n_workers``.

    A child leaves by ``os._exit``, without logging or flushing what it
    inherited: 0 once its range is done, non-zero on any exception, which
    the caller reports as a `RuntimeError` naming the child's paths.  A
    child still running when the caller leaves, on an exception or an
    interrupt, is killed and reaped, so no process outlives the call.
    Progress goes to the log from range 0, the last line with the
    path-steps made and the wall time per path-step.
    """
    t_start = time.perf_counter()
    n_paths, n_workers = as_int("n_paths", n_paths), as_int("n_workers", n_workers)
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    x0 = _initial_state(x0, dynamics)
    n_steps = cfg.n_steps
    record = np.asarray(record)
    if record.shape == (0,):
        record = record.astype(int)
    if record.ndim != 1 or not np.issubdtype(record.dtype, np.integer):
        raise ValueError("record must be a 1-D sequence of grid indices")
    if record.size and (record.min() < 0 or record.max() > n_steps):
        raise ValueError(f"record indices must lie in [0, {n_steps}]")
    steps, rows = np.unique(record, return_inverse=True)

    n_ranges = min(n_workers, -(-n_paths // RANGE_PATHS))
    bounds = [n_paths * w // n_ranges for w in range(n_ranges + 1)]
    block = max(1, DRAW_BUFFER // n_paths)
    shared = mmap.mmap(-1, 8 * (steps.size * x0.size * n_paths + 3 * n_ranges))
    snap = np.ndarray((steps.size, x0.size, n_paths), buffer=shared)
    failures = np.ndarray((n_ranges, 3), dtype=np.int64, buffer=shared, offset=snap.nbytes)

    def run(w, parent=None):
        first, last = bounds[w], bounds[w + 1]
        failure = _lockstep(cfg, x0, dynamics, first, snap[:, :, first:last], steps, block, w == 0, parent)
        if failure is not None:
            failures[w] = (1, *failure)

    forked = range(1, n_ranges) if hasattr(os, "fork") else range(0)
    children, parent = {}, os.getpid()
    try:
        for w in forked:
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    run(w, parent)
                    code = 0
                finally:
                    os._exit(code)
            children[pid] = w
        for w in range(n_ranges):
            if w not in forked:
                run(w)
        for pid, w in list(children.items()):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code:
                raise RuntimeError(f"ensemble worker for paths [{bounds[w]}, {bounds[w + 1]}) "
                                   f"exited with status {code}")
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(step, path) for flag, step, path in failures.tolist() if flag]
    if failed:
        step, path = min(failed)
        raise SimulationError(f"path {path} non-finite at step {step} (t={step * cfg.dt:.6g})")

    mean, var = snap.mean(axis=2)[rows], snap.var(axis=2, ddof=1)[rows]
    path_steps = n_paths * n_steps
    elapsed = time.perf_counter() - t_start
    logger.info("MC ensemble: step %d/%d (100%%), ETA 0.0 s; %d path-steps in %.2f s, %.1f ns per path-step",
                n_steps, n_steps, path_steps, elapsed, 1e9 * elapsed / max(path_steps, 1))
    return EnsembleStats(n_paths=n_paths, t=record * cfg.dt, mean=mean, var=var, stderr=np.sqrt(var / n_paths))


def em_mean_reference(sys: BilinearSystem, x0, dt: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact expectation of the Euler-Maruyama chain for the bilinear system.

    Because the system is bilinear and the increments are zero-mean and
    independent of the state, the ensemble mean of EM paths follows the
    Euler-discretized mean ODE exactly, m[k+1] = m[k] + (a0 + a m[k]) dt:
    on z = (m, 1) the affine map z <- (I + dt M) z, with M the generator
    [[a, a0], [0, 0]] that `moments.augmented_mean_path` steps with RK4.

    This is the bias-free reference for ensemble-mean validation; an ODE
    solution of higher order differs from it by the O(dt) scheme bias,
    which has nothing to do with how the system matrices were assembled.
    `IntegrationError` names the time of the first non-finite mean.
    """
    return _affine_mean_path(sys, _initial_state(x0, sys), dt, t_end, lambda gen, h: np.eye(len(gen)) + h * gen)


def simulate_shared_noise(sys: BilinearSystem, x0, dt: float, t_end: float, seed: int):
    """(t, xi): the bilinear `simulate_path` on the normals of ``seed``'s nonlinear path.

    Shared noise makes the pair directly comparable: the remaining gap is
    the truncation error, not realization noise.
    """
    return simulate_path(PathConfig(dt=dt, t_end=t_end, seed=seed), x0, sys)
