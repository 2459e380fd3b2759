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
* an ensemble is cut into fixed chunks of CHUNK_SIZE paths.  A worker
  holds its contiguous range of chunks as one C-contiguous (d, count)
  array, one column per path, and steps it in place with buffers made
  once per call: the bilinear drift is ``a @ X`` plus the ``a0`` column,
  times dt, and the noise ``d @ X`` plus the ``g`` column, times each
  path's sqrt(dt) z.  Each path sees the operations, in the same order,
  of the row-major step x + f(x) dt + g(x) (sqrt(dt) z) of one chunk
  alone (OpenBLAS returns ``a @ X`` bit for bit as ``(X^T @ a^T)^T``,
  pinned by a test).  Each path draws its normals a block of time steps
  at a time (blocked draws from one generator equal one long draw);
* per-chunk mean and M2 are computed only at the grid indices asked for
  (``record``), on a row-major (count, d) copy of the state, and reduced
  in fixed chunk order with a pairwise merge, so the output bytes do not
  depend on worker count, draw block length or which indices are
  recorded.
"""
from __future__ import annotations

import logging
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .carleman import BilinearSystem, point_lift
from .model import ReactorParams, diffusion, drift
from .moments import BLOCK_STEPS, grid_steps

# Paths per reduction chunk.  Fixed: changing it would change the (still
# deterministic) floating-point reduction order, and worker counts must not.
CHUNK_SIZE = 256

# Cap on the normals buffered at once, summed over all paths of an ensemble
# (2**20 doubles, 8 MB): each path draws this many // n_paths steps at a
# time.  Draws are sequential per substream, so the cap changes memory and
# speed only, never the numbers.
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

    The nonlinear reactor steps a tuple of floats with `model.drift`
    written out in its operation order; the zero entries of its diffusion
    column still add their 0.0 * (sqrt(dt) z) terms, so signed zeros come
    out as the array form gives them.  The bilinear system steps a numpy
    vector, since its x @ a^T and x @ d^T are BLAS products.
    """
    sqdt = np.sqrt(dt)
    if isinstance(dynamics, BilinearSystem):
        sys = dynamics
        return lambda x, z: x + (sys.a0 + x @ sys.a.T) * dt + (sys.g + x @ sys.d.T) * (sqdt * z)
    p = dynamics
    neg_k1, k1, k2, k3, caf, v, neg_a, b = -p.k1, p.k1, p.k2, p.k3, p.caf, p.v, -p.alpha, p.beta
    sqdt = float(sqdt)

    def step(x, z):
        x1, x2, x3 = x
        w = sqdt * z
        return (
            x1 + (neg_k1 * x1 - k3 * x1 * x1 + (x3 / v) * (caf - x1)) * dt + 0.0 * w,
            x2 + (k1 * x1 - k2 * x2 - (x3 / v) * x2) * dt + 0.0 * w,
            x3 + (neg_a * x3) * dt + b * w,
        )

    return step


def _ensemble_step(dynamics, dt: float):
    """In-place Euler-Maruyama step of an ensemble held component-major.

    ``step(x, w, inc, noise)`` advances the (d, count) state ``x`` by
    x <- (x + f(x) dt) + g(x) w, where ``w`` holds each path's
    sqrt(dt) z and ``inc`` and ``noise`` are (d, count) buffers it
    overwrites.  Each entry sees the operations of the row-major form
    ``x + f(x) * dt + g(x) * (sqrt(dt) z)`` in the same order: the
    bilinear products are ``a @ X`` and ``d @ X``, which OpenBLAS returns
    bit for bit as the transposes of ``X^T @ a^T`` and ``X^T @ d^T``
    (pinned in ``tests/test_montecarlo.py``).
    """
    if isinstance(dynamics, BilinearSystem):
        a, d = dynamics.a, dynamics.d
        a0, g = dynamics.a0[:, None], dynamics.g[:, None]

        def step(x, w, inc, noise):
            np.matmul(a, x, out=inc)
            inc += a0
            inc *= dt
            np.matmul(d, x, out=noise)
            noise += g
            noise *= w
            x += inc
            x += noise
    else:
        p = dynamics
        g = diffusion(p)[:, None]

        def step(x, w, inc, noise):
            np.multiply(drift(x.T, p).T, dt, out=inc)
            np.multiply(g, w, out=noise)
            x += inc
            x += noise

    return step


def _lockstep_stats(cfg: PathConfig, x0: np.ndarray, dynamics, start: int, count: int,
                    record: np.ndarray, block: int, progress: bool):
    """Advance paths [start, start+count) in lockstep; per-chunk mean and M2 at ``record``.

    The paths are the columns of one C-contiguous (d, count) array,
    stepped in place with buffers made once.  Path i draws its normals
    from its own substream, ``block`` steps at a time, and every
    floating-point operation on it is the one a lone chunk would do.  At
    a recorded index the state is copied to row-major (count, d), and the
    full chunks are reduced as one (n_full, CHUNK_SIZE, d) array, the
    uneven last chunk as a (rest, d) array.  Returns (chunks, failure):
    the (count, mean, m2) of each chunk in chunk order, and None or the
    (step, path) of the earliest step at which a path left the finite
    range, the lowest such path.
    """
    n_steps, d = cfg.n_steps, x0.size
    n_full, rest = divmod(count, CHUNK_SIZE)
    split = n_full * CHUNK_SIZE
    gens = [np.random.Generator(np.random.PCG64(substream_seed(cfg.seed, start + i))) for i in range(count)]
    z = np.empty((count, min(block, n_steps)))
    x = np.repeat(x0[:, None], count, axis=1)
    inc, noise, w = np.empty_like(x), np.empty_like(x), np.empty(count)
    finite = np.empty(x.shape, dtype=bool)
    rows = np.empty((count, d))
    groups = []  # (paths, mean, m2): reductions run over axis -2, chunk by chunk
    chunks = []  # (count, mean, m2) per chunk, views into the group statistics
    if n_full:
        stats = (n_full, record.size, d)
        mean, m2 = np.empty(stats), np.empty(stats)
        groups.append((rows[:split].reshape(n_full, CHUNK_SIZE, d), mean, m2))
        chunks += [(CHUNK_SIZE, mean[c], m2[c]) for c in range(n_full)]
    if rest:
        mean, m2 = np.empty((record.size, d)), np.empty((record.size, d))
        groups.append((rows[split:], mean, m2))
        chunks.append((rest, mean, m2))

    def save(r):
        np.copyto(rows, x.T)
        for paths, mean, m2 in groups:
            mu = paths.mean(axis=-2, keepdims=True)
            mean[..., r, :] = mu[..., 0, :]
            m2[..., r, :] = ((paths - mu) ** 2).sum(axis=-2)

    r = 0
    if record.size and record[0] == 0:
        save(0)
        r = 1
    step = _ensemble_step(dynamics, cfg.dt)
    sqdt = np.sqrt(cfg.dt)
    log_every = -(-n_steps // 10)
    t_start = time.perf_counter()
    for k in range(n_steps):
        j = k % block
        if j == 0:
            n_draw = min(block, n_steps - k)
            for i, gen in enumerate(gens):
                gen.standard_normal(out=z[i, :n_draw])
        np.multiply(z[:, j], sqdt, out=w)
        step(x, w, inc, noise)
        np.isfinite(x, out=finite)
        if not finite.all():
            return None, (k + 1, start + int(np.flatnonzero(~finite.all(axis=0))[0]))
        if r < record.size and record[r] == k + 1:
            save(r)
            r += 1
        if progress and (k + 1) % log_every == 0 and k + 1 < n_steps:
            elapsed = time.perf_counter() - t_start
            logger.info("MC ensemble: step %d/%d (%.0f%%), ETA %.1f s", k + 1, n_steps,
                        100.0 * (k + 1) / n_steps, elapsed * (n_steps - k - 1) / (k + 1))
    return chunks, None


def _merge_stats(acc, chunk):
    """Pairwise mean/M2 merge (Chan et al.); keeps M2 nonnegative."""
    n_a, mean_a, m2_a = acc
    n_b, mean_b, m2_b = chunk
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return n, mean, m2


def ensemble_moments(
    cfg: PathConfig, x0, n_paths: int, dynamics, n_workers: int = 1, record=None
) -> EnsembleStats:
    """Sample mean and unbiased variance over a seeded ensemble.

    Path i uses the substream seed ``substream_seed(cfg.seed, i)``.  Paths
    are grouped in fixed chunks of CHUNK_SIZE; ``n_workers`` splits the
    chunk list into contiguous ranges, each advanced in lockstep on a
    thread, and the chunk statistics are merged in chunk order, so the
    result is independent of ``n_workers``.  ``record`` lists the grid
    indices at which statistics are kept (default: the whole grid); row r
    of the result belongs to grid index ``record[r]``.  Progress goes to
    the log, the last line with the path-steps made and the wall time per
    path-step.
    """
    t_start = time.perf_counter()
    n_paths, n_workers = as_int("n_paths", n_paths), as_int("n_workers", n_workers)
    if n_paths < 2:
        raise ValueError(f"n_paths must be at least 2, got {n_paths}")
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    x0 = _initial_state(x0, dynamics)
    n_steps = cfg.n_steps
    if record is None:
        record = np.arange(n_steps + 1)
    else:
        record = np.asarray(record) if len(record) else np.empty(0, dtype=int)
        if record.ndim != 1 or not np.issubdtype(record.dtype, np.integer):
            raise ValueError("record must be a 1-D sequence of grid indices")
        if record.size and (record.min() < 0 or record.max() > n_steps):
            raise ValueError(f"record indices must lie in [0, {n_steps}]")
    steps, rows = np.unique(record, return_inverse=True)

    n_chunks = -(-n_paths // CHUNK_SIZE)
    n_ranges = max(1, min(n_workers, n_chunks))
    bounds = [CHUNK_SIZE * (n_chunks * w // n_ranges) for w in range(n_ranges + 1)]
    bounds[-1] = n_paths
    block = max(1, DRAW_BUFFER // n_paths)

    def run(w):
        first, last = bounds[w], bounds[w + 1]
        return _lockstep_stats(cfg, x0, dynamics, first, last - first, steps, block, progress=w == 0)

    if n_ranges > 1:
        with ThreadPoolExecutor(max_workers=n_ranges) as pool:
            results = list(pool.map(run, range(n_ranges)))
    else:
        results = [run(0)]
    failures = [f for _, f in results if f is not None]
    if failures:
        step, path = min(failures)
        raise SimulationError(f"path {path} non-finite at step {step} (t={step * cfg.dt:.6g})")

    chunks = [c for cs, _ in results for c in cs]
    acc = chunks[0]
    for chunk in chunks[1:]:
        acc = _merge_stats(acc, chunk)
    n, mean, m2 = acc
    assert n == n_paths
    mean, var = mean[rows], m2[rows] / (n_paths - 1)
    path_steps = n_paths * n_steps
    elapsed = time.perf_counter() - t_start
    logger.info("MC ensemble: step %d/%d (100%%), ETA 0.0 s; %d path-steps in %.2f s, %.1f ns per path-step",
                n_steps, n_steps, path_steps, elapsed, 1e9 * elapsed / max(path_steps, 1))
    return EnsembleStats(n_paths=n_paths, t=record * cfg.dt, mean=mean, var=var, stderr=np.sqrt(var / n_paths))


def em_mean_reference(sys: BilinearSystem, x0, dt: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Exact expectation of the Euler-Maruyama chain for the bilinear system.

    Because the system is bilinear and the increments are zero-mean and
    independent of the state, the ensemble mean of EM paths follows the
    Euler-discretized mean ODE exactly:

        m[k+1] = m[k] + (a0 + a m[k]) dt.

    This is the bias-free reference for ensemble-mean validation; an ODE
    solution of higher order differs from it by the O(dt) scheme bias,
    which has nothing to do with how the system matrices were assembled.
    """
    n_steps = grid_steps(dt, t_end)
    m = _initial_state(x0, sys)
    out = np.empty((n_steps + 1, m.size))
    out[0] = m
    for k in range(n_steps):
        m = m + (sys.a0 + sys.a @ m) * dt
        out[k + 1] = m
    return np.arange(n_steps + 1) * dt, out


def simulate_shared_noise(p: ReactorParams, sys: BilinearSystem, x0, dt: float, t_end: float, seed: int):
    """One nonlinear and one bilinear path driven by identical increments.

    Returns (t, x_nonlinear, xi_bilinear).  Shared noise makes the pair
    directly comparable: the remaining gap is the truncation error, not
    realization noise.
    """
    cfg = PathConfig(dt=dt, t_end=t_end, seed=seed)
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal(cfg.n_steps)
    t, x_nl = simulate_path(cfg, x0, p, increments=z)
    _, xi_bl = simulate_path(cfg, x0, sys, increments=z)
    return t, x_nl, xi_bl
