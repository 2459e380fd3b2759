"""Seeded Euler-Maruyama simulation and ensemble moment estimation.

Paths of either the exact nonlinear reactor SDE or its bilinear Carleman
embedding are generated with the Euler-Maruyama scheme

    x[k+1] = x[k] + f(x[k]) dt + g(x[k]) sqrt(dt) z[k],

with z[k] i.i.d. standard normal.  Reproducibility contract:

* normal increments come from numpy's PCG64 generator (ziggurat
  transform), so a given seed yields bit-identical trajectories across
  runs of one build;
* ensemble path i draws from the substream seed
  ``substream_seed(seed, i)``, a SplitMix64 mix that is injective in the
  path index, so substreams never collide;
* an ensemble is cut into fixed chunks of CHUNK_SIZE paths.  All chunks
  of a contiguous range advance in lockstep as one array, each chunk
  seeing exactly the floating-point operations it would see alone, and
  each path draws its normals a block of time steps at a time (blocked
  draws from one generator equal one long draw);
* per-chunk mean and M2 are computed only at the grid indices asked for
  (``record``) and reduced in fixed chunk order with a pairwise merge,
  so the output bytes do not depend on worker count, draw block length
  or which indices are recorded.
"""
from __future__ import annotations

import logging
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .carleman import BilinearSystem
from .kronecker import reduce_square
from .model import ReactorParams, diffusion, drift
from .moments import grid_steps

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


def substream_seed(seed: int, index: int) -> int:
    """Derive the RNG seed for ensemble path ``index``.

    SplitMix64 finalizer applied to ``seed + (index + 1) * golden`` mod
    2**64.  The pre-mix map is injective in ``index`` (odd multiplier) and
    the finalizer is a bijection, so distinct indices give distinct seeds
    by construction; the finalizer's avalanche decorrelates neighbours.
    """
    if index < 0:
        raise ValueError("path index must be nonnegative")
    z = (seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class PathConfig:
    """Grid, seed, and system selector for path simulation."""

    dt: float
    t_end: float
    seed: int
    system: str = "nonlinear"  # or "bilinear"

    def __post_init__(self):
        grid_steps(self.dt, self.t_end)  # validates dt, t_end
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.system not in ("nonlinear", "bilinear"):
            raise ValueError(f"unknown system selector {self.system!r}")

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


def _dynamics_fns(cfg: PathConfig, dynamics):
    """Return (drift_fn, noise_fn) operating on (..., d) state arrays."""
    if cfg.system == "nonlinear":
        if not isinstance(dynamics, ReactorParams):
            raise TypeError("nonlinear paths need ReactorParams dynamics")
        g = diffusion(dynamics)
        return (lambda x: drift(x, dynamics)), (lambda x: np.broadcast_to(g, x.shape))
    if not isinstance(dynamics, BilinearSystem):
        raise TypeError("bilinear paths need BilinearSystem dynamics")
    sys = dynamics
    return (lambda x: sys.a0 + x @ sys.a.T), (lambda x: sys.g + x @ sys.d.T)


def _initial_state(cfg: PathConfig, x0, dynamics) -> np.ndarray:
    x0 = np.asarray(x0, dtype=float)
    if cfg.system == "nonlinear":
        if x0.shape != (3,):
            raise ValueError("nonlinear initial state must be a 3-vector")
        return x0
    dim = dynamics.dim
    n = dynamics.n
    if x0.shape == (n,):
        return np.concatenate([x0, reduce_square(x0)])
    if x0.shape == (dim,):
        lifted = reduce_square(x0[:n])
        if np.any(np.abs(x0[n:] - lifted) > 1e-12 * (1.0 + np.abs(lifted))):
            raise ValueError("bilinear initial state is inconsistent with its product slots")
        return x0
    raise ValueError(f"initial state must have shape ({n},) or ({dim},)")


def simulate_path(cfg: PathConfig, x0, dynamics, increments: np.ndarray | None = None):
    """Euler-Maruyama trajectory of one path.  Returns (t, X).

    ``dynamics`` is ReactorParams for the nonlinear system or a
    BilinearSystem for the embedded one; a physical 3-vector start is
    lifted onto the product slots automatically.  ``increments``, if
    given, are the standard-normal draws to consume (length n_steps);
    passing the same array to both systems couples them through shared
    noise.  Omitted, they come from the seeded generator.
    """
    x = _initial_state(cfg, x0, dynamics)
    drift_fn, noise_fn = _dynamics_fns(cfg, dynamics)
    n_steps = cfg.n_steps
    if increments is None:
        increments = np.random.Generator(np.random.PCG64(cfg.seed)).standard_normal(n_steps)
    else:
        increments = np.asarray(increments, dtype=float)
        if increments.shape != (n_steps,):
            raise ValueError(f"need {n_steps} increments, got shape {increments.shape}")
    sqdt = np.sqrt(cfg.dt)
    out = np.empty((n_steps + 1, x.size))
    out[0] = x
    for k in range(n_steps):
        x = x + drift_fn(x) * cfg.dt + noise_fn(x) * (sqdt * increments[k])
        if not np.all(np.isfinite(x)):
            raise SimulationError(f"non-finite state at step {k + 1} (t={(k + 1) * cfg.dt:.6g})")
        out[k + 1] = x
    return np.arange(n_steps + 1) * cfg.dt, out


@dataclass
class _Lockstep:
    """Equal-sized chunks advanced as one array.

    ``x`` is (n_chunks, CHUNK_SIZE, d) for full chunks or (size, d) for the
    uneven last chunk; reductions run over axis -2, so each chunk is
    reduced exactly as it would be alone.
    """

    first: int  # ensemble index of the first path
    x: np.ndarray
    z: np.ndarray  # this block's normals, x.shape[:-1] + (block,)
    mean: np.ndarray  # x.shape[:-2] + (n_record, d)
    m2: np.ndarray

    @classmethod
    def start(cls, first: int, x0: np.ndarray, z: np.ndarray, n_record: int) -> "_Lockstep":
        """All paths at ``x0``; the path shape is that of ``z`` without its step axis."""
        shape = z.shape[:-1]
        stats = (*shape[:-1], n_record, x0.size)
        return cls(first, np.tile(x0, (*shape, 1)), z, np.empty(stats), np.empty(stats))

    def save(self, r: int):
        mu = self.x.mean(axis=-2, keepdims=True)
        self.mean[..., r, :] = mu[..., 0, :]
        self.m2[..., r, :] = ((self.x - mu) ** 2).sum(axis=-2)

    def chunks(self) -> list:
        if self.x.ndim == 2:
            return [(self.x.shape[0], self.mean, self.m2)]
        return [(CHUNK_SIZE, mean, m2) for mean, m2 in zip(self.mean, self.m2)]


def _lockstep_stats(cfg: PathConfig, x0: np.ndarray, dynamics, start: int, count: int,
                    record: np.ndarray, block: int, progress: bool):
    """Advance paths [start, start+count) in lockstep; per-chunk mean and M2 at ``record``.

    Path i draws its normals from its own substream, ``block`` steps at a
    time, and every floating-point operation on it is the one a lone
    chunk would do.  Returns (chunks, failure): the (count, mean, m2) of
    each chunk in chunk order, and None or the (step, path) of the
    earliest step at which a path left the finite range.
    """
    drift_fn, noise_fn = _dynamics_fns(cfg, dynamics)
    n_steps, d = cfg.n_steps, x0.size
    n_full, rest = divmod(count, CHUNK_SIZE)
    split = n_full * CHUNK_SIZE
    gens = [np.random.Generator(np.random.PCG64(substream_seed(cfg.seed, start + i))) for i in range(count)]
    z = np.empty((count, min(block, n_steps)))
    groups = []
    if n_full:
        groups.append(_Lockstep.start(start, x0, z[:split].reshape(n_full, CHUNK_SIZE, z.shape[1]), record.size))
    if rest:
        groups.append(_Lockstep.start(start + split, x0, z[split:], record.size))

    r = 0
    if record.size and record[0] == 0:
        for g in groups:
            g.save(0)
        r = 1
    sqdt = np.sqrt(cfg.dt)
    log_every = -(-n_steps // 10)
    t_start = time.perf_counter()
    for k in range(n_steps):
        j = k % block
        if j == 0:
            n_draw = min(block, n_steps - k)
            for i, gen in enumerate(gens):
                gen.standard_normal(out=z[i, :n_draw])
        for g in groups:
            step = drift_fn(g.x) * cfg.dt
            noise = noise_fn(g.x) * (sqdt * g.z[..., j, None])
            g.x += step
            g.x += noise
            if not np.isfinite(g.x).all():
                bad = np.flatnonzero(~np.isfinite(g.x).reshape(-1, d).all(axis=1))[0]
                return None, (k + 1, g.first + int(bad))
        if r < record.size and record[r] == k + 1:
            for g in groups:
                g.save(r)
            r += 1
        if progress and ((k + 1) % log_every == 0 or k + 1 == n_steps):
            elapsed = time.perf_counter() - t_start
            logger.info("MC ensemble: step %d/%d (%.0f%%), ETA %.1f s", k + 1, n_steps,
                        100.0 * (k + 1) / n_steps, elapsed * (n_steps - k - 1) / (k + 1))
    return [c for g in groups for c in g.chunks()], None


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
    of the result belongs to grid index ``record[r]``.
    """
    if n_paths < 2:
        raise ValueError("ensemble needs at least 2 paths")
    x0 = _initial_state(cfg, x0, dynamics)
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
    cfg = PathConfig(dt=dt, t_end=t_end, seed=0, system="bilinear")
    m = _initial_state(cfg, x0, sys)
    n_steps = cfg.n_steps
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
    n_steps = grid_steps(dt, t_end)
    z = np.random.Generator(np.random.PCG64(seed)).standard_normal(n_steps)
    t, x_nl = simulate_path(PathConfig(dt=dt, t_end=t_end, seed=seed, system="nonlinear"), x0, p, increments=z)
    _, xi_bl = simulate_path(PathConfig(dt=dt, t_end=t_end, seed=seed, system="bilinear"), x0, sys, increments=z)
    return t, x_nl, xi_bl
