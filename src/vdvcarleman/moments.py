"""Conditional moment propagation for the reactor and its bilinear embedding.

Under the lift the moment equations of the bilinear state are linear,

    dm = a0 + a m,   dP = a P + P a^T + d P d^T + (g + d m)(g + d m)^T,

and a forced or affine linear ODE is a linear ODE on an augmented state
(Van Loan, IEEE TAC 23(3), 1978).  So one fixed RK4 step of each moment
path here is an exact linear map, which `_rk4_map` builds from the
step's four stage generators once per call, and `_linear_path`, the one
loop of y[k+1] = A_k y[k], applies it (`ekf` builds and steps its
per-step covariance maps with the same two):

* the augmented mean (`augmented_mean_path`) steps z = (m, 1) by a
  (dim+1)x(dim+1) matrix; it is the one integrator of the augmented
  mean (`em_mean_reference` steps its Euler map by the same function).
* the physical path (`integrate_physical`): the 3-vector mean and the
  covariance of (C_A, C_B, F_r).  This is the reporting path; all
  variance tables and error curves come from it.  Its nine moment ODEs
  are the augmented mean ODE in other coordinates, so it steps the
  augmented mean and recovers P_ij = E[x_i x_j] - m_i m_j.
* the augmented path (`integrate_augmented`): mean and covariance of the
  full 9-dim bilinear state.  It exists for cross-validation of the
  assembled system matrices.  It steps one state, the upper triangles of
  P and of z z^T, by one matrix (`_augmented_step_map`), and reads the
  mean from the (i, dim) entries of z z^T.

`_float_path` is the one loop of a float state: the EKF mean's unrolled
RK4 and the single Euler-Maruyama path of `montecarlo` step on it, and so
does `integrate`, the float RK4 of `physical_rhs`, the nine hand-derived
moment ODEs, which `crosscheck_mean_paths` compares with
`integrate_physical`: two independent formulations of one ODE, whose
maximum discrepancy should sit at integrator-noise level.  The augmented
COVARIANCE differs from the physical one by construction (it treats each
product slot as an independent coordinate) and is never reconciled with
it.

Every `MomentSeries` path takes the same initial data: a plain mean
vector and covariance matrix of the physical state, checked for shape and
finiteness and symmetrized on entry.  Every path computes and stores the
covariance as its upper triangle in product-slot order; only
`MomentSeries.covariance` maps (i, j) to a slot.  No positive-semidefiniteness
repair is applied: order-2 truncation can legitimately drive the physical
covariance indefinite, and that behaviour must stay observable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .carleman import BilinearSystem, build_vandevusse
from .model import ReactorParams

GRID_TOL = 1e-7  # steps off the grid still counted on it: 1e-9 s at dt = 0.01

# Steps per block of `_float_path` and, by default, of `_linear_path`:
# their row lists and buffers stay small whatever the horizon.
BLOCK_STEPS = 1024


class IntegrationError(RuntimeError):
    """Raised when an integration produces a non-finite state, the one at grid index ``step``."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


def _check_dt(dt: float) -> None:
    if not (math.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be a finite positive number, got {dt!r}")


class _OffGrid(ValueError):
    """A time that is not a whole number of steps, within GRID_TOL of one."""


def grid_steps(dt: float, t_end: float) -> int:
    """Number of fixed steps covering [0, t_end]: `grid_index` of t_end, which must sit on the grid."""
    _check_dt(dt)
    if not (math.isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be a finite nonnegative number, got {t_end!r}")
    try:
        return grid_index(dt, t_end)
    except _OffGrid:
        raise ValueError(f"t_end={t_end} is not a multiple of dt={dt}") from None


def grid_index(dt: float, time: float) -> int:
    """Exact grid lookup: index of ``time`` on the dt-grid, no interpolation.

    Raises `ValueError` for a time off the grid, and for one whose step
    count time / dt is not finite or above the largest array index.
    """
    _check_dt(dt)
    if not math.isfinite(time):
        raise ValueError(f"time must be finite, got {time!r}")
    q = time / dt
    if not math.fabs(q) <= np.iinfo(np.intp).max:  # a float against an int: exact; rejects inf
        raise ValueError(f"time {time} is {q:g} steps of dt={dt}, more than a grid can index")
    k = round(q)
    if k < 0 or abs(q - k) > GRID_TOL:
        raise _OffGrid(f"time {time} is not on the dt={dt} grid")
    return k


def integrate(rhs, y0, dt: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 on a uniform grid.

    ``rhs`` maps the state, a list of floats, to its time derivative, a
    sequence of floats of the same length.  The stage arithmetic runs on
    Python floats, entry by entry in the operation order of the array
    expressions y + h k and y + dt/6 (k1 + 2 k2 + 2 k3 + k4), so it rounds
    as they do.  Returns (t, Y) with Y[k] the state at t[k]; Y[0] is y0.
    Steps are stored and checked as `_float_path` stores and checks them.
    """
    sixth = dt / 6.0
    half = 0.5 * dt

    def step(y):
        k1 = rhs(y)
        k2 = rhs([a + half * b for a, b in zip(y, k1)])
        k3 = rhs([a + half * b for a, b in zip(y, k2)])
        k4 = rhs([a + dt * b for a, b in zip(y, k3)])
        return [a + sixth * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]

    return _float_path(step, y0, dt, t_end)


def _float_path(step, y0, dt: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """The path y[k+1] = step(y[k]) of a float state on the dt-grid of [0, t_end].

    ``step`` maps the state, a list of floats, to the next, a sequence of
    floats of the same length.  Returns (t, Y) with Y[k] the state at
    t[k]; Y[0] is y0.

    Steps are stored in blocks of `BLOCK_STEPS` rows, and each block is
    checked as it is stored: `IntegrationError` names the time of the
    first non-finite state.  An `OverflowError` from ``step`` (a float
    power beyond the double range) ends the run the same way, at the step
    it interrupted.  Within a block ``step`` may see non-finite states.
    """
    n = grid_steps(dt, t_end)
    y0 = np.array(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise IntegrationError("non-finite initial state", 0)
    out = np.empty((n + 1, y0.size))
    out[0] = y0
    y = y0.tolist()
    for start in range(1, n + 1, BLOCK_STEPS):
        rows = []
        try:
            for _ in range(min(BLOCK_STEPS, n + 1 - start)):
                y = step(y)
                rows.append(y)
        except OverflowError:
            rows.append([math.nan] * y0.size)  # the state of the step it interrupted
        block = out[start:start + len(rows)]
        block[:] = rows
        _raise_if_nonfinite(block, start, dt)
    return np.arange(n + 1) * dt, out


@dataclass(frozen=True)
class MomentSeries:
    """Mean/covariance trajectory on the uniform grid: row k is at time k * dt."""

    dt: float
    mean: np.ndarray  # (n_grid, d)
    cov: np.ndarray  # (n_grid, d (d + 1) / 2): upper triangles in `np.triu_indices` order

    def covariance(self, i: int, j: int) -> np.ndarray:
        """The path of P_ij = P_ji: a view of its column of ``cov``."""
        i, j = sorted((i, j))
        return self.cov[:, i * self.mean.shape[1] - i * (i - 1) // 2 + j - i]

    def at_time(self, time: float) -> tuple[np.ndarray, np.ndarray]:
        k = grid_index(self.dt, time)
        if k >= len(self.mean):
            raise ValueError(f"time {time} beyond integration horizon {(len(self.mean) - 1) * self.dt}")
        d = range(self.mean.shape[1])
        return self.mean[k], np.array([[self.covariance(i, j)[k] for j in d] for i in d])


def _checked_moments(mean, cov, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Initial mean and covariance of an n-state system as float arrays.

    Rejects wrong shapes and non-finite entries; the covariance is
    replaced by its symmetric part 0.5 * (cov + cov^T).
    """
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mean.shape != (n,) or cov.shape != (n, n):
        raise ValueError(f"initial moments need a {n}-vector mean and a {n}x{n} covariance, "
                         f"got shapes {mean.shape} and {cov.shape}")
    cov = 0.5 * (cov + cov.T)
    if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
        raise ValueError("moments must be finite")
    return mean, cov


def physical_rhs(p: ReactorParams):
    """The `integrate` right-hand side of the flat physical moment state.

    The nine moment ODEs written out by hand: the independent side of
    `crosscheck_mean_paths`, which `integrate_physical` does not use.

    State order: m1, m2, m3, then the covariance entries P11, P12, P13,
    P22, P23, P33.  The parameter constants are formed once, here; each
    is the leading factor of the product it stands in, so every rate
    rounds as the written-out expression does.
    """
    k1, k2, k3 = p.k1, p.k2, p.k3
    caf, v, a, b = p.caf, p.v, p.alpha, p.beta
    neg_k1, neg_a, caf_v, two_v = -k1, -a, caf / v, 2.0 / v
    two_k1, two_k2, two_k3 = 2.0 * k1, 2.0 * k2, 2.0 * k3
    neg_two_k1, two_caf_v = -2.0 * k1, 2.0 * caf / v
    k1_k2, neg_a_k1, a_k2 = k1 + k2, -(a + k1), a + k2
    bb, two_a = b * b, 2.0 * a

    def rhs(y):
        m1, m2, m3, p11, p12, p13, p22, p23, p33 = y
        # Covariance rates; the m-only products are the order-2 truncation residual.
        return [
            neg_k1 * m1 + caf_v * m3 - k3 * p11 - k3 * m1 * m1 - p13 / v - m1 * m3 / v,
            k1 * m1 - k2 * m2 - p23 / v - m2 * m3 / v,
            neg_a * m3,
            (neg_two_k1 * p11 + two_caf_v * p13 + two_k3 * m1 * p11
             + two_k3 * m1 ** 3 + two_v * m1 * p13 + two_v * m1 * m1 * m3),
            (k1 * p11 + k3 * m2 * p11 - k1_k2 * p12 + m2 * p13 / v
             + caf_v * p23 + m1 * p23 / v + k3 * m1 * m1 * m2 + 2.0 * m1 * m2 * m3 / v),
            (neg_a_k1 * p13 + caf_v * p33 + k3 * m3 * p11
             + k3 * m1 * m1 * m3 + m3 * p13 / v + m1 * m3 * m3 / v),
            two_k1 * p12 - two_k2 * p22 + two_v * m2 * p23 + two_v * m2 * m2 * m3,
            k1 * p13 - a_k2 * p23 + m3 * p23 / v + m2 * m3 * m3 / v,
            bb - two_a * p33,
        ]

    return rhs


def integrate_physical(p: ReactorParams, mean0, cov0, dt: float, t_end: float) -> MomentSeries:
    """The physical moment path: fixed-step RK4 of the nine moment ODEs.

    The nine ODEs are the augmented mean ODE of `build_vandevusse(p)` in
    other coordinates, so the path steps the lifted start with
    `augmented_mean_path` and recovers P_ij = S_ij - m_i m_j from the
    second moments S_ij = E[x_i x_j].  Row 0 is the checked start itself.
    `IntegrationError` names the time of the first non-finite augmented
    mean or, along a finite one, of the first non-finite recovered
    covariance.
    """
    mean0, cov0 = _checked_moments(mean0, cov0, 3)
    _, aug = augmented_mean_path(build_vandevusse(p), _lifted_mean(mean0, cov0), dt, t_end)
    mean, cov = aug[:, :3], aug[:, 3:]
    iu, ju = np.triu_indices(3)
    with np.errstate(over="ignore", invalid="ignore"):
        products = mean[:, iu]
        products *= mean[:, ju]
        cov -= products
    cov[0] = cov0[iu, ju]
    _raise_if_nonfinite(cov, 0, dt)
    return MomentSeries(dt=dt, mean=mean, cov=cov)


def _lifted_mean(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Augmented mean of physical moments: m, then E[x_i x_j] = P_ij + m_i m_j in slot order."""
    second = cov + np.outer(mean, mean)
    return np.concatenate([mean, second[np.triu_indices(mean.size)]])


def gaussian_lift(mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lift physical moments to the augmented state under Gaussian closure.

    The product-slot means are the exact second moments
    E[x_i x_j] = P_ij + m_i m_j.  Product-slot covariances use the
    Isserlis identities for jointly Gaussian states:

        Cov(x_k, x_i x_j)       = m_i P_kj + m_j P_ki
        Cov(x_i x_j, x_k x_l)   = P_ik P_jl + P_il P_jk
                                  + m_i m_k P_jl + m_i m_l P_jk
                                  + m_j m_k P_il + m_j m_l P_ik

    ``cov`` must be symmetric; the lifted covariance is symmetrized.
    """
    m, P = mean, cov
    n = m.size
    k, l = np.triu_indices(n)  # column slots x_k x_l
    i, j = k[:, None], l[:, None]  # row slots x_i x_j
    lifted = np.zeros((n + k.size, n + k.size))
    lifted[:n, :n] = P
    lifted[:n, n:] = m[k] * P[:, l] + m[l] * P[:, k]
    lifted[n:, :n] = lifted[:n, n:].T
    lifted[n:, n:] = (P[i, k] * P[j, l] + P[i, l] * P[j, k]
                      + m[i] * m[k] * P[j, l] + m[i] * m[l] * P[j, k]
                      + m[j] * m[k] * P[i, l] + m[j] * m[l] * P[i, k])
    return _lifted_mean(m, P), 0.5 * (lifted + lifted.T)


def _rk4_map(gens, h: float) -> tuple[list[np.ndarray], np.ndarray]:
    """Stage maps and one-step map of classical RK4 on a linear ODE dy = G y.

    ``gens`` are the generators G_1..G_4 at the step's four stages; a
    constant ODE passes one generator four times, and leading axes
    broadcast.  Stage s of a step from y evaluates G_s Z_s y, with
    Z_1 = I, Z_2 = I + h/2 G_1, Z_3 = I + h/2 G_2 Z_2 and
    Z_4 = I + h G_3 Z_3; the step is
    y <- (I + h/6 (G_1 + 2 G_2 Z_2 + 2 G_3 Z_3 + G_4 Z_4)) y.
    """
    eye = np.eye(gens[0].shape[-1])
    stages, rates = [eye], [gens[0]]
    for c, gen in zip((0.5 * h, 0.5 * h, h), gens[1:]):
        stages.append(eye + c * rates[-1])
        rates.append(gen @ stages[-1])
    step = eye + (h / 6.0) * (rates[0] + 2.0 * rates[1] + 2.0 * rates[2] + rates[3])
    return stages, step


def _mean_generator(sys: BilinearSystem) -> np.ndarray:
    """M = [[a, a0], [0, 0]]: dz = M z on z = (mean, 1) is the augmented mean ODE."""
    dim = sys.dim
    m = np.zeros((dim + 1, dim + 1))
    m[:dim, :dim] = sys.a
    m[:dim, dim] = sys.a0
    return m


def _packed(full: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """A linear map between symmetric matrices, restricted to upper-triangle storage.

    ``full`` maps the row-major vec of a symmetric cols x cols matrix to
    the row-major vec of a symmetric rows x rows matrix.  An off-diagonal
    input entry stands for both of its mirror positions.
    """
    ri, rj = np.triu_indices(rows)
    ci, cj = np.triu_indices(cols)
    picked = full[ri * rows + rj]
    out = picked[:, ci * cols + cj]
    off = ci != cj
    out[:, off] += picked[:, cj[off] * cols + ci[off]]
    return out


def _augmented_step_map(sys: BilinearSystem, h: float) -> np.ndarray:
    """The exact one-step map of fixed-step RK4 on the augmented moments.

    With z = (mean, 1), D = [d | g] and L(P) = a P + P a^T + d P d^T, the
    covariance rate is L(P) + (D z)(D z)^T.  The state is (p, w), the
    upper triangles of P and of z z^T.  RK4 evaluates the forcing at the
    stage means Z_s z of the mean's RK4 map A, so stage s sees
    F_s w with F_s(W) = (D Z_s) W (D Z_s)^T.  RK4 on the generators
    [[L, F_s], [0, 0]], with w frozen, gives the rows [T, B] of the step;
    w advances exactly as z z^T does, by packed A (x) A:

        (p, w) <- [[T, B], [0, packed(A (x) A)]] (p, w).

    Without noise (g = 0 and d = 0) B is exactly zero.
    """
    dim = sys.dim
    stages, mean_step = _rk4_map((_mean_generator(sys),) * 4, h)
    eye = np.eye(dim)
    lyap = _packed(np.kron(sys.a, eye) + np.kron(eye, sys.a) + np.kron(sys.d, sys.d), dim, dim)
    noise = np.column_stack([sys.d, sys.g])
    n_p = lyap.shape[0]
    size = n_p + (dim + 1) * (dim + 2) // 2
    gens = np.zeros((4, size, size))
    gens[:, :n_p, :n_p] = lyap
    for gen, z in zip(gens, stages):
        w = noise @ z
        gen[:n_p, n_p:] = _packed(np.kron(w, w), dim, dim + 1)
    step = _rk4_map(gens, h)[1]
    step[n_p:, n_p:] = _packed(np.kron(mean_step, mean_step), dim + 1, dim + 1)
    return step


def _raise_if_nonfinite(states: np.ndarray, k0: int, dt: float) -> None:
    """IntegrationError naming the first non-finite row; row r is grid step k0 + r."""
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        k = k0 + int(np.argmin(finite))
        raise IntegrationError(f"non-finite state at t={k * dt:.6g}", k)


def _linear_path(maps, y0: np.ndarray, dt: float, n_steps: int, block: int = BLOCK_STEPS):
    """The path y[k+1] = A_k y[k], yielded as (k, rows): y0 alone, then block by block.

    ``maps(start, stop)`` gives the maps A_start..A_{stop-1}: one matrix
    repeated, or a stack of per-step maps.  rows[r] is the state at grid
    step k + r; it is a view of a buffer of ``block`` + 1 rows, which the
    next block overwrites.  Rows are checked before they are yielded:
    `IntegrationError` names the time of the first non-finite state.
    """
    buf = np.empty((min(block, n_steps) + 1, y0.size))
    buf[0] = y0
    _raise_if_nonfinite(buf[:1], 0, dt)
    yield 0, buf[:1]
    for start in range(0, n_steps, block):
        rows = buf[1:min(block, n_steps - start) + 1]
        for k, a in enumerate(maps(start, start + len(rows))):
            np.dot(a, buf[k], out=buf[k + 1])
        _raise_if_nonfinite(rows, start + 1, dt)
        yield start + 1, rows
        buf[0] = rows[-1]


def augmented_mean_path(sys: BilinearSystem, mean0, dt: float, t_end: float) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 path of the augmented mean ODE dm = a0 + a m.

    ``mean0`` is the augmented start vector (physical mean, then second
    moments).  Each step applies RK4's exact one-step map of the affine
    ODE to z = (m, 1).  Returns (t, M) with M[k] the mean at t[k];
    `IntegrationError` names the time of the first non-finite mean.
    """
    mean0 = np.asarray(mean0, dtype=float)
    if mean0.shape != (sys.dim,):
        raise ValueError(f"augmented start must be a {sys.dim}-vector, got shape {mean0.shape}")
    return _affine_mean_path(sys, mean0, dt, t_end, lambda gen, h: _rk4_map((gen,) * 4, h)[1])


def _affine_mean_path(sys: BilinearSystem, mean0: np.ndarray, dt: float, t_end: float, scheme):
    """Checked (t, mean) path of z = (m, 1) under the one-step map ``scheme(_mean_generator(sys), dt)``."""
    n_steps = grid_steps(dt, t_end)
    step = scheme(_mean_generator(sys), dt)
    mean = np.empty((n_steps + 1, sys.dim))
    for k, rows in _linear_path(lambda start, stop: [step] * (stop - start), np.append(mean0, 1.0), dt, n_steps):
        mean[k:k + len(rows)] = rows[:, :-1]
    return np.arange(n_steps + 1) * dt, mean


def integrate_augmented(sys: BilinearSystem, mean0, cov0, dt: float, t_end: float) -> MomentSeries:
    """Propagate augmented mean and covariance with fixed-step RK4.

    ``mean0`` and ``cov0`` are the physical moments; the augmented initial
    state is their `gaussian_lift`.  One state, the upper triangles of the
    covariance and of z z^T with z = (mean, 1), takes RK4's exact one-step
    map (`_augmented_step_map`) on `_linear_path`; the mean is read from
    the (i, dim) entries of z z^T, and the covariance is the stepped upper
    triangle.  A blow-up is reported at the first non-finite step of the
    state.
    """
    mean0, cov0 = _checked_moments(mean0, cov0, sys.n)
    n_steps = grid_steps(dt, t_end)
    lift_mean, lift_cov = gaussian_lift(mean0, cov0)
    dim = sys.dim
    iu, ju = np.triu_indices(dim)
    zi, zj = np.triu_indices(dim + 1)
    z0 = np.append(lift_mean, 1.0)
    state0 = np.concatenate([lift_cov[iu, ju], z0[zi] * z0[zj]])
    if not np.isfinite(state0).all():
        raise IntegrationError("non-finite initial state")
    step = _augmented_step_map(sys, dt)
    mean_cols = iu.size + np.flatnonzero(zj == dim)[:-1]

    mean = np.empty((n_steps + 1, dim))
    cov = np.empty((n_steps + 1, iu.size))
    for k, rows in _linear_path(lambda start, stop: [step] * (stop - start), state0, dt, n_steps):
        mean[k:k + len(rows)] = rows[:, mean_cols]
        cov[k:k + len(rows)] = rows[:, :iu.size]
    return MomentSeries(dt=dt, mean=mean, cov=cov)


@dataclass(frozen=True)
class CrosscheckReport:
    """Outcome of the two-coordinate mean-path comparison."""

    max_discrepancy: float
    t_at_max: float


def crosscheck_mean_paths(p: ReactorParams, mean0, cov0, dt: float, t_end: float) -> CrosscheckReport:
    """Integrate the physical moment ODEs in two formulations and compare.

    One side is the reporting path, `integrate_physical`, which steps the
    augmented mean and maps back by P = S - m m^T; the other is the float
    RK4 loop of `physical_rhs` on (mean, covariance), the nine moment ODEs
    written out by hand.  The two are the same ODE, so the trajectories
    must coincide up to integrator round-off.
    """
    mean0, cov0 = _checked_moments(mean0, cov0, 3)
    series = integrate_physical(p, mean0, cov0, dt, t_end)
    iu, ju = np.triu_indices(3)
    t, phys = integrate(physical_rhs(p), np.concatenate([mean0, cov0[iu, ju]]), dt, t_end)

    mean_diff = np.abs(phys[:, :3] - series.mean)
    cov_diff = np.abs(phys[:, 3:] - series.cov)

    per_t = np.maximum(mean_diff.max(axis=1), cov_diff.max(axis=1))
    k_max = int(np.argmax(per_t))
    return CrosscheckReport(max_discrepancy=float(per_t[k_max]), t_at_max=float(t[k_max]))


def ou_variance(p0: float, alpha: float, beta: float, t: np.ndarray) -> np.ndarray:
    """Exact OU variance: b2/(2a) + (p0 - b2/(2a)) exp(-2 a t)."""
    pinf = beta * beta / (2.0 * alpha)
    return pinf + (p0 - pinf) * np.exp(-2.0 * alpha * np.asarray(t, dtype=float))
