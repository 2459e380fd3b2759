"""Conditional moment propagation for the reactor and its bilinear embedding.

Two formulations are implemented:

* the physical path: nine coupled ODEs for the 3-vector mean and the six
  distinct covariance entries of (C_A, C_B, F_r).  This is the reporting
  path; all variance tables and error curves come from it.
* the augmented path: mean and covariance of the full 9-dim bilinear
  state, propagated in partitioned matrix form.  It exists for
  cross-validation of the assembled system matrices.

The two MEAN systems are the same linear ODE written in different
coordinates; `crosscheck_mean_paths` integrates both and reports the
maximum discrepancy, which should sit at integrator-noise level.  The two
COVARIANCE notions differ by construction (the augmented covariance
treats each product slot as an independent coordinate) and are never
reconciled.

Every moment path takes the same initial data: a plain mean vector and
covariance matrix of the physical state, checked for shape and
finiteness and symmetrized on entry.  Covariances are symmetrized after
every integrator step.  No positive-semidefiniteness repair is applied:
order-2 truncation can legitimately drive the physical covariance
indefinite, and that behaviour must stay observable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .carleman import BilinearSystem
from .kronecker import MonomialIndexMap
from .model import ReactorParams

# Canonical order of the distinct covariance entries of a 3-state system.
PAIRS = MonomialIndexMap(3, 2).pairs

GRID_TOL = 1e-9


class IntegrationError(RuntimeError):
    """Raised when an integration produces a non-finite state."""


def grid_steps(dt: float, t_end: float) -> int:
    """Number of fixed steps covering [0, t_end]; t_end must sit on the grid."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_end < 0.0:
        raise ValueError("t_end must be nonnegative")
    n = round(t_end / dt)
    if abs(n * dt - t_end) > GRID_TOL:
        raise ValueError(f"t_end={t_end} is not a multiple of dt={dt}")
    return n


def grid_index(dt: float, time: float) -> int:
    """Exact grid lookup: index of ``time`` on the dt-grid, no interpolation."""
    k = round(time / dt)
    if k < 0 or abs(k * dt - time) > GRID_TOL:
        raise ValueError(f"time {time} is not on the dt={dt} grid")
    return k


def integrate(rhs, y0: np.ndarray, dt: float, t_end: float, post_step=None) -> tuple[np.ndarray, np.ndarray]:
    """Classical fixed-step RK4 on a uniform grid.

    Returns (t, Y) with Y[k] the state at t[k]; Y[0] is y0.  ``post_step``
    (if given) is applied to the raw state after every step, e.g. to
    re-symmetrize a covariance block.  Aborts with `IntegrationError` at
    the first non-finite state.
    """
    n = grid_steps(dt, t_end)
    y = np.array(y0, dtype=float)
    if not np.isfinite(y).all():
        raise IntegrationError("non-finite initial state")
    out = np.empty((n + 1, y.size))
    out[0] = y
    sixth = dt / 6.0
    half = 0.5 * dt
    for k in range(n):
        k1 = rhs(y)
        k2 = rhs(y + half * k1)
        k3 = rhs(y + half * k2)
        k4 = rhs(y + dt * k3)
        y = y + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if post_step is not None:
            y = post_step(y)
        if not np.isfinite(y).all():
            raise IntegrationError(f"non-finite state at t={(k + 1) * dt:.6g}")
        out[k + 1] = y
    return np.arange(n + 1) * dt, out


@dataclass(frozen=True)
class MomentSeries:
    """Mean/covariance trajectory on a uniform time grid."""

    dt: float
    t: np.ndarray
    mean: np.ndarray  # (n_grid, d)
    cov: np.ndarray  # (n_grid, d, d)

    def at_time(self, time: float) -> tuple[np.ndarray, np.ndarray]:
        k = grid_index(self.dt, time)
        if k >= self.t.size:
            raise ValueError(f"time {time} beyond integration horizon {self.t[-1]}")
        return self.mean[k], self.cov[k]


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


def _integrate_mean_cov(rhs, mean0: np.ndarray, cov0: np.ndarray, dt: float, t_end: float) -> MomentSeries:
    """RK4 on the flat state (mean, row-major covariance), symmetrized after every step."""
    n = mean0.size

    def symmetrize(y):
        cov = y[n:].reshape(n, n)
        y[n:] = (0.5 * (cov + cov.T)).ravel()
        return y

    y0 = np.concatenate([mean0, cov0.ravel()])
    t, ys = integrate(rhs, y0, dt, t_end, post_step=symmetrize)
    return MomentSeries(dt=dt, t=t, mean=ys[:, :n], cov=ys[:, n:].reshape(t.size, n, n))


def physical_rhs(y: np.ndarray, p: ReactorParams) -> np.ndarray:
    """Time derivative of the flat physical moment state.

    State order: m1, m2, m3, then the covariance entries P11, P12, P13,
    P22, P23, P33.
    """
    m1, m2, m3, p11, p12, p13, p22, p23, p33 = y.tolist()
    k1, k2, k3 = p.k1, p.k2, p.k3
    caf, v, a, b = p.caf, p.v, p.alpha, p.beta

    dm1 = -k1 * m1 + (caf / v) * m3 - k3 * p11 - k3 * m1 * m1 - p13 / v - m1 * m3 / v
    dm2 = k1 * m1 - k2 * m2 - p23 / v - m2 * m3 / v
    dm3 = -a * m3
    # Covariance rates; the m-only products are the order-2 truncation residual.
    dp11 = (-2.0 * k1 * p11 + (2.0 * caf / v) * p13 + 2.0 * k3 * m1 * p11
            + 2.0 * k3 * m1 ** 3 + (2.0 / v) * m1 * p13 + (2.0 / v) * m1 * m1 * m3)
    dp12 = (k1 * p11 + k3 * m2 * p11 - (k1 + k2) * p12 + m2 * p13 / v
            + (caf / v) * p23 + m1 * p23 / v + k3 * m1 * m1 * m2 + 2.0 * m1 * m2 * m3 / v)
    dp13 = (-(a + k1) * p13 + (caf / v) * p33 + k3 * m3 * p11
            + k3 * m1 * m1 * m3 + m3 * p13 / v + m1 * m3 * m3 / v)
    dp22 = 2.0 * k1 * p12 - 2.0 * k2 * p22 + (2.0 / v) * m2 * p23 + (2.0 / v) * m2 * m2 * m3
    dp23 = k1 * p13 - (a + k2) * p23 + m3 * p23 / v + m2 * m3 * m3 / v
    dp33 = b * b - 2.0 * a * p33
    return np.array([dm1, dm2, dm3, dp11, dp12, dp13, dp22, dp23, dp33])


def integrate_physical(p: ReactorParams, mean0, cov0, dt: float, t_end: float) -> MomentSeries:
    """Propagate the physical moment ODEs with fixed-step RK4."""
    mean0, cov0 = _checked_moments(mean0, cov0, 3)
    y0 = np.concatenate([mean0, [cov0[i, j] for (i, j) in PAIRS]])
    t, ys = integrate(lambda y: physical_rhs(y, p), y0, dt, t_end)
    mean = ys[:, :3]
    cov = np.empty((t.size, 3, 3))
    for k, (i, j) in enumerate(PAIRS):
        cov[:, i, j] = ys[:, 3 + k]
        cov[:, j, i] = ys[:, 3 + k]
    return MomentSeries(dt=dt, t=t, mean=mean, cov=cov)


def _lifted_mean(mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Augmented mean of physical moments: m, then E[x_i x_j] = P_ij + m_i m_j in pair order."""
    second = cov + np.outer(mean, mean)
    return np.concatenate([mean, [second[i, j] for (i, j) in MonomialIndexMap(mean.size, 2).pairs]])


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
    pairs = MonomialIndexMap(n, 2).pairs
    lifted = np.zeros((n + len(pairs), n + len(pairs)))
    lifted[:n, :n] = P
    for b, (i, j) in enumerate(pairs):
        for k in range(n):
            c = m[i] * P[k, j] + m[j] * P[k, i]
            lifted[k, n + b] = c
            lifted[n + b, k] = c
    for a, (i, j) in enumerate(pairs):
        for b, (k, l) in enumerate(pairs):
            lifted[n + a, n + b] = (P[i, k] * P[j, l] + P[i, l] * P[j, k]
                                    + m[i] * m[k] * P[j, l] + m[i] * m[l] * P[j, k]
                                    + m[j] * m[k] * P[i, l] + m[j] * m[l] * P[i, k])
    return _lifted_mean(m, P), 0.5 * (lifted + lifted.T)


def augmented_mean_rhs(sys: BilinearSystem, mean: np.ndarray) -> np.ndarray:
    """Mean dynamics of the bilinear state: a0 + a @ mean (exact, no closure)."""
    return sys.a0 + sys.a @ mean


def _augmented_cov_rhs(sys: BilinearSystem, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Covariance dynamics of the bilinear state, full-matrix form.

    dP = P a^T + a P + g g^T + (d mean) g^T + g (d mean)^T
         + d P d^T + (d mean)(d mean)^T

    for the unit Brownian channel of `BilinearSystem`.
    """
    ap = sys.a @ cov
    u = sys.d @ mean
    diff = (np.outer(sys.g, sys.g) + np.outer(u, sys.g) + np.outer(sys.g, u)
            + sys.d @ cov @ sys.d.T + np.outer(u, u))
    return ap + ap.T + diff


def integrate_augmented(sys: BilinearSystem, mean0, cov0, dt: float, t_end: float) -> MomentSeries:
    """Propagate augmented mean and covariance with fixed-step RK4.

    ``mean0`` and ``cov0`` are the physical moments; the augmented initial
    state is their `gaussian_lift`.
    """
    mean0, cov0 = _checked_moments(mean0, cov0, sys.n)
    dim = sys.dim

    def rhs(y):
        mean = y[:dim]
        cov = y[dim:].reshape(dim, dim)
        return np.concatenate([augmented_mean_rhs(sys, mean), _augmented_cov_rhs(sys, mean, cov).ravel()])

    return _integrate_mean_cov(rhs, *gaussian_lift(mean0, cov0), dt, t_end)


@dataclass(frozen=True)
class CrosscheckReport:
    """Outcome of the two-coordinate mean-path comparison."""

    max_discrepancy: float
    t_at_max: float
    max_mean_discrepancy: float
    max_cov_discrepancy: float


def crosscheck_mean_paths(sys: BilinearSystem, p: ReactorParams, mean0, cov0, dt: float,
                          t_end: float) -> CrosscheckReport:
    """Integrate the mean system in both coordinate sets and compare.

    The physical path propagates (mean, covariance); the augmented path
    propagates the bilinear mean (physical mean, second moments).  The two
    are the same ODE, so after mapping second moments back to covariances
    (P_ij = s_ij - m_i m_j) the trajectories must coincide up to
    integrator round-off.
    """
    mean0, cov0 = _checked_moments(mean0, cov0, 3)
    t, aug = integrate(lambda y: augmented_mean_rhs(sys, y), _lifted_mean(mean0, cov0), dt, t_end)
    phys = integrate_physical(p, mean0, cov0, dt, t_end)

    mean_diff = np.abs(phys.mean - aug[:, :3])
    implied = np.empty((t.size, len(PAIRS)))
    for k, (i, j) in enumerate(PAIRS):
        implied[:, k] = aug[:, 3 + k] - aug[:, i] * aug[:, j]
    phys_packed = np.stack([phys.cov[:, i, j] for (i, j) in PAIRS], axis=1)
    cov_diff = np.abs(phys_packed - implied)

    per_t = np.maximum(mean_diff.max(axis=1), cov_diff.max(axis=1))
    k_max = int(np.argmax(per_t))
    return CrosscheckReport(
        max_discrepancy=float(per_t[k_max]),
        t_at_max=float(t[k_max]),
        max_mean_discrepancy=float(mean_diff.max()),
        max_cov_discrepancy=float(cov_diff.max()),
    )


def ou_mean(x0: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Exact OU mean: x0 * exp(-alpha t)."""
    return x0 * np.exp(-alpha * np.asarray(t, dtype=float))


def ou_variance(p0: float, alpha: float, beta: float, t: np.ndarray) -> np.ndarray:
    """Exact OU variance: b2/(2a) + (p0 - b2/(2a)) exp(-2 a t)."""
    pinf = beta * beta / (2.0 * alpha)
    return pinf + (p0 - pinf) * np.exp(-2.0 * alpha * np.asarray(t, dtype=float))
