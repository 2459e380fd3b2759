"""Continuous-time EKF prediction for the reactor SDE.

The benchmark estimator: between observations the extended Kalman filter
propagates the mean through the nonlinear drift and the covariance
through the Jacobian-linearized Lyapunov equation,

    dm/dt = f(m),      dP/dt = F(m) P + P F(m)^T + G G^T,

with F the drift Jacobian and G the constant diffusion column.  The full
3-state vector is estimated, including the flow rate, so the information
set matches the Carleman moment path.  No measurement updates.

The right-hand side assumes a symmetric P and returns an exactly
symmetric rate: it forms F P once and uses F P + (F P)^T, since (F P)^T
is P F^T bit for bit when P is symmetric.  `ekf_predict` symmetrizes the
initial covariance, and every RK4 stage and step then stays exactly
symmetric, so the integrator needs no post-step.
"""
from __future__ import annotations

import numpy as np

from .model import ReactorParams
from .moments import MomentSeries, _checked_moments, integrate


def ekf_rhs(y: np.ndarray, p: ReactorParams) -> np.ndarray:
    """Time derivative of the flat EKF state (mean, row-major covariance).

    The covariance block of ``y`` must be symmetric.  The drift and the
    Jacobian are `model.drift` and `model.jacobian` written out on
    floats, in the same operation order.  The 3x3 product F P stays one
    BLAS call: its fused multiply-adds round differently from a Python
    sum of products.
    """
    m1, m2, m3 = y[:3].tolist()
    k1, k2, k3 = p.k1, p.k2, p.k3
    caf, v, a, b = p.caf, p.v, p.alpha, p.beta
    jac = np.array([
        [-k1 - 2.0 * k3 * m1 - m3 / v, 0.0, (caf - m1) / v],
        [k1, -k2 - m3 / v, -m2 / v],
        [0.0, 0.0, -a],
    ])
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = (jac @ y[3:].reshape(3, 3)).tolist()
    # Entry (r, c) is (F P)[r, c] + (F P)[c, r] + g[r] g[c] with g = (0, 0, b).
    # The zero products of g g^T are added as well: like the full matrix sum,
    # they turn a -0.0 entry into +0.0.
    gz = 0.0 * b
    d01 = j01 + j10 + 0.0
    d02 = j02 + j20 + gz
    d12 = j12 + j21 + gz
    return np.array([
        -k1 * m1 - k3 * m1 * m1 + (m3 / v) * (caf - m1),
        k1 * m1 - k2 * m2 - (m3 / v) * m2,
        -a * m3,
        j00 + j00 + 0.0, d01, d02,
        d01, j11 + j11 + 0.0, d12,
        d02, d12, j22 + j22 + b * b,
    ])


def ekf_predict(p: ReactorParams, x0, cov0, dt: float, t_end: float) -> MomentSeries:
    """Deterministic EKF prediction series on the shared fixed-step grid."""
    x0, cov0 = _checked_moments(x0, cov0, 3)
    t, ys = integrate(lambda y: ekf_rhs(y, p), np.concatenate([x0, cov0.ravel()]), dt, t_end)
    return MomentSeries(dt=dt, t=t, mean=ys[:, :3], cov=ys[:, 3:].reshape(t.size, 3, 3))
