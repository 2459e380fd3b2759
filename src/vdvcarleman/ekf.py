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

`ekf_rhs(p)` is a float right-hand side for `moments.integrate`: the
drift and every sum run on Python floats, but F P stays one BLAS product
per stage.  OpenBLAS's 3x3 product uses fused multiply-adds, so a Python
sum of products would round differently and move emitted digits.
"""
from __future__ import annotations

import numpy as np

from .model import ReactorParams
from .moments import MomentSeries, _checked_moments, integrate


def ekf_rhs(p: ReactorParams):
    """The `integrate` right-hand side of the flat EKF state (mean, row-major covariance).

    The covariance block of the state must be symmetric.  The drift and
    the Jacobian are `model.drift` and `model.jacobian` written out on
    floats, in the same operation order; the Jacobian is filled into one
    preallocated matrix, the covariance into another.  The 3x3 product
    F P stays one BLAS call: its fused multiply-adds round differently
    from a Python sum of products.
    """
    k1, k2, k3 = p.k1, p.k2, p.k3
    caf, v, a, b = p.caf, p.v, p.alpha, p.beta
    neg_k1, neg_k2, neg_a, two_k3 = -k1, -k2, -a, 2.0 * k3
    jac = np.array([[0.0, 0.0, 0.0], [k1, 0.0, 0.0], [0.0, 0.0, neg_a]])
    cov = np.empty((3, 3))
    cov_flat = cov.reshape(9)
    # Entry (r, c) of the covariance rate is (F P)[r, c] + (F P)[c, r] + g[r] g[c]
    # with g = (0, 0, b).  The zero products of g g^T are added as well: like
    # the full matrix sum, they turn a -0.0 entry into +0.0.
    gz, bb = 0.0 * b, b * b

    def rhs(y):
        m1, m2, m3 = y[:3]
        jac[0, 0] = neg_k1 - two_k3 * m1 - m3 / v
        jac[0, 2] = (caf - m1) / v
        jac[1, 1] = neg_k2 - m3 / v
        jac[1, 2] = -m2 / v
        cov_flat[:] = y[3:]
        (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = (jac @ cov).tolist()
        d01 = j01 + j10 + 0.0
        d02 = j02 + j20 + gz
        d12 = j12 + j21 + gz
        return [
            neg_k1 * m1 - k3 * m1 * m1 + (m3 / v) * (caf - m1),
            k1 * m1 - k2 * m2 - (m3 / v) * m2,
            neg_a * m3,
            j00 + j00 + 0.0, d01, d02,
            d01, j11 + j11 + 0.0, d12,
            d02, d12, j22 + j22 + bb,
        ]

    return rhs


def ekf_predict(p: ReactorParams, x0, cov0, dt: float, t_end: float) -> MomentSeries:
    """Deterministic EKF prediction series on the shared fixed-step grid."""
    x0, cov0 = _checked_moments(x0, cov0, 3)
    t, ys = integrate(ekf_rhs(p), np.concatenate([x0, cov0.ravel()]), dt, t_end)
    return MomentSeries(dt=dt, t=t, mean=ys[:, :3], cov=ys[:, 3:].reshape(t.size, 3, 3))
