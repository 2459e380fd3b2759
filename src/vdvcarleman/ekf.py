"""Continuous-time EKF prediction for the reactor SDE.

The benchmark estimator: between observations the extended Kalman filter
propagates the mean through the nonlinear drift and the covariance
through the Jacobian-linearized Lyapunov equation,

    dm/dt = f(m),      dP/dt = F(m) P + P F(m)^T + G G^T,

with F the drift Jacobian and G the constant diffusion column.  The full
3-state vector is estimated, including the flow rate, so the information
set matches the Carleman moment path.  No measurement updates.
"""
from __future__ import annotations

import numpy as np

from . import model
from .model import ReactorParams
from .moments import MomentSeries, _checked_moments, _integrate_mean_cov


def ekf_rhs(y: np.ndarray, p: ReactorParams) -> np.ndarray:
    """Time derivative of the flat EKF state (mean, row-major covariance)."""
    m = y[:3]
    cov = y[3:].reshape(3, 3)
    f = model.drift(m, p)
    jac = model.jacobian(m, p)
    g = model.diffusion(p)
    dcov = jac @ cov + cov @ jac.T + np.outer(g, g)
    return np.concatenate([f, dcov.ravel()])


def ekf_predict(p: ReactorParams, x0, cov0, dt: float, t_end: float) -> MomentSeries:
    """Deterministic EKF prediction series on the shared fixed-step grid."""
    x0, cov0 = _checked_moments(x0, cov0, 3)
    return _integrate_mean_cov(lambda y: ekf_rhs(y, p), x0, cov0, dt, t_end)
