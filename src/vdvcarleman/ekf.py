"""Continuous-time EKF prediction for the reactor SDE.

The benchmark estimator: between observations the extended Kalman filter
propagates the mean through the nonlinear drift and the covariance
through the Jacobian-linearized Lyapunov equation,

    dm/dt = f(m),      dP/dt = F(m) P + P F(m)^T + G G^T,

with F the drift Jacobian and G the constant diffusion column.  The full
3-state vector is estimated, including the flow rate, so the information
set matches the Carleman moment path.  No measurement updates.

The mean does not depend on P: it is the RK4 path of the drift ODE, on
`moments.integrate` with `model.float_drift`.  Along that path the
covariance ODE is affine in P, so one RK4 step of it is an affine map
p <- T_k p + c_k on the six distinct entries p of P (upper-triangle
storage), applied as one matrix on (p, 1) as the augmented mean steps
z = (m, 1).  That matrix is `moments._rk4_map` of the step's four stage
generators [[L_s, q], [0, 0]], with L_s from the Jacobian at the stage
mean (recomputed with `model.drift`) and q the packed g g^T; the maps are
built for a block of steps at once, and the covariance is exactly
symmetric by construction.
"""
from __future__ import annotations

import numpy as np

from .model import ReactorParams, diffusion, drift, float_drift, jacobian
from .moments import MomentSeries, _checked_moments, _packed, _raise_if_nonfinite, _rk4_map, integrate

# Steps per block of covariance maps: each step holds four 7x7 stage
# generators and their RK4 stage products, so a block's temporaries stay
# about 1 MB.
_COV_BLOCK = 256

# Row e is the packed 6x6 operator of X -> F X + X F^T for F = E_e, the
# e-th unit 3x3 matrix in row-major order; the operator is linear in F.
_LYAP_BASIS = np.stack([
    _packed(np.kron(e, np.eye(3)) + np.kron(np.eye(3), e), 3, 3).ravel()
    for e in np.eye(9).reshape(9, 3, 3)
])


def _covariance_maps(p: ReactorParams, mean: np.ndarray, q: np.ndarray, h: float) -> np.ndarray:
    """RK4 step maps of the packed covariance from each row of ``mean``.

    With L_s the packed operator of X -> F_s X + X F_s^T at stage mean s,
    the covariance ODE dp = L_s p + q is the linear ODE of the generator
    [[L_s, q], [0, 0]] on (p, 1).  Row k of the result is `_rk4_map` of
    the four stage generators, [[T, c], [0, 1]]: the step p <- T p + c
    acting on (p, 1).
    """
    half = 0.5 * h
    s2 = mean + half * drift(mean, p)
    s3 = mean + half * drift(s2, p)
    s4 = mean + h * drift(s3, p)
    ops = jacobian(np.stack([mean, s2, s3, s4]), p).reshape(4, -1, 9) @ _LYAP_BASIS
    gens = np.zeros((4, mean.shape[0], 7, 7))
    gens[..., :6, :6] = ops.reshape(4, -1, 6, 6)
    gens[..., :6, 6] = q
    return _rk4_map(gens, h)[1]


def ekf_predict(p: ReactorParams, x0, cov0, dt: float, t_end: float) -> MomentSeries:
    """Deterministic EKF prediction series on the shared fixed-step grid.

    A non-finite mean ends the run at its first non-finite time (from
    `integrate`).  Along a finite mean the covariance steps in blocks of
    `_COV_BLOCK` maps, written straight into the returned covariance; each
    block is checked as it is stored, and `IntegrationError` names the
    time of the first non-finite covariance.
    """
    x0, cov0 = _checked_moments(x0, cov0, 3)
    t, mean = integrate(float_drift(p), x0, dt, t_end)
    n_steps = t.size - 1
    iu, ju = np.triu_indices(3)
    g = diffusion(p)
    q = np.outer(g, g)[iu, ju]

    cov = np.empty((n_steps + 1, 3, 3))
    cov[0] = cov0
    packed = np.empty((_COV_BLOCK + 1, iu.size + 1))
    packed[0, :-1] = cov0[iu, ju]
    packed[0, -1] = 1.0
    for start in range(0, n_steps, _COV_BLOCK):
        stop = min(start + _COV_BLOCK, n_steps)
        maps = _covariance_maps(p, mean[start:stop], q, dt)
        block = packed[:stop - start + 1]
        for k in range(stop - start):
            np.dot(maps[k], block[k], out=block[k + 1])
        _raise_if_nonfinite(block[1:], start + 1, dt)
        cov[start + 1:stop + 1, iu, ju] = block[1:, :-1]
        cov[start + 1:stop + 1, ju, iu] = block[1:, :-1]
        packed[0] = block[-1]
    return MomentSeries(dt=dt, t=t, mean=mean, cov=cov)
