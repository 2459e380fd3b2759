"""Continuous-time EKF prediction for the reactor SDE.

The benchmark estimator: between observations the extended Kalman filter
propagates the mean through the nonlinear drift and the covariance
through the Jacobian-linearized Lyapunov equation,

    dm/dt = f(m),      dP/dt = F(m) P + P F(m)^T + G G^T,

with F the drift Jacobian and G the constant diffusion column.  The full
3-state vector is estimated, including the flow rate, so the information
set matches the Carleman moment path.  No measurement updates.

The mean does not depend on P: it is the RK4 path of the drift ODE,
stepped on `moments._float_path` by `_mean_step`, which writes
`moments.integrate` of `model.float_drift` out on three floats.  Along
that path the covariance ODE is affine in P, so one RK4 step of it is an
affine map p <- T_k p + c_k on the six distinct entries p of P
(upper-triangle storage), one matrix on (p, 1), stepped by
`moments._linear_path` as the augmented mean is.  That matrix is
`moments._rk4_map` of the step's four stage generators [[L_s, q], [0, 0]],
with L_s from the Jacobian at the stage mean (recomputed with
`model.drift`) and q the packed g g^T.  The maps of a block of
`_COV_BLOCK` steps are built at once, and the stepped p is the
covariance the returned `MomentSeries` holds.
"""
from __future__ import annotations

import numpy as np

from .model import ReactorParams, diffusion, drift, jacobian
from .moments import MomentSeries, _checked_moments, _float_path, _linear_path, _packed, _rk4_map

# Steps per block of `moments._linear_path` here: a block's covariance maps
# hold four 7x7 stage generators a step and their RK4 stage products, so
# its temporaries stay about 1 MB.
_COV_BLOCK = 256

# Row e is the packed 6x6 operator of X -> F X + X F^T for F = E_e, the
# e-th unit 3x3 matrix in row-major order; the operator is linear in F.
_LYAP_BASIS = np.stack([
    _packed(np.kron(e, np.eye(3)) + np.kron(np.eye(3), e), 3, 3).ravel()
    for e in np.eye(9).reshape(9, 3, 3)
])


def _mean_step(p: ReactorParams, h: float):
    """One RK4 step of the drift ODE on three floats, unrolled.

    ``step(y)`` maps the mean (m1, m2, m3) to its successor.  Each stage
    rate is `model.float_drift`'s expression and each stage state and the
    final combination are `moments.integrate`'s, in the same operation
    order, so the path is bit-identical to ``integrate(float_drift(p),
    ...)`` without its four closure calls and five list comprehensions.
    """
    k1, k2, k3, caf, v = p.k1, p.k2, p.k3, p.caf, p.v
    neg_k1, neg_a = -k1, -p.alpha
    half, sixth = 0.5 * h, h / 6.0

    def step(y):
        x1, x2, x3 = y
        a1 = neg_k1 * x1 - k3 * x1 * x1 + (x3 / v) * (caf - x1)
        a2 = k1 * x1 - k2 * x2 - (x3 / v) * x2
        a3 = neg_a * x3
        s1, s2, s3 = x1 + half * a1, x2 + half * a2, x3 + half * a3
        b1 = neg_k1 * s1 - k3 * s1 * s1 + (s3 / v) * (caf - s1)
        b2 = k1 * s1 - k2 * s2 - (s3 / v) * s2
        b3 = neg_a * s3
        s1, s2, s3 = x1 + half * b1, x2 + half * b2, x3 + half * b3
        c1 = neg_k1 * s1 - k3 * s1 * s1 + (s3 / v) * (caf - s1)
        c2 = k1 * s1 - k2 * s2 - (s3 / v) * s2
        c3 = neg_a * s3
        s1, s2, s3 = x1 + h * c1, x2 + h * c2, x3 + h * c3
        d1 = neg_k1 * s1 - k3 * s1 * s1 + (s3 / v) * (caf - s1)
        d2 = k1 * s1 - k2 * s2 - (s3 / v) * s2
        d3 = neg_a * s3
        return (x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3))

    return step


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

    A non-finite mean ends the run at its first non-finite time, as
    `moments.integrate` ends it.  Along a finite mean the covariance steps
    on `moments._linear_path`, in blocks of `_COV_BLOCK` per-step maps;
    each block is checked before it is stored, and `IntegrationError`
    names the time of the first non-finite covariance.
    """
    x0, cov0 = _checked_moments(x0, cov0, 3)
    _, mean = _float_path(_mean_step(p, dt), x0, dt, t_end)
    iu, ju = np.triu_indices(3)
    g = diffusion(p)
    q = np.outer(g, g)[iu, ju]

    cov = np.empty((len(mean), iu.size))
    maps = lambda start, stop: _covariance_maps(p, mean[start:stop], q, dt)
    for k, rows in _linear_path(maps, np.append(cov0[iu, ju], 1.0), dt, len(mean) - 1, _COV_BLOCK):
        cov[k:k + len(rows)] = rows[:, :-1]
    return MomentSeries(dt=dt, mean=mean, cov=cov)
