import re

import numpy as np
import pytest

from vdvcarleman.ekf import _LYAP_BASIS, _mean_step, ekf_predict
from vdvcarleman.model import PARAM_SET1, PARAM_SET2, ReactorParams, X0_SET1, diffusion, drift, float_drift, jacobian
from vdvcarleman.moments import IntegrationError, integrate, integrate_physical

from test_moments import IU, JU, bits, grid, ou_mean, symmetrized_rk4

P0_SET1 = np.diag([1.0, 1.0, 0.01])


def flat_ekf(mean, cov):
    return np.concatenate([mean, np.asarray(cov).ravel()])


def ekf_rhs_oracle(y, p):
    """The EKF right-hand side on a numpy state, Jacobian built per call, with
    one BLAS product F P: the rates of the RK4 loops `ekf_predict` is checked against."""
    m1, m2, m3 = y[:3].tolist()
    k1, k2, k3 = p.k1, p.k2, p.k3
    caf, v, a, b = p.caf, p.v, p.alpha, p.beta
    jac = np.array([
        [-k1 - 2.0 * k3 * m1 - m3 / v, 0.0, (caf - m1) / v],
        [k1, -k2 - m3 / v, -m2 / v],
        [0.0, 0.0, -a],
    ])
    (j00, j01, j02), (j10, j11, j12), (j20, j21, j22) = (jac @ y[3:].reshape(3, 3)).tolist()
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


def test_ekf_state_symmetrizes_and_validates():
    skew = np.array([[1.0, 0.4, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    first = ekf_predict(PARAM_SET1, np.zeros(3), skew, 0.01, 0.0).at_time(0.0)[1]
    assert first[0, 1] == first[1, 0] == 0.2
    with pytest.raises(ValueError, match=r"3-vector mean"):
        ekf_predict(PARAM_SET1, np.zeros(2), np.eye(3), 0.01, 1.0)


PACKED = np.triu_indices(3)


def lyapunov_operator(m, p):
    """L(F): the packed 6x6 operator of X -> F X + X F^T for the Jacobian F at ``m``."""
    return (jacobian(m, p).ravel() @ _LYAP_BASIS).reshape(6, 6)


def packed_cov_rate(m, cov, p):
    """L(F) p + q on the upper triangle p of ``cov``, with q the packed g g^T:
    each stage rate of the covariance as `ekf_predict` forms it."""
    g = diffusion(p)
    return lyapunov_operator(m, p) @ cov[PACKED] + np.outer(g, g)[PACKED]


def test_flow_rate_row_decouples():
    # dP33 depends only on P33: the OU coordinate is linear, the EKF is exact there.
    rng = np.random.default_rng(8)
    p = PARAM_SET1
    for _ in range(10):
        op = lyapunov_operator(rng.normal(size=3), p)
        assert np.array_equal(op[5], [0.0, 0.0, 0.0, 0.0, 0.0, -2.0 * p.alpha])
        c = rng.normal(size=(3, 3))
        cov = c @ c.T
        rate = packed_cov_rate(rng.normal(size=3), cov, p)
        assert np.isclose(rate[5], p.beta**2 - 2 * p.alpha * cov[2, 2], rtol=1e-12)


def textbook_ekf_rhs(y, p):
    """J P + P J^T + g g^T from the model functions: the oracle for the EKF rates."""
    m = y[:3]
    cov = y[3:].reshape(3, 3)
    jac = jacobian(m, p)
    g = diffusion(p)
    return np.concatenate([drift(m, p), (jac @ cov + cov @ jac.T + np.outer(g, g)).ravel()])


@pytest.mark.parametrize("p", [PARAM_SET1, PARAM_SET2])
def test_ekf_rhs_matches_textbook_form(p):
    # The mean rate of the drift closure and the packed covariance rate.
    rhs = float_drift(p)
    rng = np.random.default_rng(21)
    for scale in np.geomspace(1e-4, 10.0, 60):
        c = rng.normal(size=(3, 3)) * scale
        cov = 0.5 * (c + c.T)  # symmetric, not necessarily definite
        y = flat_ekf(rng.normal(size=3) * [3.0, 1.0, 0.05], cov)
        want = textbook_ekf_rhs(y, p)
        assert np.array_equal(rhs(y[:3].tolist()), want[:3])
        got = packed_cov_rate(y[:3], cov, p)
        dcov = want[3:].reshape(3, 3)[PACKED]
        assert np.abs(got - dcov).max() <= 1e-15 * np.abs(dcov).max()


@pytest.mark.parametrize("p", [PARAM_SET1, PARAM_SET2], ids=["set1", "set2"])
def test_ekf_drift_closure_equals_array_oracle_bit_for_bit(p):
    # The unrolled RK4 step of the EKF mean is one `integrate` step of the
    # drift closure, signed zeros included.
    rhs = float_drift(p)
    step = _mean_step(p, 0.01)
    rng = np.random.default_rng(41)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-6.0, 3.0)
        m = rng.normal(size=3) * scale
        m[rng.random(3) < 0.1] = rng.choice([0.0, -0.0])
        y = flat_ekf(m, np.eye(3))
        assert np.array_equal(bits(rhs(m.tolist())), bits(ekf_rhs_oracle(y, p)[:3]))
        assert np.array_equal(bits(drift(m, p)), bits(ekf_rhs_oracle(y, p)[:3]))
        assert np.array_equal(bits(step(m.tolist())), bits(integrate(rhs, m, 0.01, 0.01)[1][1]))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("x1", [-1e3, -1e5, -1e10])
def test_ekf_mean_blowup_names_the_time_integrate_names(x1):
    x0 = np.array([x1, 0.0, 0.0])
    with pytest.raises(IntegrationError) as want:
        integrate(float_drift(PARAM_SET1), x0, 0.01, 50.0)
    with pytest.raises(IntegrationError, match=f"^{re.escape(str(want.value))}$"):
        ekf_predict(PARAM_SET1, x0, P0_SET1, 0.01, 50.0)


@pytest.mark.parametrize("p, p0_33", [(PARAM_SET1, 0.01), (PARAM_SET2, 0.09)])
def test_ekf_predict_matches_symmetrized_loop(p, p0_33):
    # The mean takes the same float steps as the loop, bit for bit.  The
    # covariance applies RK4's per-step affine maps, which round differently:
    # 3.7e-14 of the largest entry over the builtin set 2 run's 400 s.
    cov0 = np.diag([1.0, 1.0, p0_33])
    series = ekf_predict(p, X0_SET1.as_array(), cov0, 0.01, 50.0)
    t, mean, cov = symmetrized_rk4(lambda y: ekf_rhs_oracle(y, p), X0_SET1.as_array(), cov0, 0.01, 50.0)
    assert np.array_equal(grid(series), t)
    assert np.array_equal(bits(series.mean), bits(mean))
    assert np.abs(series.cov - cov[:, IU, JU]).max() <= 1e-12 * np.abs(cov).max()


@pytest.mark.parametrize("cov0", [
    np.zeros((3, 3)),
    -np.zeros((3, 3)),
    np.array([[-0.0, 0.0, -0.0], [-0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]]),
], ids=["plus_zero", "minus_zero", "mixed_zero"])
def test_ekf_zero_noise_zero_starts_equal_symmetrized_loop_bit_for_bit(cov0):
    p = ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1, beta=0.0)
    series = ekf_predict(p, X0_SET1.as_array(), cov0, 0.01, 20.0)
    start = 0.5 * (cov0 + cov0.T)  # the boundary's symmetrization
    _, mean, cov = symmetrized_rk4(lambda y: ekf_rhs_oracle(y, p), X0_SET1.as_array(), start, 0.01, 20.0)
    assert np.array_equal(bits(series.mean), bits(mean))
    assert np.array_equal(bits(series.cov), bits(cov[:, IU, JU]))


def test_ekf_rhs_initial_variance_rate():
    d = packed_cov_rate(X0_SET1.as_array(), P0_SET1, PARAM_SET1)
    # dP11 is the first packed entry: 2*F11*P11, with no F13 contribution
    # because P13(0) = 0.
    assert np.isclose(d[0], 2 * (-0.0315008) * 1.0, rtol=1e-10)
    assert np.isclose(d[0], -0.0630016, rtol=1e-10)


def test_zero_noise_zero_cov_stays_zero():
    p = ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1, beta=0.0)
    series = ekf_predict(p, X0_SET1.as_array(), np.zeros((3, 3)), 0.01, 50.0)
    assert np.abs(series.cov).max() == 0.0


def test_ekf_mean_equals_deterministic_ode_solution():
    # Mean propagation is independent of the covariance, so it must match
    # the plain RK4 solution of the drift ODE on the same grid.
    p = PARAM_SET1
    series = ekf_predict(p, X0_SET1.as_array(), P0_SET1, 0.01, 20.0)
    _, ode = integrate(lambda y: drift(y, p).tolist(), X0_SET1.as_array(), 0.01, 20.0)
    assert np.array_equal(series.mean, ode)


def test_ekf_flow_mean_and_stationary_variance():
    p = PARAM_SET1
    series = ekf_predict(p, X0_SET1.as_array(), P0_SET1, 0.01, 200.0)
    exact = ou_mean(0.009528, p.alpha, grid(series))
    assert np.max(np.abs(series.mean[:, 2] - exact) / np.abs(exact)) <= 1e-8
    # Riccati fixed point of the linear coordinate: b^2/(2a)
    assert np.isclose(series.at_time(200.0)[1][2, 2], 0.00968, atol=1e-9)


def test_ekf_p33_identical_to_moment_path():
    p = PARAM_SET1
    ekf = ekf_predict(p, X0_SET1.as_array(), P0_SET1, 0.01, 20.0)
    phys = integrate_physical(p, X0_SET1.as_array(), P0_SET1, 0.01, 20.0)
    assert np.abs(ekf.covariance(2, 2) - phys.covariance(2, 2)).max() <= 1e-12


def test_t_end_zero_returns_initial_state_only():
    series = ekf_predict(PARAM_SET1, X0_SET1.as_array(), P0_SET1, 0.01, 0.0)
    assert series.mean.shape == (1, 3) and series.cov.shape == (1, 6)
    assert np.array_equal(series.mean[0], X0_SET1.as_array())
    assert np.array_equal(series.at_time(0.0)[1], P0_SET1)


def test_ekf_covariance_symmetric_along_path():
    # The packed rows hold one triangle; `at_time` writes both from it.
    series = ekf_predict(PARAM_SET1, X0_SET1.as_array(), P0_SET1 + 0.1, 0.01, 10.0)
    for t in (0.0, 0.5, 5.0, 10.0):
        cov = series.at_time(t)[1]
        assert np.array_equal(cov, cov.T) and cov[0, 1] != 0.0
