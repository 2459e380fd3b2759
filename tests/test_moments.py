import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdvcarleman import moments
from vdvcarleman.carleman import BilinearSystem, QuadraticSde, build_vandevusse, embed_order2, point_lift
from vdvcarleman.ekf import ekf_predict
from vdvcarleman.model import PARAM_SET1, PARAM_SET2, ReactorParams, X0_SET1
from vdvcarleman.moments import (
    BLOCK_STEPS,
    IntegrationError,
    augmented_mean_path,
    crosscheck_mean_paths,
    gaussian_lift,
    grid_index,
    grid_steps,
    integrate,
    integrate_augmented,
    integrate_physical,
    ou_variance,
    physical_rhs,
)

SET1_X0 = X0_SET1.as_array()
SET1_P0 = np.diag([1.0, 1.0, 0.01])

# Positions of the variances in the flat physical state
# (m1, m2, m3, P11, P12, P13, P22, P23, P33).
P11, P22, P33 = 3, 6, 8

# The (i, j) of each product slot and packed covariance entry, of the
# physical and of the augmented state.
IU, JU = np.triu_indices(3)
IU9, JU9 = np.triu_indices(9)


def flat_physical(mean, cov):
    return np.concatenate([mean, np.asarray(cov)[IU, JU]])


def bits(a):
    """Bit patterns of a float array: equal bits also mean equal signed zeros."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def grid(series):
    """The times of a series' rows: row k is at k * dt."""
    return np.arange(len(series.mean)) * series.dt


def ou_mean(x0: float, alpha: float, t: np.ndarray) -> np.ndarray:
    """Exact OU mean: x0 * exp(-alpha t)."""
    return x0 * np.exp(-alpha * np.asarray(t, dtype=float))


# ---------------------------------------------------------------------------
# Test-only oracles for the float loops: the RK4 loop and the physical
# right-hand side on numpy arrays, as the package computed them before its
# stage arithmetic moved to Python floats.
# ---------------------------------------------------------------------------


def rk4_oracle(rhs, y0, dt, t_end):
    """Fixed-step RK4 on numpy arrays, checking every step; ``rhs`` maps array to array."""
    n = round(t_end / dt)
    y = np.array(y0, dtype=float)
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
        if not np.isfinite(y).all():
            raise IntegrationError(f"non-finite state at t={(k + 1) * dt:.6g}")
        out[k + 1] = y
    return np.arange(n + 1) * dt, out


def physical_rhs_oracle(y, p):
    """Time derivative of the flat physical moment state, parameters read per call."""
    m1, m2, m3, p11, p12, p13, p22, p23, p33 = y.tolist()
    k1, k2, k3 = p.k1, p.k2, p.k3
    caf, v, a, b = p.caf, p.v, p.alpha, p.beta

    dm1 = -k1 * m1 + (caf / v) * m3 - k3 * p11 - k3 * m1 * m1 - p13 / v - m1 * m3 / v
    dm2 = k1 * m1 - k2 * m2 - p23 / v - m2 * m3 / v
    dm3 = -a * m3
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


# ---------------------------------------------------------------------------
# Test-only oracles: the augmented covariance RHS in full-matrix and block
# form, and the RK4 loop the augmented path used before its propagator.
# ---------------------------------------------------------------------------


def _augmented_cov_rhs(sys, mean, cov):
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


def symmetrized_rk4(rhs, mean0, cov0, dt, t_end):
    """Fixed-step RK4 on the flat state (mean, row-major covariance),
    with the covariance replaced by its symmetric part after every step.

    Returns (t, mean, cov).
    """
    n = mean0.size
    y = np.concatenate([mean0, cov0.ravel()])
    steps = round(t_end / dt)
    out = np.empty((steps + 1, y.size))
    out[0] = y
    for k in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        cov = y[n:].reshape(n, n)
        y[n:] = (0.5 * (cov + cov.T)).ravel()
        out[k + 1] = y
    return np.arange(steps + 1) * dt, out[:, :n], out[:, n:].reshape(steps + 1, n, n)


def augmented_rk4_oracle(sys, mean0, cov0, dt, t_end):
    """RK4 of the mean rate a0 + a m and `_augmented_cov_rhs` from the Gaussian lift."""
    dim = sys.dim

    def rhs(y):
        mean, cov = y[:dim], y[dim:].reshape(dim, dim)
        return np.concatenate([sys.a0 + sys.a @ mean, _augmented_cov_rhs(sys, mean, cov).ravel()])

    return symmetrized_rk4(rhs, *gaussian_lift(mean0, cov0), dt, t_end)


def augmented_cov_rhs_blocks(sys, mean, cov):
    """Covariance dynamics of the bilinear state assembled block by block.

    Writes out the four partitioned blocks of the full-matrix form, with
    the physical (x) and product (y) coordinates kept separate: an
    independent derivation to check `_augmented_cov_rhs` against.
    """
    n = sys.n
    x, y = mean[:n], mean[n:]
    pxx, pxy = cov[:n, :n], cov[:n, n:]
    pyx, pyy = cov[n:, :n], cov[n:, n:]
    b = sys.blocks()
    a11, a12, a21, a22 = b["a11"], b["a12"], b["a21"], b["a22"]
    d11, d12, d21, d22 = b["d11"], b["d12"], b["d21"], b["d22"]
    g1, g2 = b["g1"], b["g2"]

    xx, xy = np.outer(x, x), np.outer(x, y)
    yx, yy = np.outer(y, x), np.outer(y, y)

    dxx = (pxx @ a11.T + pxy @ a12.T + a11 @ pxx + a12 @ pyx
           + (np.outer(g1, g1)
              + np.outer(d11 @ x, g1) + np.outer(d12 @ y, g1)
              + np.outer(g1, d11 @ x) + np.outer(g1, d12 @ y)
              + d11 @ (pxx @ d11.T + pxy @ d12.T) + d12 @ (pyx @ d11.T + pyy @ d12.T)
              + d11 @ (xx @ d11.T + xy @ d12.T) + d12 @ (yx @ d11.T + yy @ d12.T)))
    dxy = (pxx @ a21.T + pxy @ a22.T + a11 @ pxy + a12 @ pyy
           + (np.outer(g1, g2)
              + np.outer(d11 @ x, g2) + np.outer(d12 @ y, g2)
              + np.outer(g1, d21 @ x) + np.outer(g1, d22 @ y)
              + d11 @ (pxx @ d21.T + pxy @ d22.T) + d12 @ (pyx @ d21.T + pyy @ d22.T)
              + d11 @ (xx @ d21.T + xy @ d22.T) + d12 @ (yx @ d21.T + yy @ d22.T)))
    dyx = (pyx @ a11.T + pyy @ a12.T + a21 @ pxx + a22 @ pyx
           + (np.outer(g2, g1)
              + np.outer(d21 @ x, g1) + np.outer(d22 @ y, g1)
              + np.outer(g2, d11 @ x) + np.outer(g2, d12 @ y)
              + d21 @ (pxx @ d11.T + pxy @ d12.T) + d22 @ (pyx @ d11.T + pyy @ d12.T)
              + d21 @ (xx @ d11.T + xy @ d12.T) + d22 @ (yx @ d11.T + yy @ d12.T)))
    dyy = (pyx @ a21.T + pyy @ a22.T + a21 @ pxy + a22 @ pyy
           + (np.outer(g2, g2)
              + np.outer(d21 @ x, g2) + np.outer(d22 @ y, g2)
              + np.outer(g2, d21 @ x) + np.outer(g2, d22 @ y)
              + d21 @ (pxx @ d21.T + pxy @ d22.T) + d22 @ (pyx @ d21.T + pyy @ d22.T)
              + d21 @ (xx @ d21.T + xy @ d22.T) + d22 @ (yx @ d21.T + yy @ d22.T)))
    return np.block([[dxx, dxy], [dyx, dyy]])


def test_physical_moments_symmetric_storage():
    cov = np.array([[1.0, 0.2, 0.3], [0.2, 2.0, 0.4], [0.3, 0.4, 3.0]])
    series = integrate_physical(PARAM_SET1, [1.0, 2.0, 3.0], cov, 0.01, 0.0)
    assert np.array_equal(series.cov[0], cov[IU, JU])  # one triangle is stored
    first = series.at_time(0.0)[1]
    assert np.array_equal(first, first.T)
    assert np.array_equal(first, cov)
    # asymmetric input is averaged
    skew = cov.copy()
    skew[0, 1] = 0.0
    first = integrate_physical(PARAM_SET1, [0.0, 0.0, 0.0], skew, 0.01, 0.0).at_time(0.0)[1]
    assert first[0, 1] == first[1, 0] == 0.1


@pytest.mark.parametrize("path", ["physical", "augmented", "ekf"])
def test_covariance_entry_is_a_view_of_its_packed_slot(path):
    cov0 = SET1_P0 + 0.1  # every entry nonzero from the start
    series = {
        "physical": lambda: integrate_physical(PARAM_SET1, SET1_X0, cov0, 0.01, 50.0),
        "augmented": lambda: integrate_augmented(build_vandevusse(PARAM_SET1), SET1_X0, cov0, 0.01, 50.0),
        "ekf": lambda: ekf_predict(PARAM_SET1, SET1_X0, cov0, 0.01, 50.0),
    }[path]()
    d = series.mean.shape[1]
    iu, ju = np.triu_indices(d)
    matrices = {t: series.at_time(t)[1] for t in (0.0, 0.5, 5.0, 10.0, 20.0, 50.0)}
    for i, j in itertools.product(range(d), repeat=2):
        entry = series.covariance(i, j)
        assert np.shares_memory(entry, series.cov)
        assert np.array_equal(bits(entry), bits(series.covariance(j, i)))
        slot = np.flatnonzero((iu == min(i, j)) & (ju == max(i, j)))[0]
        assert np.array_equal(bits(entry), bits(series.cov[:, slot]))
        for t, cov in matrices.items():
            assert entry[grid_index(0.01, t)] == cov[i, j]


@pytest.mark.parametrize("path", ["physical", "augmented", "ekf"])
def test_moment_paths_reject_bad_initial_moments(path):
    def start(mean, cov):
        if path == "physical":
            return integrate_physical(PARAM_SET1, mean, cov, 0.01, 0.1)
        if path == "augmented":
            return integrate_augmented(build_vandevusse(PARAM_SET1), mean, cov, 0.01, 0.1)
        return ekf_predict(PARAM_SET1, mean, cov, 0.01, 0.1)

    with pytest.raises(ValueError, match=r"3-vector mean .* shapes \(2,\) and \(3, 3\)"):
        start(np.zeros(2), np.eye(3))
    with pytest.raises(ValueError, match=r"3x3 covariance, got shapes \(3,\) and \(9,\)"):
        start(np.zeros(3), np.eye(3).ravel())
    bad = np.eye(3)
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="finite"):
        start(np.zeros(3), bad)
    with pytest.raises(ValueError, match="finite"):
        start([0.0, np.inf, 0.0], np.eye(3))


def test_physical_rhs_operating_point_terms():
    d = physical_rhs(PARAM_SET1)(flat_physical(SET1_X0, SET1_P0).tolist())
    # Term-by-term evaluation of the covariance rates at the initial moments.
    assert np.isclose(d[P11], -0.02776 + 0.016668 + 0.150012 + 0.0171504, rtol=1e-12)
    assert np.isclose(d[P11], 0.1560704, rtol=1e-9)
    assert np.isclose(d[P22], -0.05556 + 0.0023903846, rtol=1e-7)
    assert np.isclose(d[P22], -0.0531696, rtol=1e-5)
    assert np.isclose(d[P33], 0.044**2 - 2 * 0.1 * 0.01, rtol=1e-14)


def test_physical_rhs_truncation_residual_only():
    # With no noise and no spread the only covariance growth is the
    # deleted-cubic residual expressed through the means.
    p = ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1, beta=0.0)
    m1, m2, m3 = 1.7, -0.4, 0.25
    d = physical_rhs(p)(flat_physical([m1, m2, m3], np.zeros((3, 3))).tolist())
    assert np.isclose(d[P11], 2 * p.k3 * m1**3 + (2 / p.v) * m1 * m1 * m3, rtol=1e-12)
    assert np.isclose(d[P22], (2 / p.v) * m2 * m2 * m3, rtol=1e-12)
    assert np.isclose(d[P33], 0.0, atol=1e-300)


def test_physical_rhs_origin_fixed_point():
    p = ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1, beta=0.0)
    d = physical_rhs(p)([0.0] * 9)
    assert not np.any(d)


def test_integrate_constant_for_zero_rhs():
    t, ys = integrate(lambda y: [0.0] * len(y), np.array([1.0, -2.0]), 0.1, 1.0)
    assert t.shape == (11,)
    assert np.all(ys == [1.0, -2.0])


def test_integrate_grid_validation():
    with pytest.raises(ValueError):
        integrate(lambda y: y, np.zeros(1), 0.01, 0.505)
    with pytest.raises(ValueError):
        integrate(lambda y: y, np.zeros(1), -0.01, 1.0)
    with pytest.raises(ValueError):
        grid_index(0.01, 0.503)
    assert grid_index(0.01, 0.5) == 50


@pytest.mark.parametrize("dt, t_end, field", [
    (float("inf"), 5.0, "dt"), (float("nan"), 5.0, "dt"), (0.0, 5.0, "dt"),
    (0.01, float("inf"), "t_end"), (0.01, float("nan"), "t_end"), (0.01, -1.0, "t_end"),
])
def test_grid_rejects_non_finite_step_and_horizon(dt, t_end, field):
    with pytest.raises(ValueError, match=rf"^{field} must be a finite"):
        grid_steps(dt, t_end)
    with pytest.raises(ValueError, match=rf"^{field} must be a finite"):
        integrate_physical(PARAM_SET1, SET1_X0, SET1_P0, dt, t_end)
    if field == "dt":
        with pytest.raises(ValueError, match=r"^dt must be a finite"):
            grid_index(dt, 1.0)


def test_grid_position_is_checked_in_steps_at_tiny_dt():
    with pytest.raises(ValueError, match=r"^t_end=1\.5e-12 is not a multiple of dt=1e-12$"):
        grid_steps(1e-12, 1.5e-12)
    with pytest.raises(ValueError, match=r"^time 3\.3e-10 is not on the dt=1e-10 grid$"):
        grid_index(1e-10, 3.3e-10)
    assert grid_steps(1e-12, 3e-12) == grid_index(1e-10, 3e-10) == 3


@pytest.mark.parametrize("time", [float("inf"), float("-inf"), float("nan")])
def test_grid_index_rejects_non_finite_time(time):
    with pytest.raises(ValueError, match=r"^time must be finite"):
        grid_index(0.01, time)


def test_integrate_aborts_on_blowup_with_time():
    with pytest.raises(IntegrationError, match="t="):
        integrate(lambda y: [v * v for v in y], np.array([4.0]), 0.5, 100.0)


@pytest.mark.parametrize("p", [PARAM_SET1, PARAM_SET2], ids=["set1", "set2"])
def test_physical_rhs_equals_array_oracle_bit_for_bit(p):
    rhs = physical_rhs(p)
    rng = np.random.default_rng(40)
    for _ in range(2000):
        scale = 10.0 ** rng.uniform(-6.0, 3.0)
        y = rng.normal(size=9) * scale
        y[rng.random(9) < 0.1] = rng.choice([0.0, -0.0])
        assert np.array_equal(bits(rhs(y.tolist())), bits(physical_rhs_oracle(y, p)))


def physical_from_augmented(p, mean0, cov0, dt, t_end):
    """The physical path as the augmented mean path from the Gaussian-lift
    mean, mapped back by P = S - m m^T; row 0 is the start itself.

    Returns (t, mean, cov), or raises an IntegrationError naming the time of
    the first non-finite row: the oracle for `integrate_physical`.
    """
    t, aug = augmented_mean_path(build_vandevusse(p), gaussian_lift(mean0, cov0)[0], dt, t_end)
    mean = aug[:, :3]
    second = np.empty((t.size, 3, 3))
    second[:, IU, JU] = second[:, JU, IU] = aug[:, 3:]
    with np.errstate(over="ignore", invalid="ignore"):
        cov = second - mean[:, :, None] * mean[:, None, :]
    cov[0] = cov0
    finite = np.isfinite(cov).all(axis=(1, 2))
    if not finite.all():
        raise IntegrationError(f"non-finite state at t={t[np.argmin(finite)]:.6g}")
    return t, mean, cov


@pytest.mark.parametrize("p, p0_33", [(PARAM_SET1, 0.01), (PARAM_SET2, 0.09)], ids=["set1", "set2"])
def test_physical_path_equals_array_rk4_bit_for_bit(p, p0_33):
    cov0 = np.diag([1.0, 1.0, p0_33])
    series = integrate_physical(p, SET1_X0, cov0, 0.01, 60.0)
    t, mean, cov = physical_from_augmented(p, SET1_X0, cov0, 0.01, 60.0)
    assert np.array_equal(grid(series), t)
    assert np.array_equal(bits(series.mean), bits(mean))
    assert np.array_equal(bits(series.cov), bits(cov[:, IU, JU]))
    # The same path as RK4 of the nine hand-derived moment ODEs, up to
    # rounding: 1.1e-12 over set 1's 200 s.
    _, ys = rk4_oracle(lambda y: physical_rhs_oracle(y, p), flat_physical(SET1_X0, cov0), 0.01, 60.0)
    assert np.abs(series.mean - ys[:, :3]).max() <= 1e-11
    assert np.abs(series.cov - ys[:, 3:]).max() <= 1e-11


def test_integrate_blowup_inside_a_block_matches_array_oracle():
    # dy = y^2 from y0 = 1/15.37 escapes near t = 15.37, step ~1537: inside
    # the second block of rows, not at a block edge.
    y0 = np.array([1.0 / 15.37])
    with pytest.raises(IntegrationError) as got:
        integrate(lambda y: [v * v for v in y], y0, 0.01, 40.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as want:
            rk4_oracle(lambda y: y * y, y0, 0.01, 40.0)
    assert str(got.value) == str(want.value)
    k = round(float(str(got.value).rsplit("t=", 1)[1]) / 0.01)
    assert BLOCK_STEPS + 100 < k < 2 * BLOCK_STEPS - 100


def test_integrate_overflow_in_rhs_names_the_step():
    # A float power past the double range raises OverflowError where the
    # array form gives inf; both end at the same step.
    y0 = np.array([0.0, 1.0 / 15.37])
    with pytest.raises(IntegrationError) as got:
        integrate(lambda y: [y[1] ** 3, y[1] * y[1]], y0, 0.01, 40.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError) as want:
            rk4_oracle(lambda y: np.array([y[1] ** 3, y[1] * y[1]]), y0, 0.01, 40.0)
    assert str(got.value) == str(want.value)


def test_physical_path_overflow_is_an_integration_error():
    # m1 * m1 of the recovered covariance overflows at the first step for
    # a large m1, and after about 50 steps for x0 = (3e78, 1, 0.01).
    with pytest.raises(IntegrationError, match=r"^non-finite state at t=0\.01$"):
        integrate_physical(PARAM_SET1, [1e103, 1.0, 0.01], np.eye(3), 0.01, 0.01)
    with pytest.raises(IntegrationError, match=r"^non-finite state at t=") as got:
        integrate_physical(PARAM_SET1, [3e78, 1.0, 0.01], np.eye(3), 0.01, 1.0)
    with pytest.raises(IntegrationError) as want:
        physical_from_augmented(PARAM_SET1, np.array([3e78, 1.0, 0.01]), np.eye(3), 0.01, 1.0)
    assert str(got.value) == str(want.value)
    assert 10 < round(float(str(got.value).rsplit("t=", 1)[1]) / 0.01) < 100


def test_flow_rate_moments_match_ou_analytics():
    series = integrate_physical(PARAM_SET1, SET1_X0, SET1_P0, 0.01, 10.0)
    exact_var = ou_variance(0.01, 0.1, 0.044, grid(series))
    exact_mean = ou_mean(0.009528, 0.1, grid(series))
    assert np.max(np.abs(series.covariance(2, 2) - exact_var) / exact_var) <= 1e-8
    assert np.max(np.abs(series.mean[:, 2] - exact_mean) / np.abs(exact_mean)) <= 1e-8
    # spot values from the closed forms
    m10, c10 = series.at_time(10.0)
    assert np.isclose(c10[2, 2], 0.00968 + (0.01 - 0.00968) * np.exp(-2.0), rtol=1e-9)
    assert np.isclose(m10[2], 0.009528 * np.exp(-1.0), rtol=1e-9)


def test_augmented_initialization_gaussian_closure():
    m = np.array([1.5, -0.5, 2.0])
    P = np.array([[1.0, 0.1, 0.2], [0.1, 2.0, 0.3], [0.2, 0.3, 0.5]])
    aug_mean, aug_cov = gaussian_lift(m, P)
    second = P + np.outer(m, m)
    for k, (i, j) in enumerate(zip(IU, JU)):
        assert np.isclose(aug_mean[3 + k], second[i, j], rtol=1e-14)
    assert np.allclose(aug_cov[:3, :3], P)
    # product-slot variance: Var(x_i x_j) for a Gaussian vector
    for k, (i, j) in enumerate(zip(IU, JU)):
        var = (P[i, i] * P[j, j] + P[i, j] ** 2 + m[i] ** 2 * P[j, j]
               + m[j] ** 2 * P[i, i] + 2 * m[i] * m[j] * P[i, j])
        assert np.isclose(aug_cov[3 + k, 3 + k], var, rtol=1e-12)
    # cross block: Cov(x_k, x_i x_j) = m_i P_kj + m_j P_ki
    for b, (i, j) in enumerate(zip(IU, JU)):
        for k in range(3):
            assert np.isclose(aug_cov[k, 3 + b], m[i] * P[k, j] + m[j] * P[k, i], rtol=1e-12)
    assert np.array_equal(aug_cov, aug_cov.T)
    # the augmented path starts from the lift
    series = integrate_augmented(build_vandevusse(PARAM_SET1), m, P, 0.01, 0.0)
    assert np.array_equal(series.mean[0], aug_mean)
    assert np.array_equal(series.at_time(0.0)[1], aug_cov)


def gaussian_lift_loops(m, P):
    """`gaussian_lift` written entry by entry over the product pairs, in its operation order."""
    n = m.size
    pairs = list(itertools.combinations_with_replacement(range(n), 2))
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
    second = P + np.outer(m, m)
    return np.concatenate([m, [second[i, j] for (i, j) in pairs]]), 0.5 * (lifted + lifted.T)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gaussian_lift_equals_isserlis_loops_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = rng.normal(size=n) * 10.0 ** rng.uniform(-3.0, 3.0)
        c = rng.normal(size=(n, n))
        got, want = gaussian_lift(m, c @ c.T), gaussian_lift_loops(m, c @ c.T)
        assert np.array_equal(bits(got[0]), bits(want[0]))
        assert np.array_equal(bits(got[1]), bits(want[1]))


def test_augmented_cov_rhs_lyapunov_when_noiseless():
    sys = build_vandevusse(PARAM_SET1)
    quiet = build_vandevusse(ReactorParams(
        k1=PARAM_SET1.k1, k2=PARAM_SET1.k2, k3=PARAM_SET1.k3,
        caf=PARAM_SET1.caf, v=PARAM_SET1.v, alpha=PARAM_SET1.alpha, beta=0.0))
    rng = np.random.default_rng(5)
    mean = rng.normal(size=9)
    c = rng.normal(size=(9, 9))
    cov = c @ c.T
    got = _augmented_cov_rhs(quiet, mean, cov)
    expected = quiet.a @ cov + cov @ quiet.a.T
    assert np.allclose(got, expected, atol=1e-300)
    del sys


def test_augmented_cov_rhs_pointlike_diffusion_outer_product():
    # With zero covariance the covariance rate is the squared diffusion
    # column of the bilinear SDE: outer(g + d mean, g + d mean).
    p = PARAM_SET1
    sys = build_vandevusse(p)
    x = X0_SET1.as_array()
    mean = point_lift(x)
    got = _augmented_cov_rhs(sys, mean, np.zeros((9, 9)))
    w = sys.g + sys.d @ mean
    assert np.allclose(got, np.outer(w, w), rtol=1e-14, atol=1e-300)
    assert np.isclose(got[2, 2], p.beta * p.beta, rtol=1e-14)
    assert np.isclose(got[2, 2], 0.001936, rtol=1e-12)


def test_augmented_mean_flow_square_slot():
    # The x3^2 slot of the mean system must follow d/dt = -2a s + b^2.
    p = PARAM_SET1
    sys = build_vandevusse(p)
    mean = np.zeros(9)
    mean[8] = 1.0
    d = sys.a0 + sys.a @ mean
    assert np.isclose(d[8], -2 * p.alpha * 1.0 + p.beta * p.beta, rtol=1e-14)


def test_blockwise_covariance_equals_full_matrix_form():
    rng = np.random.default_rng(6)
    for p in (PARAM_SET1, PARAM_SET2):
        sys = build_vandevusse(p)
        for _ in range(20):
            mean = rng.normal(size=9)
            c = rng.normal(size=(9, 9))
            cov = c @ c.T
            full = _augmented_cov_rhs(sys, mean, cov)
            blocks = augmented_cov_rhs_blocks(sys, mean, cov)
            assert np.abs(full - blocks).max() <= 1e-12 * (1.0 + np.abs(full).max())


def test_augmented_covariance_stays_symmetric():
    for p in (PARAM_SET1, PARAM_SET2):
        # 2000 steps: the horizon spans more than one block of the propagator.
        series = integrate_augmented(build_vandevusse(p), SET1_X0, SET1_P0, 0.01, 20.0)
        assert series.cov.shape == (2001, 45)  # one packed upper triangle a row
        for t in (0.0, 5.0, 10.24, 10.25, 20.0):
            cov = series.at_time(t)[1]
            assert np.array_equal(cov, cov.T)  # both triangles are written from it


@pytest.mark.parametrize("p, p0_33", [(PARAM_SET1, 0.01), (PARAM_SET2, 0.09)])
def test_augmented_propagator_matches_rk4_oracle(p, p0_33):
    # The propagator is RK4's one-step map, so it equals the RK4 loop up to
    # rounding.  Measured over 50 s (5000 steps, five blocks): 7e-14 (set1)
    # and 9e-14 (set2) of the largest entry; the bound leaves a factor 10.
    p0 = np.diag([1.0, 1.0, p0_33])
    series = integrate_augmented(build_vandevusse(p), SET1_X0, p0, 0.01, 50.0)
    t, mean, cov = augmented_rk4_oracle(build_vandevusse(p), SET1_X0, p0, 0.01, 50.0)
    assert np.array_equal(grid(series), t)
    assert np.abs(series.mean - mean).max() <= 1e-12 * np.abs(mean).max()
    assert np.abs(series.cov - cov[:, IU9, JU9]).max() <= 1e-12 * np.abs(cov).max()
    # The mean is read from the stepped z z^T, not from A z: the two round apart.
    _, path = augmented_mean_path(build_vandevusse(p), gaussian_lift(SET1_X0, p0)[0], 0.01, 50.0)
    assert np.abs(series.mean - path).max() <= 1e-12 * np.abs(path).max()


@pytest.mark.parametrize("p, p0_33", [(PARAM_SET1, 0.01), (PARAM_SET2, 0.09)], ids=["set1", "set2"])
def test_augmented_mean_path_matches_rk4_oracle(p, p0_33):
    # The path steps RK4's one-step map, so it equals the RK4 loop on the
    # rate a0 + a m up to rounding, over 50 s (5000 steps).
    sys = build_vandevusse(p)
    mean0 = gaussian_lift(SET1_X0, np.diag([1.0, 1.0, p0_33]))[0]
    t, mean = augmented_mean_path(sys, mean0, 0.01, 50.0)
    t_ref, ref = rk4_oracle(lambda m: sys.a0 + sys.a @ m, mean0, 0.01, 50.0)
    assert np.array_equal(t, t_ref)
    assert mean.shape == (5001, 9)
    assert np.abs(mean - ref).max() <= 1e-12 * np.abs(ref).max()


def test_augmented_mean_path_blowup_names_first_nonfinite_time():
    # dx = x dt + dB: the x^2 slot of the mean grows like exp(2t) and
    # overflows near t = 355.
    sys = embed_order2(QuadraticSde(c=[0.0], lin=[[1.0]], quad=[[[0.0]]], g=[1.0]))
    mean0 = np.array([1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=r"non-finite state at t=") as err:
            augmented_mean_path(sys, mean0, 0.1, 400.0)
        with pytest.raises(IntegrationError, match=r"non-finite state at t=") as ref:
            rk4_oracle(lambda m: sys.a0 + sys.a @ m, mean0, 0.1, 400.0)
    k = round(float(str(err.value).rsplit("t=", 1)[1]) / 0.1)
    k_ref = round(float(str(ref.value).rsplit("t=", 1)[1]) / 0.1)
    assert 3000 < k < 4000
    # The RK4 loop overflows 12 steps earlier, in its stage sum
    # k1 + 2 k2 + 2 k3 + k4 (about 12 m, and m grows 1.22x a step).
    assert 0 <= k - k_ref <= 15
    _, before = augmented_mean_path(sys, mean0, 0.1, (k - 1) * 0.1)
    assert np.isfinite(before).all()


def test_augmented_mean_path_t_end_zero_returns_start():
    sys = build_vandevusse(PARAM_SET2)
    mean0 = gaussian_lift(SET1_X0, SET1_P0)[0]
    t, mean = augmented_mean_path(sys, mean0, 0.01, 0.0)
    assert np.array_equal(t, [0.0])
    assert np.array_equal(bits(mean), bits(mean0[None]))
    with pytest.raises(ValueError, match="augmented start must be a 9-vector"):
        augmented_mean_path(sys, SET1_X0, 0.01, 1.0)


def _linear_path_rows(maps, y0, dt, n):
    """The rows `_linear_path` yields, up to its error: (rows, IntegrationError or None)."""
    rows = []
    try:
        for k, block in moments._linear_path(maps, np.array(y0), dt, n):
            assert k == len(rows)
            rows.extend(block.copy())
    except IntegrationError as err:
        return np.array(rows), err
    return np.array(rows), None


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
@pytest.mark.parametrize("per_step", [False, True], ids=["constant", "stack"])
def test_linear_path_equals_a_plain_loop_and_names_its_first_nonfinite_time(per_step):
    # Growth 1.5 a step: the first state past the double range is step 1751,
    # inside the second block.
    n, dt = 2500, 0.01
    rng = np.random.Generator(np.random.PCG64(8))
    if per_step:
        # signed permutations times 1.5, a different one at every step
        stack = np.stack([1.5 * np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=(3, 1))
                          for _ in range(n)])
        maps = lambda start, stop: stack[start:stop]
    else:
        a = np.array([[1.5, 0.0, 0.0], [0.25, 0.5, 0.0], [0.1, -0.3, -0.75]])
        maps = lambda start, stop: [a] * (stop - start)
    y0 = np.array([1.0, -0.5, 0.25])
    want = [y0]
    for a_k in maps(0, n):
        want.append(np.dot(a_k, want[-1]))
    want = np.array(want)
    first = int(np.argmin(np.isfinite(want).all(axis=1)))
    assert first == 1751 and 0 < (first - 1) % BLOCK_STEPS < BLOCK_STEPS - 1

    rows, err = _linear_path_rows(maps, y0, dt, first - 1)
    assert err is None and np.array_equal(bits(rows), bits(want[:first]))
    rows, err = _linear_path_rows(maps, y0, dt, n)
    assert str(err) == f"non-finite state at t={first * dt:.6g}" and err.step == first
    # the blocks before the failing one were handed out, and nothing after
    assert rows.shape[0] == BLOCK_STEPS + 1
    assert np.array_equal(bits(rows), bits(want[:BLOCK_STEPS + 1]))
    # a non-finite start is reported at t=0, even with no step to take
    for steps in (0, 5):
        rows, err = _linear_path_rows(maps, [1.0, np.nan, 0.0], dt, steps)
        assert rows.shape == (0,) and str(err) == "non-finite state at t=0" and err.step == 0
    rows, err = _linear_path_rows(maps, y0, dt, 0)
    assert err is None and np.array_equal(bits(rows), bits(y0[None]))


@st.composite
def quadratic_sdes(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sde = QuadraticSde(c=rng.normal(size=n), lin=rng.normal(size=(n, n)),
                       quad=rng.normal(size=(n, n, n)), g=rng.normal(size=n))
    c = rng.normal(size=(n, n))
    return sde, rng.normal(size=n), c @ c.T


@settings(max_examples=40, deadline=None)
@given(quadratic_sdes())
def test_augmented_propagator_on_random_quadratic_sdes(case):
    sde, mean0, cov0 = case
    sys = embed_order2(sde)
    # 50 steps; measured over 300 random systems: 2e-14 of the largest entry.
    series = integrate_augmented(sys, mean0, cov0, 0.01, 0.5)
    _, mean, cov = augmented_rk4_oracle(sys, mean0, cov0, 0.01, 0.5)
    iu, ju = np.triu_indices(sys.dim)
    assert np.abs(series.mean - mean).max() <= 1e-12 * np.abs(mean).max()
    assert np.abs(series.cov - cov[:, iu, ju]).max() <= 1e-12 * np.abs(cov).max()
    # Without noise (g = 0, hence d = 0) a zero covariance stays exactly zero.
    quiet = embed_order2(QuadraticSde(c=sde.c, lin=sde.lin, quad=sde.quad, g=np.zeros(sys.n)))
    assert not quiet.g.any() and not quiet.d.any()
    assert np.abs(integrate_augmented(quiet, mean0, np.zeros_like(cov0), 0.01, 0.5).cov).max() == 0.0


def test_augmented_blowup_names_first_nonfinite_time():
    # dx = x dt + dB: the covariance of the x^2 slot grows like exp(4t) and
    # overflows near t = 177, in the second block of the propagator.
    sys = embed_order2(QuadraticSde(c=[0.0], lin=[[1.0]], quad=[[[0.0]]], g=[1.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationError, match=r"non-finite state at t=") as err:
            integrate_augmented(sys, np.ones(1), np.eye(1), 0.1, 400.0)
        t, mean, cov = augmented_rk4_oracle(sys, np.ones(1), np.eye(1), 0.1, 400.0)
        with pytest.raises(IntegrationError, match="non-finite initial state"):
            integrate_augmented(sys, [1e200], np.eye(1), 0.1, 1.0)  # the lifted square overflows
    k = round(float(str(err.value).rsplit("t=", 1)[1]) / 0.1)
    assert 1024 < k < 2048
    # The step before the reported time is still finite.
    before = integrate_augmented(sys, np.ones(1), np.eye(1), 0.1, (k - 1) * 0.1)
    assert np.isfinite(before.mean).all() and np.isfinite(before.cov).all()
    # The RK4 loop overflows a few steps earlier, inside its stage products.
    first = int(np.argmin(np.isfinite(cov).all(axis=(1, 2)) & np.isfinite(mean).all(axis=1)))
    assert 0 <= k - first <= 10


def test_augmented_t_end_zero_returns_lift():
    m = np.array([1.5, -0.5, 2.0])
    P = np.array([[1.0, 0.1, 0.2], [0.1, 2.0, 0.3], [0.2, 0.3, 0.5]])
    series = integrate_augmented(build_vandevusse(PARAM_SET2), m, P, 0.01, 0.0)
    lift_mean, lift_cov = gaussian_lift(m, P)
    assert series.mean.shape == (1, 9) and series.cov.shape == (1, 45)
    assert np.array_equal(series.mean, lift_mean[None])
    assert np.array_equal(series.at_time(0.0)[1], lift_cov)


def test_augmented_flow_moments_match_ou():
    sys = build_vandevusse(PARAM_SET1)
    series = integrate_augmented(sys, SET1_X0, SET1_P0, 0.01, 10.0)
    exact_var = ou_variance(0.01, 0.1, 0.044, grid(series))
    exact_mean = ou_mean(0.009528, 0.1, grid(series))
    assert np.max(np.abs(series.covariance(2, 2) - exact_var) / exact_var) <= 1e-8
    assert np.max(np.abs(series.mean[:, 2] - exact_mean) / np.abs(exact_mean)) <= 1e-8


def test_zero_noise_zero_cov_augmented_stays_zero_physical_stays_finite():
    p = ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1, beta=0.0)
    sys = build_vandevusse(p)
    aug = integrate_augmented(sys, SET1_X0, np.zeros((3, 3)), 0.01, 20.0)
    assert np.abs(aug.cov).max() == 0.0
    phys = integrate_physical(p, SET1_X0, np.zeros((3, 3)), 0.01, 20.0)
    assert np.all(np.isfinite(phys.cov))
    assert np.abs(phys.cov).max() > 0.0  # truncation residual does grow


def test_crosscheck_short_horizon():
    for p in (PARAM_SET1, PARAM_SET2):
        p0_33 = 0.01 if p is PARAM_SET1 else 0.09
        p0 = np.diag([1.0, 1.0, p0_33])
        rep = crosscheck_mean_paths(p, SET1_X0, p0, 0.01, 20.0)
        assert rep.max_discrepancy <= 1e-9
        assert 0.0 <= rep.t_at_max <= 20.0


def test_crosscheck_compares_two_formulations():
    # The physical side is the float RK4 loop of `physical_rhs`, not the
    # augmented map that `integrate_physical` steps: the two round apart.
    rep = crosscheck_mean_paths(PARAM_SET1, SET1_X0, SET1_P0, 0.01, 20.0)
    assert rep.max_discrepancy > 0.0


def test_crosscheck_reads_the_reporting_path(monkeypatch):
    # Criterion 6 compares `physical_rhs` with the path that gets emitted,
    # so a fault in `integrate_physical` shows in the discrepancy.
    real = moments.integrate_physical

    def offset(*args):
        series = real(*args)
        series.covariance(0, 0)[-1] += 1e-6
        return series

    monkeypatch.setattr(moments, "integrate_physical", offset)
    rep = crosscheck_mean_paths(PARAM_SET1, SET1_X0, SET1_P0, 0.01, 20.0)
    assert rep.max_discrepancy >= 1e-6 * (1.0 - 1e-6)
    assert rep.t_at_max == 20.0


def test_crosscheck_zero_state_trivial():
    p = ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1, beta=0.0)
    rep = crosscheck_mean_paths(p, np.zeros(3), np.zeros((3, 3)), 0.01, 5.0)
    assert rep.max_discrepancy == 0.0


def test_physical_path_zero_noise_truncation_residual():
    # With beta = 0 and P0 = 0 the reactor is deterministic, so its true
    # covariance is identically 0.  The physical path still grows a P11:
    # the order-2 truncation sets the third raw moments to zero, and the
    # m-only products in `physical_rhs` (2 k3 m1^3 + ...) no longer cancel.
    # This pins that residual as a property of the method.
    series = integrate_physical(replace(PARAM_SET1, beta=0.0), SET1_X0, np.zeros((3, 3)), 0.01, 20.0)
    for t, p11 in ((0.5, 0.0818), (5.0, 0.674), (20.0, 1.467)):
        assert series.at_time(t)[1][0, 0] == pytest.approx(p11, rel=1e-3)
    # The flow rate is exactly linear, so its true P33 is 0.  P33 = S33 - m3^2
    # keeps RK4's residual R(2z) - R(z)^2 for the step factors of S33 and m3.
    assert np.abs(series.covariance(2, 2)).max() <= 1e-16
