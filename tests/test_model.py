from dataclasses import replace

import numpy as np
import pytest

from vdvcarleman.model import (
    PARAM_SET1,
    PARAM_SET2,
    PhysicalState,
    ReactorParams,
    X0_SET1,
    diffusion,
    drift,
    jacobian,
)


def test_param_validation():
    with pytest.raises(ValueError):
        ReactorParams(k1=0.0, k2=1, k3=1, caf=1, v=1, alpha=1, beta=0)
    with pytest.raises(ValueError):
        ReactorParams(k1=1, k2=1, k3=1, caf=1, v=1, alpha=0.0, beta=0)
    with pytest.raises(ValueError):
        ReactorParams(k1=1, k2=1, k3=1, caf=1, v=1, alpha=1, beta=-0.1)


_FIELDS = ("k1", "k2", "k3", "caf", "v", "alpha", "beta")


@pytest.mark.parametrize("field", _FIELDS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), "1.0", None, True, False])
def test_param_field_must_be_finite_number(field, bad):
    with pytest.raises(ValueError, match=rf"^{field} must be a finite number"):
        replace(PARAM_SET1, **{field: bad})


@pytest.mark.parametrize("field", _FIELDS)
def test_param_field_sign_is_checked(field):
    nonnegative = field in ("caf", "beta")
    rule = "nonnegative" if nonnegative else "strictly positive"
    with pytest.raises(ValueError, match=rf"^{field} must be {rule}"):
        replace(PARAM_SET1, **{field: -1e-3})
    if nonnegative:
        assert getattr(replace(PARAM_SET1, **{field: 0.0}), field) == 0.0
    else:
        with pytest.raises(ValueError, match=field):
            replace(PARAM_SET1, **{field: 0.0})


def test_physical_state_roundtrip_and_validation():
    s = PhysicalState(1.0, -2.0, 3.0)  # negative values are allowed
    assert np.array_equal(s.as_array(), [1.0, -2.0, 3.0])
    assert PhysicalState(*s.as_array().tolist()) == s
    with pytest.raises(ValueError):
        PhysicalState(np.inf, 0.0, 0.0)


def test_drift_origin_is_equilibrium():
    for p in (PARAM_SET1, PARAM_SET2):
        assert np.array_equal(drift(np.zeros(3), p), np.zeros(3))


def test_drift_at_first_operating_point():
    p = PARAM_SET1
    x = X0_SET1.as_array()
    # Term-by-term hand evaluation of the drift components.
    f1 = -p.k1 * 3.0 - p.k3 * 9.0 + (0.009528 / 10.0) * (0.0027 - 3.0)
    f2 = p.k1 * 3.0 - p.k2 * 1.12 - (0.009528 / 10.0) * 1.12
    f3 = -0.1 * 0.009528
    assert np.allclose(drift(x, p), [f1, f2, f3], rtol=1e-12)
    assert np.allclose(drift(x, p), [-0.0694978274, 0.009459264, -0.0009528], rtol=1e-8)


def test_drift_with_only_flow():
    # At x = (0, 0, 1) only the feed and OU terms survive.
    got = drift(np.array([0.0, 0.0, 1.0]), PARAM_SET1)
    assert np.allclose(got, [0.00027, 0.0, -0.1], rtol=1e-12)


def test_drift_broadcasts_over_batches():
    rng = np.random.default_rng(1)
    batch = rng.normal(size=(7, 3))
    out = drift(batch, PARAM_SET1)
    assert out.shape == (7, 3)
    for i in range(7):
        assert np.array_equal(out[i], drift(batch[i], PARAM_SET1))


def _stacked_drift(x, p):
    """The component-stack form of the drift, kept as the bit-level oracle."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    f1 = -p.k1 * x1 - p.k3 * x1 * x1 + (x3 / p.v) * (p.caf - x1)
    f2 = p.k1 * x1 - p.k2 * x2 - (x3 / p.v) * x2
    f3 = -p.alpha * x3
    return np.stack([f1, f2, f3], axis=-1)


@pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 256, 3)])
@pytest.mark.parametrize("p", [PARAM_SET1, PARAM_SET2])
def test_drift_equals_stacked_form_bit_for_bit(shape, p):
    x = np.random.default_rng(9).normal(size=shape) * [3.0, 1.0, 0.05]
    got = drift(x, p)
    want = _stacked_drift(x, p)
    assert got.shape == want.shape == shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_diffusion_examples():
    assert np.array_equal(diffusion(PARAM_SET1), [0.0, 0.0, 0.044])
    p0 = ReactorParams(k1=1, k2=1, k3=1, caf=1, v=1, alpha=1, beta=0.0)
    assert np.array_equal(diffusion(p0), [0.0, 0.0, 0.0])
    p1 = ReactorParams(k1=1, k2=1, k3=1, caf=1, v=1, alpha=1, beta=1.0)
    assert np.array_equal(diffusion(p1), [0.0, 0.0, 1.0])


def test_jacobian_at_origin_equals_linear_part():
    p = PARAM_SET1
    expected = np.array([[-p.k1, 0.0, p.caf / p.v], [p.k1, -p.k2, 0.0], [0.0, 0.0, -p.alpha]])
    assert np.array_equal(jacobian(np.zeros(3), p), expected)


def test_jacobian_entry_at_operating_point():
    j = jacobian(X0_SET1.as_array(), PARAM_SET1)
    assert np.isclose(j[0, 0], -0.01388 - 2 * 0.002778 * 3 - 0.0009528, rtol=1e-12)
    assert np.isclose(j[0, 0], -0.0315008, rtol=1e-10)


def test_jacobian_ou_row_is_state_independent():
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=3)
        assert np.array_equal(jacobian(x, PARAM_SET1)[2], [0.0, 0.0, -PARAM_SET1.alpha])


@pytest.mark.parametrize("shape", [(5, 3), (4, 256, 3)])
@pytest.mark.parametrize("p", [PARAM_SET1, PARAM_SET2])
def test_jacobian_broadcasts_bit_for_bit(shape, p):
    x = np.random.default_rng(10).normal(size=shape) * [3.0, 1.0, 0.05]
    x.reshape(-1, 3)[::7] = [-0.0, 0.0, -0.0]  # signed zeros reach every entry formula
    got = jacobian(x, p)
    assert got.shape == shape + (3,)
    want = np.array([jacobian(state, p) for state in x.reshape(-1, 3)]).reshape(got.shape)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert jacobian(x.reshape(-1, 3)[0], p).shape == (3, 3)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-5
    for p in (PARAM_SET1, PARAM_SET2):
        for _ in range(100):
            x = rng.normal(scale=2.0, size=3)
            jac = jacobian(x, p)
            fd = np.empty((3, 3))
            for k in range(3):
                e = np.zeros(3)
                e[k] = h
                fd[:, k] = (drift(x + e, p) - drift(x - e, p)) / (2.0 * h)
            assert np.all(np.abs(fd - jac) <= 1e-6 * (1.0 + np.abs(jac)))
