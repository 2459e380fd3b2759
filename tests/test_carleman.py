import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vdvcarleman.carleman import (
    BilinearSystem,
    QuadraticSde,
    build_vandevusse,
    embed_order2,
    point_lift,
    vandevusse_coefficients,
    write_blocks,
)
from vdvcarleman.model import PARAM_SET1, PARAM_SET2, X0_SET1, drift

BLOCK_NAMES = ("a01", "a02", "a11", "a12", "a21", "a22", "d11", "d12", "d21", "d22", "g1", "g2")


# ---------------------------------------------------------------------------
# Test-only helpers: the drift of a coefficient form, a coefficient fit from
# a drift callable and the list of monomials the truncation deletes.  No
# production code needs any of them.
# ---------------------------------------------------------------------------


def quadratic_drift(sde: QuadraticSde, x) -> np.ndarray:
    """drift_i(x) = c[i] + lin[i] @ x + x @ quad[i] @ x."""
    x = np.asarray(x, dtype=float)
    return sde.c + sde.lin @ x + np.einsum("ijk,j,k->i", sde.quad, x, x)


def quadratic_sde_from_callable(n: int, drift_fn, g) -> QuadraticSde:
    """Fit coefficients from a drift callable; rejects drift of degree > 2.

    The fit uses exact interpolation on axis and pair points; the
    candidate is then verified on a scaled probe, which any monomial of
    degree three or more fails.
    """
    e = np.eye(n)
    c = np.asarray(drift_fn(np.zeros(n)), dtype=float)
    lin = np.empty((n, n))
    quad = np.zeros((n, n, n))
    fp = [np.asarray(drift_fn(e[i]), dtype=float) for i in range(n)]
    fm = [np.asarray(drift_fn(-e[i]), dtype=float) for i in range(n)]
    for i in range(n):
        lin[:, i] = 0.5 * (fp[i] - fm[i])
        quad[:, i, i] = 0.5 * (fp[i] + fm[i]) - c
    for i in range(n):
        for j in range(i + 1, n):
            fij = np.asarray(drift_fn(e[i] + e[j]), dtype=float)
            mixed = fij - c - lin[:, i] - lin[:, j] - quad[:, i, i] - quad[:, j, j]
            quad[:, i, j] = 0.5 * mixed
            quad[:, j, i] = 0.5 * mixed
    sde = QuadraticSde(c=c, lin=lin, quad=quad, g=np.asarray(g, dtype=float))
    probe = 1.0 + np.arange(n, dtype=float)
    for s in (1.0, 2.0, -3.0):
        x = s * probe
        fx = np.asarray(drift_fn(x), dtype=float)
        scale = 1.0 + np.abs(fx)
        if np.any(np.abs(fx - quadratic_drift(sde, x)) > 1e-9 * scale):
            raise ValueError("drift has coefficients of degree > 2; order-2 embedding only")
    return sde


def dropped_cubic_terms(sde: QuadraticSde) -> dict[int, dict[tuple[int, int, int], float]]:
    """Degree-3 drift monomials deleted by `embed_order2`.

    Maps each product-slot index to {sorted 0-based index triple:
    coefficient}; zero coefficients are omitted.
    """
    n = sde.n
    pairs = list(zip(*np.triu_indices(n)))
    dropped: dict[int, dict[tuple[int, int, int], float]] = {k: {} for k in range(len(pairs))}
    for k, (i, j) in enumerate(pairs):
        for src, other in ((j, i), (i, j)):
            for p in range(n):
                for q in range(p, n):
                    w = sde.quad[src, p, p] if p == q else sde.quad[src, p, q] + sde.quad[src, q, p]
                    if w != 0.0:
                        key = tuple(sorted((other, p, q)))
                        dropped[k][key] = dropped[k].get(key, 0.0) + w
    return {k: terms for k, terms in dropped.items() if terms}


def test_quadratic_sde_reproduces_model_drift():
    rng = np.random.default_rng(4)
    for p in (PARAM_SET1, PARAM_SET2):
        sde = vandevusse_coefficients(p)
        for _ in range(20):
            x = rng.normal(scale=2.0, size=3)
            assert np.allclose(quadratic_drift(sde, x), drift(x, p), rtol=1e-12, atol=1e-300)


def test_from_callable_recovers_coefficients():
    p = PARAM_SET1
    fitted = quadratic_sde_from_callable(3, lambda x: drift(x, p), [0.0, 0.0, p.beta])
    ref = vandevusse_coefficients(p)
    for name in ("c", "lin", "quad", "g"):
        assert np.allclose(getattr(fitted, name), getattr(ref, name), atol=1e-12)


def test_from_callable_rejects_cubic_drift():
    with pytest.raises(ValueError, match="degree > 2"):
        quadratic_sde_from_callable(2, lambda x: np.array([x[0] ** 3, x[1]]), [0.0, 0.0])


def test_embedding_equals_closed_form_exactly():
    for p in (PARAM_SET1, PARAM_SET2):
        built = build_vandevusse(p)
        embedded = embed_order2(vandevusse_coefficients(p))
        for f in ("a0", "a", "d", "g"):
            assert np.array_equal(getattr(built, f), getattr(embedded, f)), f
        assert built.n == embedded.n == 3
        assert built.dim == 9


def test_scalar_ou_embedding_coefficients():
    alpha, beta = 0.1, 0.044
    sys = embed_order2(QuadraticSde(c=[0.0], lin=[[-alpha]], quad=[[[0.0]]], g=[beta]))
    # x-block keeps the OU drift; the square slot gets -2a, the Ito
    # correction b^2, and multiplicative noise 2b.
    assert sys.a[0, 0] == -alpha
    assert sys.a[1, 1] == -2.0 * alpha
    assert sys.a0[1] == beta * beta
    assert sys.d[1, 0] == 2.0 * beta
    assert sys.g[0] == beta
    assert sys.a[1, 0] == 0.0 and sys.a0[0] == 0.0


def test_zero_noise_embedding_has_no_noise_terms():
    sde = vandevusse_coefficients(PARAM_SET1)
    quiet = QuadraticSde(c=sde.c, lin=sde.lin, quad=sde.quad, g=np.zeros(3))
    sys = embed_order2(quiet)
    assert not np.any(sys.d)
    assert not np.any(sys.g)
    assert not np.any(sys.a0[3:])


def test_vandevusse_zero_blocks():
    for p in (PARAM_SET1, PARAM_SET2):
        b = build_vandevusse(p).blocks()
        assert b["a21"].shape == (6, 3) and not np.any(b["a21"])
        for name in ("d11", "d12", "d22"):
            assert not np.any(b[name]), name
        assert not np.any(b["g2"])
        assert np.array_equal(b["a01"], np.zeros(3))
        expected_a02 = np.zeros(6)
        expected_a02[5] = p.beta * p.beta
        assert np.array_equal(b["a02"], expected_a02)


def test_vandevusse_block_entries():
    p = PARAM_SET1
    sys = build_vandevusse(p)
    b = sys.blocks()
    assert b["a11"][0, 2] == p.caf / p.v == 0.00027
    assert b["a12"][0, 0] == -p.k3
    assert b["a12"][0, 2] == b["a12"][1, 4] == -0.1
    assert b["a22"][1, 1] == -(p.k1 + p.k2)
    d21 = b["d21"]
    assert d21[2, 0] == p.beta and d21[4, 1] == p.beta and d21[5, 2] == 2 * p.beta
    assert np.count_nonzero(d21) == 3
    assert np.isclose(sys.a0[8], 0.001936, rtol=1e-12)


def test_dropped_cubic_terms_match_hand_derivation():
    p = PARAM_SET1
    dropped = dropped_cubic_terms(vandevusse_coefficients(p))
    k3, v = p.k3, p.v
    # Slot order: x1^2, x1x2, x1x3, x2^2, x2x3, x3^2 (0-based triples).
    expected = {
        0: {(0, 0, 0): -2 * k3, (0, 0, 2): -2 / v},
        1: {(0, 0, 1): -k3, (0, 1, 2): -2 / v},
        2: {(0, 0, 2): -k3, (0, 2, 2): -1 / v},
        3: {(1, 1, 2): -2 / v},
        4: {(1, 2, 2): -1 / v},
    }
    assert set(dropped) == set(expected)  # the x3^2 slot drops nothing
    for slot, terms in expected.items():
        assert set(dropped[slot]) == set(terms)
        for mono, coeff in terms.items():
            assert np.isclose(dropped[slot][mono], coeff, rtol=1e-12)


def test_embedding_matches_truncated_product_rates_on_random_sdes():
    # Independent oracle: for slot (i, j) the truncated rate is
    #   c_j x_i + c_i x_j + x_i (L_j . x) + x_j (L_i . x) + g_i g_j
    # (the quadratic drift parts of the product rule are degree 3 and
    # dropped), and the noise coefficient is g_j x_i + g_i x_j.  Written
    # directly from those definitions, it exercises none of the builder's
    # slot bookkeeping.
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        pairs = list(zip(*np.triu_indices(n)))
        for _ in range(5):
            quad = rng.normal(size=(n, n, n))
            sde = QuadraticSde(
                c=rng.normal(size=n), lin=rng.normal(size=(n, n)), quad=quad, g=rng.normal(size=n)
            )
            sys = embed_order2(sde)
            for _ in range(4):
                x = rng.normal(size=n)
                xi = point_lift(x)
                rate = sys.a0 + sys.a @ xi
                noise = sys.g + sys.d @ xi
                assert np.allclose(rate[:n], quadratic_drift(sde, x), rtol=1e-12, atol=1e-12)
                for k, (i, j) in enumerate(pairs):
                    expected = (sde.c[j] * x[i] + sde.c[i] * x[j]
                                + x[i] * (sde.lin[j] @ x) + x[j] * (sde.lin[i] @ x)
                                + sde.g[i] * sde.g[j])
                    assert np.isclose(rate[n + k], expected, rtol=1e-11, atol=1e-12)
                    assert np.isclose(noise[n + k], sde.g[j] * x[i] + sde.g[i] * x[j],
                                      rtol=1e-11, atol=1e-12)


def test_augmented_drift_at_zero_is_constant_block():
    sys = build_vandevusse(PARAM_SET1)
    assert np.array_equal(sys.a0 + sys.a @ np.zeros(9), sys.a0)


def test_augmented_drift_on_consistency_manifold_matches_model():
    # The physical block of the embedded drift is exact on lifted states
    # because the reactor drift is itself quadratic.
    p = PARAM_SET1
    sys = build_vandevusse(p)
    x = X0_SET1.as_array()
    xi = point_lift(x)
    got = sys.a0 + sys.a @ xi
    assert np.allclose(got[:3], drift(x, p), rtol=1e-12, atol=1e-300)
    assert np.allclose(got[:3], [-0.0694978274, 0.009459264, -0.0009528], rtol=1e-8)


def test_augmented_drift_flow_square_row():
    p = PARAM_SET1
    sys = build_vandevusse(p)
    xi = np.zeros(9)
    xi[8] = 1.0  # only the x3^2 slot
    got = sys.a0 + sys.a @ xi
    assert np.isclose(got[8], -2.0 * p.alpha + p.beta * p.beta, rtol=1e-14)


def test_bilinear_system_validates_shapes():
    with pytest.raises(ValueError):
        BilinearSystem(n=3, a0=np.zeros(8), a=np.zeros((9, 9)), d=np.zeros((9, 9)), g=np.zeros(9))


def test_write_blocks_nontrivial_set(tmp_path):
    sys = build_vandevusse(PARAM_SET1)
    paths = write_blocks(sys, str(tmp_path))
    names = sorted(p.rsplit("/", 1)[-1] for p in paths)
    assert names == ["a02.txt", "a11.txt", "a12.txt", "a22.txt", "d21.txt", "g1.txt"]
    a11 = (tmp_path / "a11.txt").read_text()
    assert a11.splitlines()[0] == "-1.388000000000e-02 0.000000000000e+00 2.700000000000e-04"
    # round-trip the dump
    loaded = np.array([[float(v) for v in line.split()] for line in a11.splitlines()])
    assert np.allclose(loaded, sys.blocks()["a11"], rtol=1e-12)


def test_write_blocks_leaves_none_of_its_files_when_one_fails(tmp_path):
    # g1.txt, the last block written, cannot be opened: the five before it go.
    (tmp_path / "g1.txt").mkdir()
    with pytest.raises(IsADirectoryError):
        write_blocks(build_vandevusse(PARAM_SET1), str(tmp_path))
    assert os.listdir(tmp_path) == ["g1.txt"]


@st.composite
def quadratic_sdes(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return QuadraticSde(c=rng.normal(size=n), lin=rng.normal(size=(n, n)),
                        quad=rng.normal(size=(n, n, n)), g=rng.normal(size=n))


@settings(max_examples=50, deadline=None)
@given(quadratic_sdes())
def test_blocks_tile_the_system_matrices(sde):
    sys = embed_order2(sde)
    n, b = sys.n, sys.blocks()
    assert tuple(b) == BLOCK_NAMES
    assert np.array_equal(np.concatenate([b["a01"], b["a02"]]), sys.a0)
    assert np.array_equal(np.concatenate([b["g1"], b["g2"]]), sys.g)
    for name in ("a", "d"):
        tiled = np.block([[b[f"{name}11"], b[f"{name}12"]], [b[f"{name}21"], b[f"{name}22"]]])
        assert np.array_equal(tiled, getattr(sys, name)), name
    assert b["a11"].shape == (n, n) and b["a22"].shape == (sys.dim - n, sys.dim - n)
    assert all(not view.flags.writeable for view in b.values())


def test_point_lift_appends_the_pairwise_products():
    # Slot k is x_i x_j for the k-th pair (i <= j) in lexicographic order.
    x = np.array([2.0, 3.0, 5.0])
    assert point_lift(x).tolist() == [2.0, 3.0, 5.0, 4.0, 6.0, 10.0, 9.0, 15.0, 25.0]
    assert point_lift(np.array([2.0])).tolist() == [2.0, 4.0]


@pytest.mark.parametrize("c", [1.0, [[1.0]], []])
def test_quadratic_sde_rejects_a_c_that_is_not_a_nonempty_vector(c):
    n = np.size(c)
    with pytest.raises(ValueError, match=r"^c must be a nonempty vector"):
        QuadraticSde(c=c, lin=np.zeros((n, n)), quad=np.zeros((n, n, n)), g=np.zeros(n))


@pytest.mark.parametrize("n", [0, -1, 2.0])
def test_bilinear_system_rejects_an_empty_state(n):
    with pytest.raises(ValueError, match=r"^n must be a positive integer"):
        BilinearSystem(n=n, a0=np.zeros(0), a=np.zeros((0, 0)), d=np.zeros((0, 0)), g=np.zeros(0))
