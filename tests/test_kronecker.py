import itertools

import numpy as np
import pytest

from vdvcarleman.kronecker import MonomialIndexMap, reduce_square, reduced_dim


def brute_force_monomial_count(n, r):
    # Independent oracle: enumerate exponent vectors (a1..an) with sum r.
    count = 0
    for combo in itertools.product(range(r + 1), repeat=n):
        count += sum(combo) == r
    return count


def test_reduced_dim_examples():
    assert reduced_dim(3, 2) == 6
    for n in (1, 2, 5, 9):
        assert reduced_dim(n, 1) == n
    assert brute_force_monomial_count(2, 3) == 4
    assert reduced_dim(2, 3) == 4


def test_reduced_dim_matches_enumeration():
    for n in range(1, 5):
        for r in range(1, 5):
            assert reduced_dim(n, r) == brute_force_monomial_count(n, r)


def test_reduced_dim_rejects_degenerate_arguments():
    with pytest.raises(ValueError):
        reduced_dim(0, 2)
    with pytest.raises(ValueError):
        reduced_dim(3, 0)


def test_augmented_dimension_is_nine_for_three_states():
    assert reduced_dim(3, 2) + 3 == 9


def test_pair_ordering_matches_canonical_listing():
    imap = MonomialIndexMap(3, 2)
    assert imap.pairs == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    assert len(imap) == 6


def test_every_multiset_appears_exactly_once():
    imap = MonomialIndexMap(4, 3)
    seen = set(imap.pairs)
    assert len(seen) == len(imap.pairs) == reduced_dim(4, 3)
    for combo in itertools.combinations_with_replacement(range(4), 3):
        assert combo in seen


def test_index_of_pair_examples():
    imap = MonomialIndexMap(3, 2)
    assert imap.position((0, 0)) == 0
    assert imap.position((2, 2)) == 5
    assert imap.position((2, 0)) == 2  # symmetry with (0, 2)


def test_index_of_pair_roundtrip_and_symmetry():
    imap = MonomialIndexMap(3, 2)
    for i in range(3):
        for j in range(3):
            k = imap.position((i, j))
            assert imap.pairs[k] == (min(i, j), max(i, j))
            assert k == imap.position((j, i))


def test_position_rejects_out_of_range():
    imap = MonomialIndexMap(3, 2)
    with pytest.raises(IndexError):
        imap.position((0, 3))
    with pytest.raises(IndexError):
        imap.position((-1, 0))


def test_reduce_square_unit_and_ones():
    assert np.array_equal(reduce_square([1.0, 0.0, 0.0]), [1, 0, 0, 0, 0, 0])
    assert np.array_equal(reduce_square([1.0, 1.0, 1.0]), [1, 1, 1, 1, 1, 1])


def test_reduce_square_operating_point():
    v = np.array([3.0, 1.12, 0.009528])
    # Direct pairwise products as the oracle.
    expected = [v[i] * v[j] for (i, j) in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
    got = reduce_square(v)
    assert np.array_equal(got, expected)
    assert np.allclose(got, [9.0, 3.36, 0.028584, 1.2544, 0.01067136, 9.0782784e-5], rtol=1e-12)


def test_reduce_square_is_quadratic_map():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=3)
        c = rng.normal()
        lhs = reduce_square(c * v)
        rhs = c * c * reduce_square(v)
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=1e-300)


def test_reduce_square_broadcasts():
    batch = np.arange(12.0).reshape(4, 3)
    out = reduce_square(batch)
    assert out.shape == (4, 6)
    assert np.array_equal(out[2], reduce_square(batch[2]))


def test_reduce_square_rejects_non_finite():
    with pytest.raises(ValueError):
        reduce_square([1.0, np.nan, 0.0])
