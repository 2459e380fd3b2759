"""The order-2 product basis: slot n + k of the augmented state is x_i x_j
for the k-th pair (i <= j) of np.triu_indices(n), each unordered pair once."""

import itertools

import numpy as np
import pytest

from vdvcarleman.carleman import BilinearSystem, QuadraticSde, build_vandevusse, embed_order2, point_lift
from vdvcarleman.model import PARAM_SET1


def brute_force_square_count(n):
    # Independent oracle: enumerate exponent vectors (a1..an) with sum 2.
    return sum(sum(e) == 2 for e in itertools.product(range(3), repeat=n))


def zero_sde(n):
    return QuadraticSde(c=np.zeros(n), lin=np.zeros((n, n)), quad=np.zeros((n, n, n)), g=np.zeros(n))


def test_reduced_dim_examples():
    assert embed_order2(zero_sde(3)).dim == 3 + 6
    assert embed_order2(zero_sde(1)).dim == 1 + 1
    assert brute_force_square_count(2) == 3
    assert point_lift(np.ones(2)).size == 2 + 3


def test_reduced_dim_matches_enumeration():
    for n in range(1, 6):
        assert embed_order2(zero_sde(n)).dim == n + brute_force_square_count(n) == point_lift(np.ones(n)).size


def test_reduced_dim_rejects_degenerate_arguments():
    with pytest.raises(ValueError, match=r"^c must be a nonempty vector"):
        zero_sde(0)
    with pytest.raises(ValueError, match=r"^n must be a positive integer"):
        BilinearSystem(n=0, a0=np.zeros(0), a=np.zeros((0, 0)), d=np.zeros((0, 0)), g=np.zeros(0))


def test_augmented_dimension_is_nine_for_three_states():
    assert build_vandevusse(PARAM_SET1).dim == 9


def test_pair_ordering_matches_canonical_listing():
    pairs = list(zip(*np.triu_indices(3)))
    assert pairs == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
    assert pairs == list(itertools.combinations_with_replacement(range(3), 2))


def test_every_multiset_appears_exactly_once():
    # Distinct primes give distinct products, so each slot names one pair.
    for n in range(1, 6):
        primes = np.array([2.0, 3.0, 5.0, 7.0, 11.0][:n])
        expected = [primes[i] * primes[j] for i, j in itertools.combinations_with_replacement(range(n), 2)]
        assert point_lift(primes)[n:].tolist() == expected
        assert len(set(expected)) == len(expected) == brute_force_square_count(n)


def test_reduce_square_unit_and_ones():
    assert point_lift(np.array([1.0, 0.0, 0.0]))[3:].tolist() == [1, 0, 0, 0, 0, 0]
    assert point_lift(np.ones(3))[3:].tolist() == [1, 1, 1, 1, 1, 1]


def test_reduce_square_operating_point():
    v = np.array([3.0, 1.12, 0.009528])
    # Direct pairwise products as the oracle.
    expected = [v[i] * v[j] for (i, j) in ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))]
    got = point_lift(v)
    assert np.array_equal(got, np.concatenate([v, expected]))
    assert np.allclose(got[3:], [9.0, 3.36, 0.028584, 1.2544, 0.01067136, 9.0782784e-5], rtol=1e-12)


def test_reduce_square_is_quadratic_map():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(size=3)
        c = rng.normal()
        lhs = point_lift(c * v)[3:]
        rhs = c * c * point_lift(v)[3:]
        assert np.allclose(lhs, rhs, rtol=1e-14, atol=1e-300)
