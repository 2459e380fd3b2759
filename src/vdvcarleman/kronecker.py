"""Reduced symmetric Kronecker algebra.

The r-th Kronecker power of an n-vector has n**r entries but only
C(n+r-1, r) distinct monomials, because the component products commute.
This module fixes one canonical ordering of the redundancy-free monomial
basis and provides index maps between physical coordinates and basis
slots.  Every consumer of product states in this package relies on this
single ordering: for n=3, r=2 the slots are

    x1*x1, x1*x2, x1*x3, x2*x2, x2*x3, x3*x3

i.e. nondecreasing index tuples in lexicographic order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np


def reduced_dim(n: int, r: int) -> int:
    """Number of distinct degree-r monomials in n variables: C(n+r-1, r)."""
    if n < 1 or r < 1:
        raise ValueError(f"monomial basis undefined for n={n}, r={r} (need n >= 1, r >= 1)")
    return math.comb(n + r - 1, r)


@lru_cache(maxsize=None)
def _basis(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations_with_replacement(range(n), r))


@lru_cache(maxsize=None)
def _square_index_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    pairs = _basis(n, 2)
    i_idx = np.array([p[0] for p in pairs])
    j_idx = np.array([p[1] for p in pairs])
    i_idx.setflags(write=False)
    j_idx.setflags(write=False)
    return i_idx, j_idx


@dataclass(frozen=True)
class MonomialIndexMap:
    """Ordered basis of the distinct degree-``order`` monomials over ``n`` variables.

    ``pairs`` holds 0-based nondecreasing index tuples in lexicographic
    order.  Positions are 0-based throughout.
    """

    n: int
    order: int
    pairs: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        dim = reduced_dim(self.n, self.order)  # validates n, order
        pairs = _basis(self.n, self.order)
        assert len(pairs) == dim
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_pos", {p: k for k, p in enumerate(pairs)})

    def __len__(self) -> int:
        return len(self.pairs)

    def position(self, indices: tuple[int, ...]) -> int:
        """0-based slot of the monomial with the given 0-based variable indices."""
        key = tuple(sorted(indices))
        try:
            return self._pos[key]
        except KeyError:
            raise IndexError(f"indices {indices} out of range for n={self.n}, order={self.order}") from None


def reduce_square(v: np.ndarray) -> np.ndarray:
    """Distinct pairwise products of a vector, in canonical slot order.

    Component k equals ``v[i] * v[j]`` for the k-th basis pair (i, j).
    Broadcasts over leading axes; the last axis is the state dimension.
    """
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError("reduce_square requires finite input")
    i_idx, j_idx = _square_index_arrays(v.shape[-1])
    return v[..., i_idx] * v[..., j_idx]
