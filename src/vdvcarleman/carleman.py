"""Order-2 Carleman embedding of quadratic-drift Ito SDEs.

A quadratic-drift SDE with constant diffusion and one Brownian channel,

    dx_i = (c_i + L_i . x + x^T Q_i x) dt + g_i dB,

is lifted onto the augmented state xi = (x, distinct pairwise products
of x).  Product slot k holds x_i x_j for (i, j) the k-th entry of
``np.triu_indices(n)``, the packed upper triangle of x x^T (for n = 3:
x1x1, x1x2, x1x3, x2x2, x2x3, x3x3); every product state and packed
covariance in the package uses this order.  The product dynamics follow
from the Ito product rule

    d(x_i x_j) = x_i dx_j + x_j dx_i + g_i g_j dt,

after which every drift monomial of total degree three or more is
deleted.  Diffusion terms are at most linear in x here and survive
truncation untouched, as does the Ito correction g_i*g_j.  The result is
a bilinear SDE on the augmented state:

    d xi = (a0 + a xi) dt + (g + d xi) dB.

`embed_order2` performs this construction for any quadratic SDE;
`build_vandevusse` writes down the same matrices for the van de Vusse
reactor in closed form.  The two must agree entrywise, which is the
central correctness check on both.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ReactorParams


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class QuadraticSde:
    """Coefficient form of a quadratic-drift SDE with constant scalar-channel diffusion.

    drift_i(x) = c[i] + lin[i] @ x + x @ quad[i] @ x, diffusion column g.
    The per-state coefficient matrices ``quad[i]`` are symmetrized on
    construction, so mixed-term coefficients may be supplied either split
    across (j, k) and (k, j) or all on one side.
    """

    c: np.ndarray
    lin: np.ndarray
    quad: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.ndim != 1 or c.size < 1:
            raise ValueError(f"c must be a nonempty vector, got shape {c.shape}")
        n = c.size
        lin = np.asarray(self.lin, dtype=float)
        quad = np.asarray(self.quad, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if lin.shape != (n, n) or quad.shape != (n, n, n) or g.shape != (n,):
            raise ValueError("inconsistent coefficient shapes")
        quad = 0.5 * (quad + quad.transpose(0, 2, 1))
        for name, arr in (("c", c), ("lin", lin), ("quad", quad), ("g", g)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite coefficients in {name}")
            object.__setattr__(self, name, _readonly(arr))

    @property
    def n(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class BilinearSystem:
    """Augmented bilinear SDE  d xi = (a0 + a xi) dt + (g + d xi) dB.

    B is one unit Brownian motion: the ensemble draws standard normals
    and the augmented covariance equations assume unit intensity.
    ``n`` is the physical dimension; the augmented dimension is
    n + n(n+1)/2.  `blocks` slices the matrices into the physical (first
    n) and product (remaining) coordinates.
    """

    n: int
    a0: np.ndarray
    a: np.ndarray
    d: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        m = self.dim
        a0 = np.asarray(self.a0, dtype=float)
        a = np.asarray(self.a, dtype=float)
        d = np.asarray(self.d, dtype=float)
        g = np.asarray(self.g, dtype=float)
        if a0.shape != (m,) or a.shape != (m, m) or d.shape != (m, m) or g.shape != (m,):
            raise ValueError(f"matrix shapes inconsistent with augmented dimension {m}")
        for name, arr in (("a0", a0), ("a", a), ("d", d), ("g", g)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            object.__setattr__(self, name, _readonly(arr))

    @property
    def dim(self) -> int:
        return self.n + self.n * (self.n + 1) // 2

    def blocks(self) -> dict[str, np.ndarray]:
        """Read-only block views: suffix 1 = physical coordinates, 2 = product coordinates.

        Keys in order: a01, a02, a11, a12, a21, a22, d11, d12, d21, d22,
        g1, g2.
        """
        n = self.n
        views = {"a01": self.a0[:n], "a02": self.a0[n:]}
        for name, m in (("a", self.a), ("d", self.d)):
            views.update({f"{name}11": m[:n, :n], f"{name}12": m[:n, n:],
                          f"{name}21": m[n:, :n], f"{name}22": m[n:, n:]})
        views.update({"g1": self.g[:n], "g2": self.g[n:]})
        return views


def point_lift(x: np.ndarray) -> np.ndarray:
    """Augmented state (x, distinct pairwise products of x) of a physical point."""
    i, j = np.triu_indices(x.size)
    return np.concatenate([x, x[i] * x[j]])


def embed_order2(sde: QuadraticSde) -> BilinearSystem:
    """Order-2 Carleman embedding of a quadratic SDE.

    Expands d(x_i x_j) by the Ito product rule, classifies every drift
    monomial by total degree, deletes degree >= 3, and keeps all diffusion
    terms plus the Ito correction g_i*g_j.
    """
    n = sde.n
    iu, ju = np.triu_indices(n)
    slot = np.empty((n, n), dtype=int)  # slot[i, j]: column of x_i x_j
    slot[iu, ju] = slot[ju, iu] = n + np.arange(iu.size)
    dim = n + iu.size
    a0 = np.zeros(dim)
    a = np.zeros((dim, dim))
    d = np.zeros((dim, dim))
    g = np.zeros(dim)

    # Physical block: the drift is exactly quadratic, nothing is dropped.
    a0[:n] = sde.c
    a[:n, :n] = sde.lin
    a[:n, n:] = np.where(iu == ju, sde.quad[:, iu, ju], sde.quad[:, iu, ju] + sde.quad[:, ju, iu])
    g[:n] = sde.g

    # Product block: x_i dx_j + x_j dx_i + g_i g_j dt, truncated at degree 2.
    rows = np.arange(n, dim)
    for src, other in ((ju, iu), (iu, ju)):
        # x_other * drift_src contributes c deg-1 and L deg-2 terms;
        # the Q deg-3 terms are the truncation residual.
        a[rows, other] += sde.c[src]
        a[rows[:, None], slot[other]] += sde.lin[src]
        d[rows, other] += sde.g[src]
    a0[rows] += sde.g[iu] * sde.g[ju]

    return BilinearSystem(n=n, a0=a0, a=a, d=d, g=g)


def vandevusse_coefficients(p: ReactorParams) -> QuadraticSde:
    """Quadratic coefficient form of the van de Vusse reactor drift."""
    c = np.zeros(3)
    lin = np.array(
        [
            [-p.k1, 0.0, p.caf / p.v],
            [p.k1, -p.k2, 0.0],
            [0.0, 0.0, -p.alpha],
        ]
    )
    quad = np.zeros((3, 3, 3))
    quad[0, 0, 0] = -p.k3
    quad[0, 0, 2] = quad[0, 2, 0] = -0.5 / p.v
    quad[1, 1, 2] = quad[1, 2, 1] = -0.5 / p.v
    g = np.array([0.0, 0.0, p.beta])
    return QuadraticSde(c=c, lin=lin, quad=quad, g=g)


def build_vandevusse(p: ReactorParams) -> BilinearSystem:
    """Closed-form order-2 embedding of the van de Vusse reactor.

    The product block follows the slot order of the module docstring.
    """
    k1, k2, k3 = p.k1, p.k2, p.k3
    caf, v, alpha, beta = p.caf, p.v, p.alpha, p.beta

    a11 = np.array(
        [
            [-k1, 0.0, caf / v],
            [k1, -k2, 0.0],
            [0.0, 0.0, -alpha],
        ]
    )
    a12 = np.zeros((3, 6))
    a12[0, 0] = -k3
    a12[0, 2] = -1.0 / v
    a12[1, 4] = -1.0 / v
    a22 = np.array(
        [
            [-2.0 * k1, 0.0, 2.0 * (caf / v), 0.0, 0.0, 0.0],
            [k1, -(k1 + k2), 0.0, 0.0, caf / v, 0.0],
            [0.0, 0.0, -(alpha + k1), 0.0, 0.0, caf / v],
            [0.0, 2.0 * k1, 0.0, -2.0 * k2, 0.0, 0.0],
            [0.0, 0.0, k1, 0.0, -(alpha + k2), 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, -2.0 * alpha],
        ]
    )
    d21 = np.zeros((6, 3))
    d21[2, 0] = beta
    d21[4, 1] = beta
    d21[5, 2] = 2.0 * beta

    a0 = np.zeros(9)
    a0[8] = beta * beta
    a = np.block([[a11, a12], [np.zeros((6, 3)), a22]])
    d = np.zeros((9, 9))
    d[3:, :3] = d21
    g = np.zeros(9)
    g[2] = beta
    return BilinearSystem(n=3, a0=a0, a=a, d=d, g=g)


def write_blocks(sys: BilinearSystem, out_dir: str) -> list[str]:
    """Dump the nonzero coefficient blocks as plain-text matrices.

    One file per nonzero block, row-major, entries formatted '%.12e' and
    space-separated; vectors become a single row.  Returns the written
    paths; a failed call removes the files it wrote.
    """
    from .experiments import _write_files  # experiments imports this module

    def text(block):
        return "".join(" ".join(f"{x:.12e}" for x in row) + "\n" for row in np.atleast_2d(block)).encode()

    return _write_files(out_dir, [(f"{name}.txt", lambda fh, data=text(block): fh.write(data))
                                  for name, block in sys.blocks().items() if np.any(block != 0.0)])
