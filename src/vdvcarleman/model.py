"""Van de Vusse reactor dynamics driven by a noisy inlet flow.

The state is x = (C_A, C_B, F_r): reactant concentration, product
concentration, and inlet/outlet flow rate of an isothermal CSTR.  The
flow rate follows an Ornstein-Uhlenbeck process, which turns the reactor
into a three-state Ito SDE with a single Brownian channel:

    dx1 = (-k1*x1 - k3*x1**2 + (x3/v)*(caf - x1)) dt
    dx2 = ( k1*x1 - k2*x2 - (x3/v)*x2)            dt
    dx3 = (-alpha*x3)                             dt + beta dB

Concentrations are deliberately not clamped at zero: the equations impose
no positivity constraint and the moment-equation comparisons rely on the
raw dynamics.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np


def _is_real(x) -> bool:
    """True for a finite real number that is not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


@dataclass(frozen=True)
class ReactorParams:
    """Rate constants, feed, volume, and OU flow-rate parameters.

    Units: k1, k2 in 1/s; k3 in l/(mol*s); caf in mol/l; v in l;
    alpha in 1/s; beta in flow-rate units per sqrt(s).  Every field must
    be a finite number and not a bool, and is held as a Python float; k1,
    k2, k3, v and alpha strictly positive, caf and beta nonnegative.
    """

    k1: float
    k2: float
    k3: float
    caf: float
    v: float
    alpha: float
    beta: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_real(value):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")
            object.__setattr__(self, f.name, float(value))
        for name in ("k1", "k2", "k3", "v", "alpha"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        for name in ("caf", "beta"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class PhysicalState:
    """Reactor state (C_A, C_B, F_r): finite components, held as Python floats; they may be negative."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        if not np.all(np.isfinite([self.x1, self.x2, self.x3])):
            raise ValueError("state components must be finite")
        for f in fields(self):
            object.__setattr__(self, f.name, float(getattr(self, f.name)))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3])


# First parameter set and its operating point.
PARAM_SET1 = ReactorParams(k1=0.01388, k2=0.02778, k3=0.002778, caf=0.0027, v=10.0, alpha=0.1, beta=0.044)
X0_SET1 = PhysicalState(3.0, 1.12, 0.009528)
P33_0_SET1 = 0.01

# Second parameter set and its operating point.
PARAM_SET2 = ReactorParams(k1=0.0141, k2=0.0141, k3=0.00187, caf=0.00141, v=10.0, alpha=0.01, beta=0.044)
X0_SET2 = PhysicalState(1.235, 1.0, 0.0152)
P33_0_SET2 = 0.09


def drift(x: np.ndarray, p: ReactorParams) -> np.ndarray:
    """Drift vector field; broadcasts over leading axes of ``x``."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    f = np.empty(x.shape)
    f[..., 0] = -p.k1 * x1 - p.k3 * x1 * x1 + (x3 / p.v) * (p.caf - x1)
    f[..., 1] = p.k1 * x1 - p.k2 * x2 - (x3 / p.v) * x2
    f[..., 2] = -p.alpha * x3
    return f


def float_drift(p: ReactorParams):
    """`drift` as a closure on three floats, in the same operation order.

    ``f(x)`` maps a sequence (x1, x2, x3) to the list of the three drift
    rates; each rate rounds as `drift` rounds it.  It serves the loops
    that step a single state on Python floats.
    """
    k1, k2, k3, caf, v = p.k1, p.k2, p.k3, p.caf, p.v
    neg_k1, neg_a = -k1, -p.alpha

    def f(x):
        x1, x2, x3 = x
        return [
            neg_k1 * x1 - k3 * x1 * x1 + (x3 / v) * (caf - x1),
            k1 * x1 - k2 * x2 - (x3 / v) * x2,
            neg_a * x3,
        ]

    return f


def diffusion(p: ReactorParams) -> np.ndarray:
    """State-independent diffusion column (0, 0, beta)."""
    return np.array([0.0, 0.0, p.beta])


def jacobian(x: np.ndarray, p: ReactorParams) -> np.ndarray:
    """Jacobian of the drift; broadcasts over leading axes of ``x``, (..., 3) -> (..., 3, 3)."""
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    jac = np.zeros(x.shape + (3,))
    jac[..., 0, 0] = -p.k1 - 2.0 * p.k3 * x1 - x3 / p.v
    jac[..., 0, 2] = (p.caf - x1) / p.v
    jac[..., 1, 0] = p.k1
    jac[..., 1, 1] = -p.k2 - x3 / p.v
    jac[..., 1, 2] = -x2 / p.v
    jac[..., 2, 2] = -p.alpha
    return jac
