"""Dual-rail positivation of affine ODEs and gamma-annihilation dampening.

A signed system dx/dt = Ahat x + bhat becomes a nonnegative one in twice as
many variables by splitting every quantity into plus/minus rails:

    dx+/dt = A+ x+ + A- x- + b+        dx-/dt = A+ x- + A- x+ + b-

with A = A+ - A- and b = b+ - b-.  The rail difference reproduces x exactly
but the rails themselves can diverge; subtracting gamma * x+ x- from both
rails (the Hungarization) bounds them without touching the difference.

A system may also be driven by exogenous rail pairs (circuit inputs whose
dynamics live in a separate network): those are extra columns of A+ and A-
after the state columns, read but never written by the fields built here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dae import AffineOde
from .errors import ValidationError
from .numerics import as_matrix, as_vector


def rails(names) -> tuple[str, ...]:
    """Rail species of each name, in order: <name>_p, <name>_m, ..."""
    return tuple(f"{nm}_{sign}" for nm in names for sign in ("p", "m"))


@dataclass(frozen=True)
class RailSystem:
    """Nonnegative split (A+, A-, b+, b-) with annihilation rate gamma.

    A+ and A- are n x (n + q): the n state columns, then one column per
    exogenous input.  gamma = 0 is the bare split.
    """

    aplus: np.ndarray
    aminus: np.ndarray
    bplus: np.ndarray
    bminus: np.ndarray
    state_names: tuple[str, ...]
    input_names: tuple[str, ...] = ()
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "aplus", as_matrix(self.aplus, "aplus"))
        object.__setattr__(self, "aminus", as_matrix(self.aminus, "aminus"))
        object.__setattr__(self, "bplus", as_vector(self.bplus, "bplus"))
        object.__setattr__(self, "bminus", as_vector(self.bminus, "bminus"))
        object.__setattr__(self, "state_names", tuple(self.state_names))
        object.__setattr__(self, "input_names", tuple(self.input_names))
        n = len(self.state_names)
        cols = n + len(self.input_names)
        if self.aplus.shape != (n, cols) or self.aminus.shape != (n, cols):
            raise ValueError("aplus/aminus must be n x (n + q) for n states, q inputs")
        if self.bplus.shape != (n,) or self.bminus.shape != (n,):
            raise ValueError("bplus/bminus must match the state count")
        for arr, nm in ((self.aplus, "aplus"), (self.aminus, "aminus"),
                        (self.bplus, "bplus"), (self.bminus, "bminus")):
            if (arr < 0.0).any():
                raise ValueError(f"{nm} must be entrywise nonnegative")
        if self.gamma < 0.0:
            raise ValidationError("gamma must be nonnegative")

    @property
    def n(self) -> int:
        return len(self.state_names)

    @property
    def q(self) -> int:
        return len(self.input_names)

    @property
    def rail_names(self) -> tuple[str, ...]:
        """State rails, then input rails: the layout of `rail_field`."""
        return rails(self.state_names + self.input_names)


def positivate(ode: AffineOde, coupling=None) -> RailSystem:
    """Canonical sign split: A+ = max(A, 0), A- = max(-A, 0), same for b.

    `coupling` optionally provides input columns as (matrix, input_names);
    they are appended to A and get the same sign split.
    """
    a, input_names = ode.Ahat, ()
    if coupling is not None:
        cmat, input_names = coupling
        a = np.hstack([a, as_matrix(cmat, "coupling")])
    return RailSystem(
        np.maximum(a, 0.0), np.maximum(-a, 0.0),
        np.maximum(ode.bhat, 0.0), np.maximum(-ode.bhat, 0.0),
        ode.state_names, input_names,
    )


def split_initial(x0) -> tuple[np.ndarray, np.ndarray]:
    """Minimal nonnegative split: x0 = plus - minus with plus, minus >= 0."""
    x = as_vector(x0, "x0")
    return np.maximum(x, 0.0), np.maximum(-x, 0.0)


def hungarize(rs: RailSystem, gamma: float) -> RailSystem:
    """Attach the annihilation rate; gamma = 0 reproduces the bare split.

    Boundedness guarantees hold only for gamma > 0; gamma = 0 is kept as a
    diagnostic mode that exhibits the rail divergence.
    """
    return replace(rs, gamma=float(gamma))


def rail_field(rs: RailSystem):
    """Evaluable derivative of the rail vector.

    The argument packs state rails first, then any exogenous input rails,
    as [x1+, x1-, ..., xn+, xn-, u1+, u1-, ...].  Exogenous rails get zero
    derivative here; their dynamics belong to the input network.
    """
    n = rs.n
    size = 2 * (n + rs.q)
    ap, am = rs.aplus, rs.aminus
    bp, bm = rs.bplus, rs.bminus
    gamma = rs.gamma

    def rhs(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (size,):
            raise ValidationError(f"expected rail vector of length {size}")
        xp, xm = v[0::2], v[1::2]
        dp = ap @ xp + am @ xm + bp
        dm = ap @ xm + am @ xp + bm
        if gamma != 0.0:
            ann = gamma * xp[:n] * xm[:n]
            dp -= ann
            dm -= ann
        out = np.zeros(size)
        out[0 : 2 * n : 2] = dp
        out[1 : 2 * n : 2] = dm
        return out

    return rhs
