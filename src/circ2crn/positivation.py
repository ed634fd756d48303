"""Dual-rail positivation of affine ODEs and gamma-annihilation dampening.

A signed system dx/dt = Ahat x + bhat becomes a nonnegative one in twice as
many variables by splitting every quantity into plus/minus rails:

    dx+/dt = A+ x+ + A- x- + b+        dx-/dt = A+ x- + A- x+ + b-

with A = A+ - A- and b = b+ - b-.  The rail difference reproduces x exactly
but the rails themselves can diverge; subtracting gamma * x+ x- from both
rails (the Hungarization) bounds them without touching the difference.

A system may also be driven by exogenous rail pairs (circuit inputs whose
dynamics live in a separate network): those enter through nonnegative
coupling columns and are read, never written, by the fields built here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dae import AffineOde
from .errors import DimensionMismatch
from .numerics import as_matrix, as_vector


@dataclass(frozen=True)
class RailCoupling:
    """Nonnegative split of input-coupling columns, plus the input names."""

    cplus: np.ndarray
    cminus: np.ndarray
    input_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "cplus", as_matrix(self.cplus, "cplus"))
        object.__setattr__(self, "cminus", as_matrix(self.cminus, "cminus"))
        object.__setattr__(self, "input_names", tuple(self.input_names))
        if self.cplus.shape != self.cminus.shape:
            raise ValueError("coupling split shapes differ")
        if self.cplus.shape[1] != len(self.input_names):
            raise ValueError("coupling columns must match input names")
        if np.any(self.cplus < 0.0) or np.any(self.cminus < 0.0):
            raise ValueError("coupling split must be entrywise nonnegative")

    @property
    def q(self) -> int:
        return self.cplus.shape[1]


@dataclass(frozen=True)
class PositiveQuadruple:
    """Nonnegative split (A+, A-, b+, b-) of an affine system."""

    aplus: np.ndarray
    aminus: np.ndarray
    bplus: np.ndarray
    bminus: np.ndarray
    state_names: tuple[str, ...]
    coupling: RailCoupling | None = None

    def __post_init__(self):
        object.__setattr__(self, "aplus", as_matrix(self.aplus, "aplus"))
        object.__setattr__(self, "aminus", as_matrix(self.aminus, "aminus"))
        object.__setattr__(self, "bplus", as_vector(self.bplus, "bplus"))
        object.__setattr__(self, "bminus", as_vector(self.bminus, "bminus"))
        object.__setattr__(self, "state_names", tuple(self.state_names))
        n = self.aplus.shape[0]
        if self.aplus.shape != (n, n) or self.aminus.shape != (n, n):
            raise ValueError("aplus/aminus must be square and equal-sized")
        if self.bplus.shape != (n,) or self.bminus.shape != (n,):
            raise ValueError("bplus/bminus must match the state count")
        if len(self.state_names) != n:
            raise ValueError("state_names length must match the state count")
        for arr, nm in ((self.aplus, "aplus"), (self.aminus, "aminus"),
                        (self.bplus, "bplus"), (self.bminus, "bminus")):
            if np.any(arr < 0.0):
                raise ValueError(f"{nm} must be entrywise nonnegative")
        if self.coupling is not None and self.coupling.cplus.shape[0] != n:
            raise ValueError("coupling rows must match the state count")

    @property
    def n(self) -> int:
        return self.aplus.shape[0]


@dataclass(frozen=True)
class HungarizedSystem:
    """Positivation plus the gamma * x+ x- annihilation terms."""

    quad: PositiveQuadruple
    gamma: float

    def __post_init__(self):
        if self.gamma < 0.0:
            raise ValueError("gamma must be nonnegative")

    @property
    def n(self) -> int:
        return self.quad.n

    @property
    def rail_names(self) -> tuple[str, ...]:
        out = []
        for nm in self.quad.state_names:
            out += [f"{nm}_p", f"{nm}_m"]
        return tuple(out)

    @property
    def input_rail_names(self) -> tuple[str, ...]:
        if self.quad.coupling is None:
            return ()
        out = []
        for nm in self.quad.coupling.input_names:
            out += [f"{nm}_p", f"{nm}_m"]
        return tuple(out)


def positivate(ode: AffineOde, coupling=None) -> PositiveQuadruple:
    """Canonical sign split: A+ = max(A, 0), A- = max(-A, 0), same for b.

    `coupling` optionally provides input columns as (matrix, input_names);
    they get the same sign split and ride along as exogenous rails.
    """
    aplus = np.maximum(ode.Ahat, 0.0)
    aminus = np.maximum(-ode.Ahat, 0.0)
    bplus = np.maximum(ode.bhat, 0.0)
    bminus = np.maximum(-ode.bhat, 0.0)
    rc = None
    if coupling is not None:
        cmat, cnames = coupling
        cmat = as_matrix(cmat, "coupling")
        rc = RailCoupling(np.maximum(cmat, 0.0), np.maximum(-cmat, 0.0), tuple(cnames))
    return PositiveQuadruple(aplus, aminus, bplus, bminus, ode.state_names, rc)


def split_initial(x0) -> tuple[np.ndarray, np.ndarray]:
    """Minimal nonnegative split: x0 = plus - minus with plus, minus >= 0."""
    x = as_vector(x0, "x0")
    return np.maximum(x, 0.0), np.maximum(-x, 0.0)


def hungarize(quad: PositiveQuadruple, gamma: float) -> HungarizedSystem:
    """Attach the annihilation rate; gamma = 0 reproduces the bare split.

    Boundedness guarantees hold only for gamma > 0; gamma = 0 is kept as a
    diagnostic mode that exhibits the rail divergence.
    """
    return HungarizedSystem(quad, float(gamma))


def rail_field(hs: HungarizedSystem):
    """Evaluable derivative of the rail vector.

    The argument packs circuit rails first, then any exogenous input rails,
    as [x1+, x1-, ..., xn+, xn-, u1+, u1-, ...].  Exogenous rails get zero
    derivative here; their dynamics belong to the input network.
    """
    quad = hs.quad
    n = quad.n
    q = quad.coupling.q if quad.coupling is not None else 0
    size = 2 * (n + q)
    ap, am = quad.aplus, quad.aminus
    bp, bm = quad.bplus, quad.bminus
    gamma = hs.gamma
    cpl = quad.coupling

    def rhs(v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (size,):
            raise DimensionMismatch(f"expected rail vector of length {size}")
        xp = v[0 : 2 * n : 2]
        xm = v[1 : 2 * n : 2]
        dp = ap @ xp + am @ xm + bp
        dm = ap @ xm + am @ xp + bm
        if cpl is not None:
            up = v[2 * n :: 2]
            um = v[2 * n + 1 :: 2]
            dp += cpl.cplus @ up + cpl.cminus @ um
            dm += cpl.cplus @ um + cpl.cminus @ up
        if gamma != 0.0:
            ann = gamma * xp * xm
            dp -= ann
            dm -= ann
        out = np.zeros(size)
        out[0 : 2 * n : 2] = dp
        out[1 : 2 * n : 2] = dm
        return out

    return rhs
