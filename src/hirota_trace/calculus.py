"""Analytic space/time derivatives of the trace solution, plus an
independent finite-difference oracle.

The analytic path is exact: every term of the compiled determinant ratio is
a pure exponential in (x, t), so differentiation multiplies each term by its
mode-sum growth rate.  Finite differences exist solely to cross-check it;
residual verification at 1e-8 is out of reach for FD truncation error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Medium, SolitonSet, SpaceTimePoint, eval_psi_closed_stack
from .trace_engine import compiled

DEFAULT_FD_STEP = 1e-3


@dataclass(frozen=True)
class DerivativeBundle:
    """psi and the derivatives entering the equation residuals."""

    psi: complex
    psi_x: complex
    psi_xx: complex
    psi_xxx: complex
    psi_t: complex

    def as_dict(self) -> dict[str, complex]:
        return {"psi": self.psi, "psi_x": self.psi_x, "psi_xx": self.psi_xx,
                "psi_xxx": self.psi_xxx, "psi_t": self.psi_t}


@dataclass(frozen=True)
class Stencil:
    """Finite-difference weights for one derivative on integer offsets.

    Weights are solved from the Vandermonde moment conditions and verified
    against monomials at construction.
    """

    derivative: int
    offsets: tuple[int, ...]
    weights: tuple[float, ...]
    order: int

    @classmethod
    def central(cls, derivative: int, npoints: int) -> "Stencil":
        if npoints <= derivative:
            raise ValueError("stencil too short for requested derivative")
        if npoints % 2 == 0:
            raise ValueError("central stencil needs an odd point count")
        half = npoints // 2
        offsets = tuple(range(-half, half + 1))
        rhs = np.zeros(npoints)
        rhs[derivative] = math.factorial(derivative)
        vander = np.array([[float(o) ** k for o in offsets]
                           for k in range(npoints)])
        weights = np.linalg.solve(vander, rhs)
        # symmetry cancels the next odd moment, rounding the order up to even
        order = npoints - derivative
        order += order % 2
        st = cls(derivative, offsets, tuple(weights), order)
        st._verify()
        return st

    def _verify(self) -> None:
        for k in range(len(self.offsets)):
            moment = sum(w * float(o) ** k
                         for w, o in zip(self.weights, self.offsets))
            want = math.factorial(self.derivative) if k == self.derivative else 0.0
            if abs(moment - want) > 1e-8 * max(1.0, abs(want)):
                raise AssertionError(
                    f"stencil fails moment condition at degree {k}")

    def apply(self, samples, h: float) -> complex:
        acc = 0j
        for w, v in zip(self.weights, samples):
            acc += w * v
        return acc / h ** self.derivative


# 4th-order central stencils used by the oracle
STENCIL_D1 = Stencil.central(1, 5)
STENCIL_D2 = Stencil.central(2, 5)
STENCIL_D3 = Stencil.central(3, 7)


def analytic_derivatives(sset: SolitonSet, medium: Medium,
                         pt: SpaceTimePoint) -> DerivativeBundle:
    """Exact psi, psi_x, psi_xx, psi_xxx, psi_t at one point."""
    out = compiled(sset, medium).derivatives(np.asarray(pt.x),
                                             np.asarray(pt.t))
    return DerivativeBundle(psi=complex(out["psi"]),
                            psi_x=complex(out["psi_x"]),
                            psi_xx=complex(out["psi_xx"]),
                            psi_xxx=complex(out["psi_xxx"]),
                            psi_t=complex(out["psi_t"]))


def analytic_derivatives_grid(sset: SolitonSet, medium: Medium,
                              x: np.ndarray, t: np.ndarray,
                              check_degenerate: bool = True) -> dict:
    """Vectorized bundle over broadcastable arrays; see CompiledSolution."""
    return compiled(sset, medium).derivatives(
        x, t, check_degenerate=check_degenerate)


def fd_derivatives(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
                   h_x: float = DEFAULT_FD_STEP,
                   h_t: float = DEFAULT_FD_STEP) -> DerivativeBundle:
    """Finite-difference oracle built on closed-form samples.

    5-point 4th-order stencils for psi_x, psi_xx and psi_t, 7-point for
    psi_xxx.  The 17 stencil points (the 5- and 7-point x stencils, then the
    5-point t stencil) are evaluated by one eval_psi_closed_stack call, so
    each sample equals eval_psi_closed at its point, and the first stencil
    point in that order whose dense solve fails raises its error
    (DegeneratePointError, FieldOverflowError).
    """
    if h_x <= 0 or h_t <= 0:
        raise ValueError("steps must be positive")
    pts = ([SpaceTimePoint(pt.x + o * h_x, pt.t)
            for o in STENCIL_D1.offsets + STENCIL_D3.offsets]
           + [SpaceTimePoint(pt.x, pt.t + o * h_t) for o in STENCIL_D1.offsets])
    samples = eval_psi_closed_stack(sset, medium, pts)
    n5, n7 = len(STENCIL_D1.offsets), len(STENCIL_D3.offsets)
    x5, x7, t5 = samples[:n5], samples[n5:n5 + n7], samples[n5 + n7:]
    return DerivativeBundle(
        psi=x5[len(x5) // 2],
        psi_x=STENCIL_D1.apply(x5, h_x),
        psi_xx=STENCIL_D2.apply(x5, h_x),
        psi_xxx=STENCIL_D3.apply(x7, h_x),
        psi_t=STENCIL_D1.apply(t5, h_t),
    )
