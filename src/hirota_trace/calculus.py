"""Analytic space/time derivatives of the trace solution, plus an
independent finite-difference oracle.

The analytic path is exact: every term of the compiled determinant ratio is
a pure exponential in (x, t), so differentiation multiplies each term by its
mode-sum growth rate.  Finite differences (textbook 4th-order stencils)
exist solely to cross-check it; residual verification at 1e-8 is out of
reach for FD truncation error.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

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
        return asdict(self)


@dataclass(frozen=True)
class Stencil:
    """Finite-difference weights for one derivative on integer offsets:
    ``apply(samples, h)`` is sum_k weights[k] * samples[k] / h**derivative,
    whose truncation error is O(h**order)."""

    derivative: int
    offsets: tuple[int, ...]
    weights: tuple[float, ...]
    order: int

    def apply(self, samples, h: float) -> complex:
        acc = sum((w * v for w, v in zip(self.weights, samples)), 0j)
        return acc / h ** self.derivative


# the classical 4th-order central stencils (Fornberg 1988, Math. Comp. 51,
# 699), each weight its rational rounded once to the nearest double
STENCIL_D1 = Stencil(1, (-2, -1, 0, 1, 2),
                     tuple(w / 12 for w in (1, -8, 0, 8, -1)), 4)
STENCIL_D2 = Stencil(2, (-2, -1, 0, 1, 2),
                     tuple(w / 12 for w in (-1, 16, -30, 16, -1)), 4)
STENCIL_D3 = Stencil(3, (-3, -2, -1, 0, 1, 2, 3),
                     tuple(w / 8 for w in (1, -8, 13, 0, -13, 8, -1)), 4)


def analytic_derivatives(sset: SolitonSet, medium: Medium,
                         pt: SpaceTimePoint) -> DerivativeBundle:
    """Exact psi, psi_x, psi_xx, psi_xxx, psi_t at one point."""
    out = compiled(sset, medium).derivatives(np.asarray(pt.x),
                                             np.asarray(pt.t))
    return DerivativeBundle(**{f.name: complex(out[f.name])
                               for f in fields(DerivativeBundle)})


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
