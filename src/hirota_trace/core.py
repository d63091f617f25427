"""Domain types and the exact trace-formula construction of envelope solitons.

The field is built from exponential modes

    phi_k(x, t) = a0_k * exp(p_k * x - Omega_k * t),
    Omega_k     = -2i * rho * p_k**2 + 4 * sigma * p_k**3,

assembled into the matrices B, D, B_x and summed into the closed resolvent
form  psi = tr[B_x (I + (lambda/8) D conj(D))^{-1}].
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegeneratePointError,
    FieldOverflowError,
    SingularDenominatorError,
)

#: pair-sum magnitude below which B/D denominators are treated as singular
DENOM_TOL = 1e-9
#: condition-number estimate above which the dense solve is rejected
COND_LIMIT = 1e12
#: largest exponent magnitude that exp() can represent in double precision
EXP_LIMIT = 700.0


@dataclass(frozen=True)
class Medium:
    """Dispersion coefficients (rho, sigma) and coupling ratio lam.

    The nonlinear coefficients are derived, alpha = lam*sigma and
    delta = lam*rho, so the coefficient constraint alpha/sigma =
    delta/rho = lam can never be violated by rounding, and the pure
    second-order (sigma=0) and pure third-order (rho=0) limits are
    representable without dividing by zero.
    """

    rho: float
    sigma: float
    lam: float

    def __post_init__(self) -> None:
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if self.rho < 0 or self.sigma < 0:
            raise ValueError("rho and sigma must be nonnegative")
        if self.rho == 0 and self.sigma == 0:
            raise ValueError("rho and sigma cannot both vanish")
        for name in ("rho", "sigma", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def alpha(self) -> float:
        return self.lam * self.sigma

    @property
    def delta(self) -> float:
        return self.lam * self.rho


@dataclass(frozen=True)
class Soliton:
    """One envelope soliton: wavenumber p and initial amplitude a0.

    Re(p) > 0 is required; it guarantees decay of phi as x -> -inf and
    keeps every pair-sum denominator p_m + conj(p_n) away from zero.
    """

    p: complex
    a0: complex

    def __post_init__(self) -> None:
        if not (self.p.real > 0):
            raise ValueError(f"Re(p) must be positive, got p={self.p}")
        if self.a0 == 0:
            raise ValueError("a0 must be nonzero")
        if not (cmath.isfinite(self.p) and cmath.isfinite(self.a0)):
            raise ValueError("soliton parameters must be finite")


@dataclass(frozen=True)
class SolitonSet:
    """Ordered collection of solitons; N = 0 is allowed and yields psi = 0."""

    solitons: tuple[Soliton, ...]

    def __post_init__(self) -> None:
        p = self.p
        for m in range(len(p)):
            for n in range(len(p)):
                if abs(p[m] + p[n]) < DENOM_TOL:
                    raise SingularDenominatorError(
                        f"|p_{m} + p_{n}| < {DENOM_TOL}")
                if abs(p[m] + p[n].conjugate()) < DENOM_TOL:
                    raise SingularDenominatorError(
                        f"|p_{m} + conj(p_{n})| < {DENOM_TOL}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[complex, complex]]) -> "SolitonSet":
        return cls(tuple(Soliton(complex(p), complex(a0)) for p, a0 in pairs))

    def __len__(self) -> int:
        return len(self.solitons)

    @property
    def p(self) -> np.ndarray:
        return np.array([s.p for s in self.solitons], dtype=complex)

    @property
    def a0(self) -> np.ndarray:
        return np.array([s.a0 for s in self.solitons], dtype=complex)


@dataclass(frozen=True)
class SpaceTimePoint:
    x: float
    t: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.t)):
            raise ValueError("space-time coordinates must be finite")


@dataclass(frozen=True)
class DispersionPoly:
    """Coefficient list of the linear-operator symbol L_p(z) = sum_k c_k z^k."""

    coeffs: tuple[complex, ...]

    @property
    def degree(self) -> int:
        for k in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[k] != 0:
                return k
        return 0

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    @classmethod
    def hirota(cls, medium: Medium) -> "DispersionPoly":
        # L_p(z) = -i*rho*z**2 + sigma*z**3 reproduces Omega = (1/2)L_p(2p)
        return cls((0j, 0j, -1j * medium.rho, complex(medium.sigma)))


@dataclass(frozen=True)
class GridSpec:
    """Rectangular evaluation grid; single-point axes (nx=1 or nt=1) allowed."""

    x_min: float
    x_max: float
    nx: int
    t_min: float
    t_max: float
    nt: int

    def __post_init__(self) -> None:
        bounds = (self.x_min, self.x_max, self.t_min, self.t_max)
        if not all(map(math.isfinite, bounds)):
            raise ValueError("grid bounds must be finite")
        # twice each bound must be finite, so that every span and every tile
        # centre (a + b) / 2 formed from grid points is finite too
        if not all(math.isfinite(2 * v) for v in bounds):
            raise ValueError("grid bounds must be at most "
                             f"{sys.float_info.max / 2:.6g} in magnitude")
        if self.x_min > self.x_max or self.t_min > self.t_max:
            raise ValueError("grid bounds out of order")
        if self.nx < 1 or self.nt < 1:
            raise ValueError("grid must have at least one point per axis")

    def xs(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    def ts(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.nt)


def _log_coupling(lam: float) -> float:
    """log(lam / 8).  The quotient is exact while it is a normal double;
    below that (lam < 1.8e-307) it would lose digits or round to 0, so the
    log is taken as log lam - log 8."""
    c = lam / 8
    if c >= sys.float_info.min:
        return math.log(c)
    return math.log(lam) - math.log(8)


def dispersion(p: complex, medium: Medium) -> complex:
    """Mode frequency Omega = -2i*rho*p**2 + 4*sigma*p**3."""
    return -2j * medium.rho * p * p + 4 * medium.sigma * p * p * p


def general_dispersion(lp: DispersionPoly, p: complex) -> complex:
    """Frequency of a mode under an arbitrary linear symbol: (1/2) L_p(2p)."""
    return 0.5 * lp(2 * p)


def phi(s: Soliton, medium: Medium, pt: SpaceTimePoint) -> complex:
    """Exponential mode a0 * exp(p*x - Omega*t)."""
    arg = s.p * pt.x - dispersion(s.p, medium) * pt.t
    if abs(arg.real) > EXP_LIMIT:
        raise FieldOverflowError(
            f"mode exponent Re={arg.real:.3g} outside double range at {pt}")
    return s.a0 * cmath.exp(arg)


def _phis(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint) -> np.ndarray:
    return np.array([phi(s, medium, pt) for s in sset.solitons], dtype=complex)


def build_B(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint) -> np.ndarray:
    """Symmetric matrix B_mn = phi_m * phi_n / (p_m + p_n)."""
    p = sset.p
    ph = _phis(sset, medium, pt)
    return np.outer(ph, ph) / (p[:, None] + p[None, :])


def _pair_denominators(sset: SolitonSet) -> tuple[np.ndarray, float]:
    """The denominators p_m + conj(p_n) of D and their least modulus,
    which SolitonSet keeps at least DENOM_TOL."""
    p = sset.p
    denom = p[:, None] + p.conj()[None, :]
    return denom, float(np.abs(denom).min())


def _bounded_phis(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
                  dmin: float) -> list[complex]:
    """The modes phi_k at pt, raising FieldOverflowError where the entries
    of (lam/8) D conj(D) would leave double range (see build_D)."""
    ph = [phi(s, medium, pt) for s in sset.solitons]
    top = max(map(abs, ph))
    if top and (4 * math.log(top) - 2 * math.log(dmin) + math.log(len(sset))
                + _log_coupling(medium.lam)) > EXP_LIMIT:
        raise FieldOverflowError(
            f"D conj(D) entries outside double range at {pt}")
    return ph


def build_D(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint) -> np.ndarray:
    """Matrix D_mn = phi_m * conj(phi_n) / (p_m + conj(p_n)).

    Every use forms (lam/8) D conj(D), whose entries grow like the fourth
    power of the modes, so EXP_LIMIT bounds the log of their upper bound
    (lam/8) n max|phi|^4 / min|p_m + conj(p_n)|^2, not only each mode's
    exponent as in phi(); past it FieldOverflowError is raised.
    """
    if not len(sset):
        return np.zeros((0, 0), complex)
    denom, dmin = _pair_denominators(sset)
    ph = np.array(_bounded_phis(sset, medium, pt, dmin))
    return np.outer(ph, ph.conj()) / denom


def build_Bx(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint) -> np.ndarray:
    """x-derivative of B; its (m, n) entry is simply phi_m * phi_n."""
    ph = _phis(sset, medium, pt)
    return np.outer(ph, ph)


def eval_psi_closed_stack(sset: SolitonSet, medium: Medium,
                          pts: Sequence[SpaceTimePoint],
                          cond_limit: float = COND_LIMIT) -> list[complex]:
    """Closed-form field tr[B_x M^{-1}], M = I + (lam/8) D conj(D), at each
    of ``pts``, by one stacked condition estimate and one stacked dense
    factor-and-solve, never by the convergent series.

    Each point's value is the one eval_psi_closed gives there.  The first
    point of ``pts`` that fails raises what eval_psi_closed raises there:
    FieldOverflowError where a mode leaves double range, and
    DegeneratePointError where M is singular or its condition estimate
    exceeds ``cond_limit``.
    """
    if not (len(sset) and len(pts)):
        return [0j] * len(pts)
    try:
        denom, dmin = _pair_denominators(sset)
        ph = np.array([_bounded_phis(sset, medium, pt, dmin) for pt in pts])
        Bx = ph[:, :, None] * ph[:, None, :]
        D = ph[:, :, None] * ph.conj()[:, None, :] / denom
        M = np.eye(len(sset), dtype=complex) + (medium.lam / 8) * D @ D.conj()
        cond = np.linalg.cond(M)
        bad = ~np.isfinite(cond) | (cond > cond_limit)
        if bad.any():
            k = int(np.argmax(bad))
            raise DegeneratePointError(f"cond(M) ~ {cond[k]:.3g} exceeds "
                                       f"{cond_limit:.3g} at {pts[k]}")
        Y = np.linalg.solve(M, Bx)
    except (FieldOverflowError, np.linalg.LinAlgError) as exc:
        if len(pts) > 1:
            # a point before the one that stopped the stack may fail in
            # another way: take the points one at a time, in order
            for pt in pts:
                eval_psi_closed_stack(sset, medium, [pt], cond_limit)
        if isinstance(exc, FieldOverflowError):
            raise
        raise DegeneratePointError(f"singular M at {pts[0]}") from exc
    return np.trace(Y, axis1=1, axis2=2).tolist()


def eval_psi_closed(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
                    cond_limit: float = COND_LIMIT) -> complex:
    """Closed-form field tr[B_x M^{-1}], M = I + (lam/8) D conj(D).

    Computed by a dense factor-and-solve, never by the convergent series;
    valid wherever M is invertible, including beyond the series region.
    Raises DegeneratePointError when the condition estimate of M exceeds
    ``cond_limit``.  The one-point case of eval_psi_closed_stack.
    """
    return eval_psi_closed_stack(sset, medium, [pt], cond_limit)[0]


def series_partial_sums(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
                        max_order: int) -> np.ndarray:
    """Partial sums S_K = sum_{n<=K} (-1)^n (lam/8)^n tr[B_x (D conj(D))^n].

    Successive powers are accumulated by repeated multiplication.  Entry K of
    the returned array is S_K; convergence is the caller's concern (see
    spectral_radius_q).
    """
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    if len(sset) == 0:
        return np.zeros(max_order + 1, dtype=complex)
    D = build_D(sset, medium, pt)
    Bx = build_Bx(sset, medium, pt)
    DDb = D @ D.conj()
    c = medium.lam / 8
    sums = np.empty(max_order + 1, dtype=complex)
    term = Bx
    acc = 0j
    for n in range(max_order + 1):
        acc += (-c) ** n * np.trace(term)
        sums[n] = acc
        if n < max_order:
            term = term @ DDb
    return sums


def eval_psi_series(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
                    max_order: int) -> complex:
    """Truncated perturbation series through order ``max_order``."""
    return complex(series_partial_sums(sset, medium, pt, max_order)[-1])


def spectral_radius_q(sset: SolitonSet, medium: Medium,
                      pt: SpaceTimePoint) -> float:
    """Spectral radius of (lam/8) D conj(D): the series convergence ratio.

    D and conj(D) are Hermitian positive definite, so the eigenvalues of
    their product are real and positive; the largest modulus is returned.
    """
    if not len(sset):
        return 0.0
    D = build_D(sset, medium, pt)
    X = (medium.lam / 8) * D @ D.conj()
    return float(np.abs(np.linalg.eigvals(X)).max())


def one_soliton_envelope_shift(s: Soliton, medium: Medium) -> float:
    """Envelope offset eta = (1/2) ln(lam |a0|^4 / (8 (p + conj(p))^2)),
    taken as a sum of logs, so that it is finite for every admissible a0."""
    return 0.5 * (_log_coupling(medium.lam) + 4 * math.log(abs(s.a0))
                  - 2 * math.log(2 * s.p.real))


def one_soliton_closed(s: Soliton, medium: Medium, pt: SpaceTimePoint) -> complex:
    """Closed sech-envelope form of the single-soliton field.

    Derived by reducing the 1x1 trace formula:

        psi = (a0**2 / 2) * exp(-eta) * sech(xi + eta)
              * exp((p - conj(p)) x - (Om - conj(Om)) t)

    with xi = (p + conj(p)) x - (Om + conj(Om)) t and eta as above.  The
    carrier exponential does NOT carry the extra exp(-eta) factor that a
    naive reading of the sech formula might suggest; the committed form is
    the one that agrees with eval_psi_closed identically.  The amplitude
    (a0**2 / 2) * exp(-eta) is formed as (a0 / |a0|)**2 sqrt(8) / sqrt(lam)
    Re p, which stays in double range for every admissible a0 and lam.
    """
    return complex(_one_soliton_values(s, medium,
                                       np.asarray(pt.x), np.asarray(pt.t)))


def _one_soliton_values(s: Soliton, medium: Medium,
                        x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vectorized body of one_soliton_closed."""
    om = dispersion(s.p, medium)
    eta = one_soliton_envelope_shift(s, medium)
    xi = 2.0 * s.p.real * x - 2.0 * om.real * t
    carrier = np.exp((s.p - s.p.conjugate()) * x - (om - om.conjugate()) * t)
    with np.errstate(over="ignore"):
        env = 1.0 / np.cosh(xi + eta)
    amplitude = ((s.a0 / abs(s.a0)) ** 2
                 * (math.sqrt(8) / math.sqrt(medium.lam)) * s.p.real)
    return amplitude * env * carrier
