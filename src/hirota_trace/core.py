"""Domain types and the exact trace-formula construction of envelope solitons.

The field is built from exponential modes

    phi_k(x, t) = a0_k * exp(p_k * x - Omega_k * t),
    Omega_k     = -2i * rho * p_k**2 + 4 * sigma * p_k**3,

assembled into the matrices D, B_x and summed into the closed resolvent
form  psi = tr[B_x (I + (lambda/8) D conj(D))^{-1}].  One builder,
_point_matrices, forms the modes, B_x and D at a stack of points for the
closed form, the series chain and the spectral radius alike; it raises
FieldOverflowError where a mode exponent leaves double range and where the
entries of B_x, D or (lambda/8) D conj(D) would.
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

#: least admissible pair-sum modulus |p_m + conj(p_n)|, the D denominators
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

    Re(p) > 0 is required; it guarantees decay of phi as x -> -inf.  In a
    SolitonSet, 2 Re p >= DENOM_TOL keeps the pair sums away from zero.
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
        # |p_m + conj(p_n)| >= Re p_m + Re p_n, with equality where m = n
        for k, s in enumerate(self.solitons):
            if 2 * s.p.real < DENOM_TOL:
                raise SingularDenominatorError(
                    f"2 Re p_{k} = {2 * s.p.real:.3g} < {DENOM_TOL}")

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


def phi(s: Soliton, medium: Medium, pt: SpaceTimePoint) -> complex:
    """Exponential mode a0 * exp(p*x - Omega*t)."""
    arg = s.p * pt.x - dispersion(s.p, medium) * pt.t
    if abs(arg.real) > EXP_LIMIT:
        raise FieldOverflowError(
            f"mode exponent Re={arg.real:.3g} outside double range at {pt}")
    return s.a0 * cmath.exp(arg)


def _point_matrices(sset: SolitonSet, medium: Medium,
                    pts: Sequence[SpaceTimePoint]
                    ) -> tuple[np.ndarray, np.ndarray]:
    """B_x and D of a nonempty set at each of pts, stacked (points, N, N):
    the one place the modes phi_k are formed at points.

    B_x,mn = phi_m phi_n is the x-derivative of B_mn = phi_m phi_n /
    (p_m + p_n), and D_mn = phi_m conj(phi_n) / (p_m + conj(p_n)).  At the
    first point where phi's mode exponent check or EXP_LIMIT on the log of
    an entry bound fails, raises FieldOverflowError.  With dmin = 2 min Re p,
    the bounds are (lam/8) N max|phi|^4 / dmin^2 on (lam/8) D conj(D), which
    every reader forms, max|phi|^2 on B_x and max|phi|^2 / dmin on D.
    """
    p = sset.p
    denom = p[:, None] + p.conj()
    log_dmin = math.log(2 * p.real.min())
    log_n, log_c = math.log(len(sset)), _log_coupling(medium.lam)
    rows = []
    for pt in pts:
        # phi's scalar products: NumPy's array product over the points would
        # round by the length of the stack
        modes = [phi(s, medium, pt) for s in sset.solitons]
        top = max(map(abs, modes))
        if top:
            log_bx = 2 * math.log(top)
            log_d = log_bx - log_dmin
            for name, log_bound in (("D conj(D)", 2 * log_d + log_n + log_c),
                                    ("B_x", log_bx), ("D", log_d)):
                if log_bound > EXP_LIMIT:
                    raise FieldOverflowError(
                        f"{name} entries outside double range at {pt}")
        rows.append(modes)
    ph = np.array(rows)
    return (ph[:, :, None] * ph[:, None, :],
            ph[:, :, None] * ph.conj()[:, None, :] / denom)


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
        Bx, D = _point_matrices(sset, medium, pts)
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


def _series_jets(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
                 max_order: int, orders: list[tuple[int, int]]) -> np.ndarray:
    """Terms psi_n = (-lam/8)^n tr[B_x (D conj(D))^n], n <= max_order, and
    their derivatives at pt: entry [n, c] is d^i/dx^i d^l/dt^l psi_n for
    orders[c] = (i, l); orders starts with (0, 0) and holds every lower
    order of its members.  Each entry of B_x, D and conj(D) is one
    exponential, so its derivatives are powers of its rates times itself.
    A matrix is carried as the block matrix whose block (a, b) is C(i, j)
    C(l, m) times its order (i - j, l - m) derivative, for orders[a] =
    (i, l) and orders[b] = (j, m): products of these follow the Leibniz
    rule, with the derivatives in the first block column.  -lam/8 rides on
    D, so no power of it is formed.  Raises FieldOverflowError at the first
    order whose term or partial sum is not a finite double.
    """
    n, k = len(sset), len(orders)
    if not n:
        return np.zeros((max_order + 1, k), dtype=complex)

    def jet(a: np.ndarray, x_rate: np.ndarray,
            t_rate: np.ndarray) -> np.ndarray:
        d = {(i, l): a * x_rate ** i * t_rate ** l if i or l else a
             for i, l in orders}
        return np.block([[math.comb(i, j) * math.comb(l, m) * d[i - j, l - m]
                          if j <= i and m <= l else 0 * a
                          for j, m in orders] for i, l in orders])

    terms = np.empty((max_order + 1, k), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        Bx, D = (m[0] for m in _point_matrices(sset, medium, [pt]))
        if k > 1:
            # the jet at order (0, 0) alone is the matrix itself; conj(D)
            # and its rates are the conjugates of D's, so is its jet
            p = sset.p
            om = np.array([dispersion(s.p, medium) for s in sset.solitons])
            D = jet(D, p[:, None] + p.conj(), -(om[:, None] + om.conj()))
            Bx = jet(Bx, p[:, None] + p, -(om[:, None] + om))
        step = (-(medium.lam / 8) * D) @ D.conj()
        term = Bx
        for order in range(max_order + 1):
            terms[order] = np.trace(term[:, :n].reshape(k, n, n),
                                    axis1=1, axis2=2)
            if order < max_order:
                term = term @ step
        sums = np.cumsum(terms, axis=0)
    # a partial sum that is not finite stays so in every later one
    if not np.isfinite(sums[-1]).all():
        first = int(np.argmin(np.isfinite(sums).all(axis=1)))
        raise FieldOverflowError(f"order-{first} series term or partial sum "
                                 f"outside double range at {pt}")
    return terms


def series_partial_sums(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
                        max_order: int) -> np.ndarray:
    """Partial sums S_K = sum_{n<=K} (-1)^n (lam/8)^n tr[B_x (D conj(D))^n]
    of _series_jets's terms, S_K at entry K; convergence is the caller's
    concern (see spectral_radius_q).  Raises FieldOverflowError at the
    first order whose term or partial sum is not a finite double."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    return np.cumsum(_series_jets(sset, medium, pt, max_order, [(0, 0)])[:, 0])


def spectral_radius_q(sset: SolitonSet, medium: Medium,
                      pt: SpaceTimePoint) -> float:
    """Spectral radius of (lam/8) D conj(D): the series convergence ratio.

    D and conj(D) are Hermitian positive definite, so the eigenvalues of
    their product are real and positive; the largest modulus is returned.
    """
    if not len(sset):
        return 0.0
    D = _point_matrices(sset, medium, [pt])[1][0]
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
