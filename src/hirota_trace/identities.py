"""Exact combinatorial identities behind the order-by-order construction,
and numerical checks of that construction.  The terms psi_n of the series
and their derivatives come from one matrix-jet chain in core
(_series_jets): the third-order cross-check holds its order-1 term against
the multi-sum over mode indices, and the hierarchy recursion reads its jets
at any order.

The cubic and quadratic identities are polynomial in the 2n+1 symbols, so
exact equality at random Gaussian-rational points (repeated with fresh
draws) is a sound probabilistic certificate.  Both are homogeneous (degree
3 and 2), so each point is scaled by the lcm L of its components'
denominators and both sides are evaluated exactly over the Gaussian
integers, as pairs of Python ints; lhs(L k) = L^d lhs(k), and likewise for
rhs, so every verdict is exact and no float is involved.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import Medium, SolitonSet, SpaceTimePoint, _series_jets, phi
from .errors import FieldOverflowError
from .trace_engine import _ALL_ORDERS


@dataclass(frozen=True)
class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    re: Fraction
    im: Fraction

    @classmethod
    def of(cls, re, im=0) -> "GaussianRational":
        return cls(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re * other.re - self.im * other.im,
                                self.re * other.im + self.im * other.re)

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self * GaussianRational(other.re / norm, -other.im / norm)

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = GaussianRational.of(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))


def _require_odd(ks) -> int:
    """Return n for a length-(2n+1) tuple, rejecting even lengths."""
    if len(ks) % 2 == 0:
        raise ValueError(f"need an odd number of symbols, got {len(ks)}")
    return (len(ks) - 1) // 2


# Gaussian integers are (re, im) pairs of Python ints.

def _add(a, b):
    return a[0] + b[0], a[1] + b[1]


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _scaled(parts) -> tuple[list, int]:
    """Gaussian integers L*k_j from the (numerator, denominator) pairs of the
    components re_0, im_0, re_1, im_1, ..., and L, the lcm of the
    denominators."""
    scale = math.lcm(*(den for _, den in parts))
    ints = [num * (scale // den) for num, den in parts]
    return list(zip(ints[0::2], ints[1::2])), scale


def _sides(ks) -> tuple[tuple, tuple]:
    """Both sides of the cubic and of the quadratic identity at the Gaussian
    integers ks, as ((cubic_lhs, cubic_rhs), (quadratic_lhs, quadratic_rhs)).

    With P_j = k_0 + ... + k_{j-1}, T = P_{2n+1} and pair_j = k_j + k_{j+1}
    (0-based), the rhs double sums over (l, m) collapse onto suffix sums over
    the odd-indexed pairs, A_l = sum_{j odd >= 2l+1} pair_j and
    B_l = sum_{j odd >= 2l+1} pair_j P_{j+1}:
        cubic rhs     = 3 sum_l pair_{2l} ((P_{2l+1} + T) A_l - B_l),
        quadratic rhs = 2 sum_l pair_{2l} A_l.
    """
    n = _require_odd(ks)
    prefix = [(0, 0)]
    for k in ks:
        prefix.append(_add(prefix[-1], k))
    total = prefix[-1]
    pair = [_add(ks[j], ks[j + 1]) for j in range(2 * n)]
    total2 = _mul(total, total)
    cubes = alt = (0, 0)
    for j, k in enumerate(ks):          # j even <=> 1-based position odd
        sq = _mul(k, k)
        cubes = _add(cubes, _mul(sq, k))
        alt = _add(alt, sq) if j % 2 == 0 else _sub(alt, sq)
    a = b = cubic = quadratic = (0, 0)
    for l in reversed(range(n)):
        a = _add(a, pair[2 * l + 1])
        b = _add(b, _mul(pair[2 * l + 1], prefix[2 * l + 2]))
        inner = _sub(_mul(_add(prefix[2 * l + 1], total), a), b)
        cubic = _add(cubic, _mul(pair[2 * l], inner))
        quadratic = _add(quadratic, _mul(pair[2 * l], a))
    return ((_sub(_mul(total2, total), cubes), (3 * cubic[0], 3 * cubic[1])),
            (_sub(total2, alt), (2 * quadratic[0], 2 * quadratic[1])))


def _exact_sides(ks, which: int, degree: int):
    """Sides of identity ``which`` of ``_sides`` (0 cubic, 1 quadratic) at
    Gaussian rationals: scale ks by L, evaluate, divide by L**degree."""
    ints, scale = _scaled([(c.numerator, c.denominator)
                           for k in ks for c in (k.re, k.im)])
    div = scale ** degree
    return tuple(GaussianRational(Fraction(re, div), Fraction(im, div))
                 for re, im in _sides(ints)[which])


def identity_cubic(ks) -> tuple[GaussianRational, GaussianRational]:
    """Both sides of the cubic rearrangement over 2n+1 symbols.

    lhs = (sum k_j)^3 - sum k_j^3; rhs is the double sum of products of a
    contiguous prefix (through index 2l+1, 1-based), the two adjacent-pair
    factors, and the matching contiguous suffix (from index 2l+2m+3).
    """
    return _exact_sides(ks, 0, 3)


def identity_quadratic(ks) -> tuple[GaussianRational, GaussianRational]:
    """Both sides of the quadratic rearrangement over 2n+1 symbols.

    lhs = (sum k_j)^2 minus the alternating square sum (+ at odd 1-based
    positions); rhs doubles the sum of adjacent-pair products.
    """
    return _exact_sides(ks, 1, 2)


@dataclass(frozen=True)
class IdentityReport:
    n_max: int
    trials: int
    checks: int
    failures: int
    seed: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_identity_suite(n_max: int = 3, trials: int = 100,
                       seed: int = 42) -> IdentityReport:
    """Check both identities with exact equality over random tuples.

    Components are random rationals with numerator drawn uniformly from
    [-9, 9] and denominator uniformly from its 18 nonzero values, for every
    n up to n_max.  For each n, the trials are drawn in blocks of at most
    1024, so memory stays bounded: a block's numerators come from one
    array draw and its denominators from another, d + (d >= 0) of d
    uniform on [-9, 8].  Each tuple is scaled by the lcm of its
    denominators and checked over the Gaussian integers, as Python ints.
    """
    if n_max < 1 or trials < 1:
        raise ValueError("n_max and trials must be positive")
    rng = np.random.default_rng(seed)
    checks = failures = 0
    for n in range(1, n_max + 1):
        for start in range(0, trials, 1024):
            size = (min(1024, trials - start), 2 * (2 * n + 1))
            nums = rng.integers(-9, 10, size=size).tolist()
            d = rng.integers(-9, 9, size=size)
            dens = (d + (d >= 0)).tolist()
            for num, den in zip(nums, dens):
                ks, _ = _scaled(list(zip(num, den)))
                for lhs, rhs in _sides(ks):
                    checks += 1
                    if lhs != rhs:
                        failures += 1
    return IdentityReport(n_max=n_max, trials=trials, checks=checks,
                          failures=failures, seed=seed)


# ---------------------------------------------------------------------------
# cross-checks between the multi-sum and matrix-trace representations


def psi3_crosscheck(sset: SolitonSet, medium: Medium,
                    pt: SpaceTimePoint) -> tuple[complex, complex]:
    """Third-order term computed two independent ways.

    Returns (direct, trace): the triple sum over mode indices (_psi_term
    at n = 1), and -(lam/8) tr[B_x D conj(D)], the order-1 term of the
    series' matrix chain; the chain's range errors are raised first.
    """
    trace = complex(_series_jets(sset, medium, pt, 1, [(0, 0)])[1, 0])
    return _psi_term(sset, medium, pt, 1), trace


def _psi_term(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
              n: int) -> complex:
    """Multi-sum form of the order-(2n+1) term psi_n: each index at an even
    slot enters as phi_i^2 with momentum p_i, at an odd slot as
    -(lam/8) conj(phi_i)^2 with conj(p_i), and each summand is divided by
    the 2n sums of adjacent slot momenta.  Raises FieldOverflowError where
    a summand overflows, leaving the sum infinite or NaN."""
    ph = [phi(s, medium, pt) for s in sset.solitons]
    c = medium.lam / 8
    even = [(z * z, q) for z, q in zip(ph, sset.p)]
    odd = [(-c * w.conjugate(), q.conjugate()) for w, q in even]
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for idx in itertools.product(range(len(sset)), repeat=2 * n + 1):
            slots = [odd[i] if j % 2 else even[i] for j, i in enumerate(idx)]
            total += (math.prod(w for w, _ in slots)
                      / math.prod(q + r for (_, q), (_, r)
                                  in zip(slots, slots[1:])))
    if not cmath.isfinite(total):
        raise FieldOverflowError(f"order-{n} multi-sum not finite at {pt}")
    return total


def recursion_residual(sset: SolitonSet, medium: Medium, pt: SpaceTimePoint,
                       n: int) -> float:
    """Relative mismatch |lhs - rhs| / max(|lhs|, |rhs|) of the order-(2n+1)
    member of the hierarchy, for any n >= 1: the linear operator on the
    term psi_n equals the nonlinear sum over lower-order terms,

        i psi_n,t + rho psi_n,xx + i sigma psi_n,xxx
            = sum_{l+m+k=n-1} psi_l conj(psi_m) (-3i alpha psi_k,x
                                                 - delta psi_k),

    every term and derivative read from the series' jet chain.
    """
    if n < 1:
        raise ValueError(f"recursion order must be >= 1, got {n}")
    psi, psi_x, psi_xx, psi_xxx, psi_t = _series_jets(
        sset, medium, pt, n, _ALL_ORDERS).T
    lhs = (1j * psi_t[n] + medium.rho * psi_xx[n]
           + 1j * medium.sigma * psi_xxx[n])
    low = psi[:n]
    nonlinear = -3j * medium.alpha * psi_x[:n] - medium.delta * low
    rhs = np.convolve(np.convolve(low, low.conj()), nonlinear)[n - 1]
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return float(abs(lhs - rhs) / scale)
