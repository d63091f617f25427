"""Residual verification, limit reductions, additivity instances, and
two-soliton collision elasticity.

The residual of the full third-order equation

    i psi_t + 3i alpha |psi|^2 psi_x + rho psi_xx + i sigma psi_xxx
        + delta |psi|^2 psi = 0

is evaluated from analytic derivatives for every EquationKind: with
sigma = 0 it is the cubic Schroedinger residual, and with rho = 0 (real
parameters) i times the real-form modified KdV residual.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .calculus import analytic_derivatives_grid
from .core import (
    DispersionPoly,
    GridSpec,
    Medium,
    Soliton,
    SolitonSet,
    SpaceTimePoint,
    dispersion,
)
from .errors import (
    EmptyReportError,
    FieldOverflowError,
    ResonanceError,
    UnseparatedEnvelopesError,
)
from .trace_engine import _ALL_ORDERS, compiled

RESONANCE_TOL = 1e-12


class EquationKind(enum.Enum):
    HIROTA = "hirota"
    NLS = "nls"
    MKDV = "mkdv"

    def check_medium(self, medium: Medium) -> None:
        if self is EquationKind.NLS and medium.sigma != 0:
            raise ValueError("nls reduction requires sigma = 0")
        if self is EquationKind.MKDV and medium.rho != 0:
            raise ValueError("mkdv reduction requires rho = 0")


@dataclass(frozen=True)
class ResidualReport:
    """Grid-wide residual statistics; normalizer is max |psi| over the grid.

    worst_point is where |residual| peaks: near max_rel ~ 1e-13 that is
    round-off noise, so it can move under last-ulp changes of psi (another
    BLAS thread count or NumPy build), and so does the order estimate that
    the CLI's --fd-check reads there.
    """

    max_abs: float
    rms: float
    normalizer: float
    n_points: int
    worst_point: SpaceTimePoint
    n_degenerate: int = 0

    @property
    def max_rel(self) -> float:
        """max |residual| / max(1, max |psi|): the acceptance quantity."""
        return self.max_abs / max(1.0, self.normalizer)


@dataclass(frozen=True)
class CollisionMetrics:
    peaks_before: tuple[float, ...]
    peaks_after: tuple[float, ...]
    t_far: float

    @property
    def max_rel_mismatch(self) -> float:
        return max(abs(a - b) / b
                   for a, b in zip(self.peaks_after, self.peaks_before))


def _residual_arrays(medium: Medium, d: dict) -> np.ndarray:
    """The Hirota residual (module docstring) of a derivative bundle.  A
    term whose medium coefficient is exactly 0 is left out (it is an exact
    +-0), so an nls bundle needs no psi_xxx."""
    psi = d["psi"]
    absq = np.abs(psi) ** 2
    res = 1j * d["psi_t"]
    if medium.alpha:
        res = res + 3j * medium.alpha * absq * d["psi_x"]
    if medium.rho:
        res = res + medium.rho * d["psi_xx"]
    if medium.sigma:
        res = res + 1j * medium.sigma * d["psi_xxx"]
    if medium.delta:
        res = res + medium.delta * absq * psi
    return res


def _check_range(sset: SolitonSet, medium: Medium) -> None:
    """Raise FieldOverflowError unless the residual's coefficients 3 alpha
    and delta are finite doubles (alpha = lam sigma and delta = lam rho can
    leave double range although lam, rho and sigma are finite), and so is
    the a-priori bound (8/lam) (sum_k Re p_k)^2 on |psi|^2 (Zakharov and
    Shabat 1972), which a tiny lam takes out of range."""
    if not (math.isfinite(3 * medium.alpha) and math.isfinite(medium.delta)):
        raise FieldOverflowError(
            f"residual coefficients 3 alpha = {3 * medium.alpha} and delta = "
            f"{medium.delta} must be finite doubles")
    re_sum = sum(s.p.real for s in sset.solitons)
    if not math.isfinite(8 / medium.lam * re_sum * re_sum):
        raise FieldOverflowError(
            f"the bound (8/lambda) (sum Re p)^2 on |psi|^2 leaves double "
            f"range for lambda = {medium.lam:.6g}")


def residual_at(kind: EquationKind, sset: SolitonSet, medium: Medium,
                pt: SpaceTimePoint) -> complex:
    """Left-hand side of the selected equation at one point; mKdV in its
    real form, -i times the Hirota residual."""
    kind.check_medium(medium)
    _check_range(sset, medium)
    d = analytic_derivatives_grid(sset, medium,
                                  np.asarray(pt.x), np.asarray(pt.t))
    value = complex(_residual_arrays(medium, d))
    return -1j * value if kind is EquationKind.MKDV else value


def residual_report(kind: EquationKind, sset: SolitonSet, medium: Medium,
                    grid: GridSpec) -> ResidualReport:
    """Aggregate residual_at over the grid, skipping degenerate points.

    The grid is reduced tile by tile as the engine evaluates it, so no
    array over the whole grid is formed.  The worst point is deterministic:
    ties break to lowest x, then lowest t.
    """
    kind.check_medium(medium)
    _check_range(sset, medium)
    xs = grid.xs()
    ts = grid.ts()
    # with sigma = 0 the residual has no psi_xxx term, which is then not
    # formed
    orders = [o for o in _ALL_ORDERS if medium.sigma or o != (3, 0)]
    # the largest (is NaN, |residual|, -ix, -it) seen, so that NaN wins
    # as in np.argmax and ties break to lowest x, then lowest t
    best = (False, -np.inf, 0, 0)
    sumsq = 0.0
    normalizer = 0.0
    n_good = 0
    for xsl, tsl, jets, bad in compiled(sset, medium)._tile_iter(xs, ts,
                                                                 orders):
        # flat indices of the tile's good points, None when all are good
        index = np.flatnonzero(~bad) if bad.any() else None
        if index is not None and not len(index):
            continue
        res = np.abs(_residual_arrays(medium, jets)).ravel()
        mag = np.abs(jets["psi"]).ravel()
        if index is not None:
            res, mag = res[index], mag[index]
        n_good += len(res)
        k = int(res.argmax())
        top = float(res[k])
        ix, it = divmod(k if index is None else int(index[k]), bad.shape[1])
        best = max(best, (math.isnan(top), 0.0 if math.isnan(top) else top,
                          -(xsl.start + ix), -(tsl.start + it)))
        sumsq += float(np.square(res).sum())
        normalizer = float(np.maximum(normalizer, mag.max()))
    if n_good == 0:
        raise EmptyReportError("all grid points degenerate")
    is_nan, top, minus_ix, minus_it = best
    return ResidualReport(
        max_abs=np.nan if is_nan else top,
        rms=math.sqrt(sumsq / n_good),
        normalizer=normalizer,
        n_points=n_good,
        worst_point=SpaceTimePoint(float(xs[-minus_ix]),
                                   float(ts[-minus_it])),
        n_degenerate=len(xs) * len(ts) - n_good,
    )


def additivity_instance(sset: SolitonSet, lam: float, rho0: float,
                        sigma0: float, a: float, b: float,
                        grid: GridSpec) -> ResidualReport:
    """Residual report for the combined medium (a*rho0, b*sigma0, lam).

    Scaling rho and sigma jointly preserves the coupling ratio lam, so the
    combined equation is again of the same family; a passing report is a
    numerical witness that solutions of the two constituent equations
    combine linearly in the dispersion.
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("a, b must be nonnegative and not both zero")
    medium = Medium(rho=a * rho0, sigma=b * sigma0, lam=lam)
    return residual_report(EquationKind.HIROTA, sset, medium, grid)


def _resonance_denominator(lp: DispersionPoly, moms: list[complex]) -> complex:
    """L_p(2*sum q) - sum_q L_p(2 q), raising ResonanceError when its
    modulus falls below RESONANCE_TOL."""
    denom = lp(2 * sum(moms)) - sum(lp(2 * q) for q in moms)
    if abs(denom) < RESONANCE_TOL:
        raise ResonanceError(f"dispersion denominator {denom} ~ 0")
    return denom


def pi_ratio(c_n: complex, momenta: list[complex],
             lp: DispersionPoly) -> complex:
    """c_n / [L_p(2*sum p_j) - sum_j L_p(2 p_j)].

    Conjugated momenta slots are the caller's responsibility; the operation
    applies the same symbol to every slot.  Raises ResonanceError when the
    denominator magnitude falls below 1e-12.
    """
    return c_n / _resonance_denominator(lp, momenta)


def scaling_invariance_check(sset: SolitonSet, lam: float, rho0: float,
                             sigma0: float, a: float, b: float,
                             trials: int = 100, seed: int = 42) -> bool:
    """Numerical witness that the series coefficients are scale-invariant.

    For the second-order symbol L' = -i*rho0*z^2, the third-order symbol
    L'' = sigma0*z^3, and the combination L* = a L' + b L'', the
    coefficient-to-denominator ratio is built to agree across the three
    systems (common coupling -lam/8); the check verifies the combined
    system reproduces it, for ``trials`` random admissible momenta tuples.
    """
    if a < 0 or b < 0 or (a == 0 and b == 0):
        raise ValueError("a, b must be nonnegative and not both zero")
    lp1 = DispersionPoly((0j, 0j, -1j * rho0, 0j))
    lp2 = DispersionPoly((0j, 0j, 0j, complex(sigma0)))
    lp_star = DispersionPoly(tuple(a * c1 + b * c2 for c1, c2
                                   in zip(lp1.coeffs, lp2.coeffs)))
    rng = np.random.default_rng(seed)

    def draw() -> list[complex]:
        q = rng.uniform(0.3, 1.5, 3) + 1j * rng.uniform(-1.0, 1.0, 3)
        return [q[0], q[1].conjugate(), q[2]]

    for _ in range(trials):
        for _attempt in range(10):
            moms = draw()
            try:
                target = (-lam / 8) / ((moms[0] + moms[1])
                                       * (moms[1] + moms[2]))
                d1 = _resonance_denominator(lp1, moms) if a != 0 else 0j
                d2 = _resonance_denominator(lp2, moms) if b != 0 else 0j
                c_star = target * (a * d1 + b * d2)
                got = pi_ratio(c_star, moms, lp_star)
            except ResonanceError:
                continue
            break
        else:
            raise ResonanceError("could not draw non-resonant momenta")
        if abs(got - target) > 1e-12 * abs(target):
            return False
    return True


def random_admissible_set(n: int, seed: int | np.random.Generator) -> SolitonSet:
    """Seeded admissible configuration: Re p in [0.3, 1.5], Im p in [-1, 1],
    |a0| in [0.5, 2], uniform phase."""
    rng = seed if isinstance(seed, np.random.Generator) \
        else np.random.default_rng(seed)
    p = rng.uniform(0.3, 1.5, n) + 1j * rng.uniform(-1.0, 1.0, n)
    a0 = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    return SolitonSet.from_pairs(zip(p, a0))


def _refine_peak(xs: np.ndarray, vals: np.ndarray, i: int) -> float:
    """Three-point parabolic refinement of the position of the interior
    local maximum at index i."""
    y0, y1, y2 = vals[i - 1], vals[i], vals[i + 1]
    denom = y0 - 2 * y1 + y2
    if denom == 0:
        return float(xs[i])
    return float(xs[i] + 0.5 * (y0 - y2) / denom * (xs[1] - xs[0]))


def _two_largest_maxima(xs: np.ndarray, vals: np.ndarray) -> list[float]:
    interior = (vals[1:-1] > vals[:-2]) & (vals[1:-1] >= vals[2:])
    idx = np.flatnonzero(interior) + 1
    if len(idx) < 2:
        raise UnseparatedEnvelopesError(
            f"found {len(idx)} local maxima, need 2")
    top = idx[np.argsort(vals[idx])[-2:]]
    return [_refine_peak(xs, vals, int(i)) for i in top]


def group_velocity(s: Soliton, medium: Medium) -> float:
    """Envelope speed Re(Omega)/Re(p) of one soliton."""
    return dispersion(s.p, medium).real / s.p.real


def collision_metrics(sset: SolitonSet, medium: Medium, t_far: float,
                      x_window: GridSpec) -> CollisionMetrics:
    """Peak amplitudes of a two-soliton field before and after collision.

    Peaks at t = -t_far and t = +t_far are located by grid scan plus
    parabolic refinement, then polished by Newton iteration on the exact
    derivative of |psi|^2, and matched to solitons by predicted envelope
    position (group velocity times t).  Raises UnseparatedEnvelopesError
    unless the envelopes are at least five widths apart at both times.
    """
    if len(sset) != 2:
        raise ValueError("collision metrics require exactly two solitons")
    widths = [1.0 / (2 * s.p.real) for s in sset.solitons]
    vels = [group_velocity(s, medium) for s in sset.solitons]
    if abs(vels[0] - vels[1]) * t_far <= 5 * max(widths):
        raise UnseparatedEnvelopesError(
            "predicted envelope separation "
            f"{abs(vels[0] - vels[1]) * t_far:.3g} is below five widths "
            f"({5 * max(widths):.3g}) at |t| = {t_far}")
    engine = compiled(sset, medium)
    xs = x_window.xs()

    def polish(x0: float, t0: float) -> tuple[float, float]:
        # Newton on F(x) = d|psi|^2/dx = 2 Re(conj(psi) psi_x)
        x = x0
        for _ in range(30):
            d = engine.derivatives(np.asarray(x), np.asarray(t0),
                                   orders=[(0, 0), (1, 0), (2, 0)])
            psi, px, pxx = d["psi"], d["psi_x"], d["psi_xx"]
            F = 2 * (np.conj(psi) * px).real
            Fp = 2 * (abs(px) ** 2 + (np.conj(psi) * pxx).real)
            if Fp == 0:
                break
            step = float(F / Fp)
            x -= step
            if abs(step) < 1e-13 * max(1.0, abs(x)):
                break
        return x, float(np.abs(engine.psi(np.asarray(x), np.asarray(t0))))

    matched: dict[float, list[float]] = {}
    for t_signed in (-t_far, t_far):
        vals = np.abs(engine.psi(xs, t_signed))
        peaks = [polish(x0, t_signed) for x0 in _two_largest_maxima(xs, vals)]
        if abs(peaks[0][0] - peaks[1][0]) <= 5 * max(widths):
            raise UnseparatedEnvelopesError(
                f"envelope separation at t={t_signed} below five widths")
        by_soliton = [0.0, 0.0]
        taken = set()
        for k, v in enumerate(vels):
            best = min((j for j in range(2) if j not in taken),
                       key=lambda j: abs(peaks[j][0] - v * t_signed))
            taken.add(best)
            by_soliton[k] = peaks[best][1]
        matched[t_signed] = by_soliton
    return CollisionMetrics(peaks_before=tuple(matched[-t_far]),
                            peaks_after=tuple(matched[t_far]),
                            t_far=t_far)
