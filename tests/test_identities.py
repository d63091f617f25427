"""Tests for exact rational arithmetic, the combinatorial identities, and
the multi-sum/trace cross-checks."""

import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from hirota_trace import (
    FieldOverflowError,
    GaussianRational,
    Medium,
    Soliton,
    SolitonSet,
    SpaceTimePoint,
    analytic_derivatives,
    identity_cubic,
    identity_quadratic,
    psi3_crosscheck,
    random_admissible_set,
    recursion_residual,
    run_identity_suite,
    spectral_radius_q,
)
from hirota_trace import identities
from hirota_trace.core import _series_jets
from hirota_trace.identities import _psi_term
from hirota_trace.trace_engine import _ALL_ORDERS, _NAMES

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
CANON = SolitonSet((Soliton(p=1 + 0j, a0=complex(math.sqrt(2.0))),))


def gr(re, im=0):
    return GaussianRational.of(re, im)


_ZERO = gr(0)


def reference_cubic(ks):
    """Cubic sides by the literal O(n^3) double sum in Fraction arithmetic."""
    n = (len(ks) - 1) // 2
    total = sum(ks, _ZERO)
    lhs = total ** 3 - sum((k ** 3 for k in ks), _ZERO)
    rhs = _ZERO
    for l in range(n):
        for m in range(n - l):
            prefix = sum(ks[: 2 * l + 1], _ZERO)
            pair1 = ks[2 * l] + ks[2 * l + 1]
            pair2 = ks[2 * l + 2 * m + 1] + ks[2 * l + 2 * m + 2]
            suffix = sum(ks[2 * l + 2 * m + 2:], _ZERO)
            rhs = rhs + pair1 * pair2 * (prefix + suffix)
    return lhs, gr(3) * rhs


def reference_quadratic(ks):
    """Quadratic sides by the literal double sum in Fraction arithmetic."""
    n = (len(ks) - 1) // 2
    total = sum(ks, _ZERO)
    alt = _ZERO
    for j, k in enumerate(ks):
        alt = alt + (k ** 2 if j % 2 == 0 else -(k ** 2))
    rhs = _ZERO
    for l in range(n):
        for m in range(n - l):
            rhs = rhs + ((ks[2 * l] + ks[2 * l + 1])
                         * (ks[2 * l + 2 * m + 1] + ks[2 * l + 2 * m + 2]))
    return total ** 2 - alt, gr(2) * rhs


def random_fraction(rng, bound):
    den = 0
    while den == 0:
        den = int(rng.integers(-bound, bound + 1))
    return Fraction(int(rng.integers(-bound, bound + 1)), den)


class TestGaussianRational:
    def test_ring_operations(self):
        a = gr(Fraction(1, 2), Fraction(-3, 4))
        b = gr(2, Fraction(1, 3))
        assert a + b == gr(Fraction(5, 2), Fraction(-5, 12))
        assert a - b == gr(Fraction(-3, 2), Fraction(-13, 12))
        assert -a == gr(Fraction(-1, 2), Fraction(3, 4))
        # (1/2 - 3i/4)(2 + i/3) = 1 + 1/4 + i(1/6 - 3/2)
        assert a * b == gr(Fraction(5, 4), Fraction(-4, 3))

    def test_power_and_conjugate(self):
        a = gr(1, 1)
        assert a ** 2 == gr(0, 2)
        assert a ** 0 == gr(1)
        assert a.conjugate() == gr(1, -1)
        with pytest.raises(ValueError):
            a ** -1

    def test_complex_conversion(self):
        assert complex(gr(Fraction(1, 4), -2)) == 0.25 - 2j


class TestIdentities:
    def test_cubic_gate(self):
        lhs, rhs = identity_cubic([gr(1), gr(2), gr(3)])
        assert lhs == rhs == gr(180)

    def test_quadratic_gate(self):
        lhs, rhs = identity_quadratic([gr(1), gr(2), gr(3)])
        assert lhs == rhs == gr(30)

    def test_n1_cubic_factored_form(self):
        # at n=1 both sides equal 3(k1+k2)(k2+k3)(k3+k1)
        rng = np.random.default_rng(17)
        for _ in range(10):
            ks = [gr(int(rng.integers(-9, 10)), int(rng.integers(-9, 10)))
                  for _ in range(3)]
            lhs, rhs = identity_cubic(ks)
            want = (gr(3) * (ks[0] + ks[1]) * (ks[1] + ks[2])
                    * (ks[2] + ks[0]))
            assert lhs == want and rhs == want

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            identity_cubic([gr(1), gr(2)])
        with pytest.raises(ValueError):
            identity_quadratic([])

    def test_suite_exact(self):
        report = run_identity_suite(n_max=3, trials=100, seed=42)
        assert report.failures == 0
        assert report.checks == 2 * 3 * 100
        assert report.ok

    def test_suite_memory_is_bounded(self, monkeypatch):
        # trials are drawn in blocks, so the peak does not grow with them;
        # the exact kernel, whose temporaries are per tuple, is stubbed
        # out: tracemalloc slows it tenfold
        monkeypatch.setattr(identities, "_scaled", lambda draw: (draw, 1))
        monkeypatch.setattr(identities, "_sides", lambda ks: ((0, 0),) * 2)
        tracemalloc.start()
        try:
            report = run_identity_suite(n_max=3, trials=20_000, seed=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and report.checks == 2 * 3 * 20_000
        assert peak <= 4 * 2 ** 20

    def test_suite_validation(self):
        with pytest.raises(ValueError):
            run_identity_suite(n_max=0)

    def test_sides_match_fraction_reference(self):
        # 300 draws, n = 1..5, denominators up to 30 so that L is large
        rng = np.random.default_rng(2024)
        for i in range(300):
            n = 1 + i % 5
            ks = [GaussianRational(random_fraction(rng, 30),
                                   random_fraction(rng, 30))
                  for _ in range(2 * n + 1)]
            cubic = identity_cubic(ks)
            assert cubic == reference_cubic(ks)
            assert identity_quadratic(ks) == reference_quadratic(ks)
        assert all(isinstance(c, Fraction) for c in (cubic[0].re, cubic[1].im))

    @pytest.mark.parametrize("which", [0, 1])
    def test_dropped_rhs_term_is_caught(self, monkeypatch, which):
        # drop the (l, m) = (0, 0) term: 3 pair_0 pair_1 (P_1 + T - P_2)
        # from the cubic rhs, or 2 pair_0 pair_1 from the quadratic one
        sides = identities._sides
        add, sub, mul = identities._add, identities._sub, identities._mul

        def corrupted(ks):
            out = list(sides(ks))
            total = (0, 0)
            for k in ks:
                total = add(total, k)
            term = mul(add(ks[0], ks[1]), add(ks[1], ks[2]))
            if which == 0:
                term = mul((3, 0), mul(term, sub(total, ks[1])))
            else:
                term = mul((2, 0), term)
            lhs, rhs = out[which]
            out[which] = (lhs, sub(rhs, term))
            return tuple(out)

        monkeypatch.setattr(identities, "_sides", corrupted)
        report = run_identity_suite(n_max=3, trials=100, seed=42)
        assert 0 < report.failures <= report.checks // 2
        assert not report.ok

    def test_suite_constructs_no_fraction(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("Fraction constructed by the suite")

        monkeypatch.setattr(identities, "Fraction", forbidden)
        report = run_identity_suite(n_max=3, trials=20, seed=1)
        assert report.ok and report.checks == 2 * 3 * 20

    def test_suite_draws(self, monkeypatch):
        # every denominator nonzero, all 18 nonzero values and all 19
        # numerators drawn, one draw per component of every tuple
        parts = []
        scaled = identities._scaled

        def spy(draw):
            parts.append(draw)
            return scaled(draw)

        monkeypatch.setattr(identities, "_scaled", spy)
        report = run_identity_suite(n_max=4, trials=50, seed=3)
        assert report.ok and report.checks == 2 * 4 * 50
        assert [len(d) for d in parts] == [2 * (2 * n + 1)
                                          for n in range(1, 5)
                                          for _ in range(50)]
        nums = {num for d in parts for num, _ in d}
        dens = {den for d in parts for _, den in d}
        assert all(type(v) is int for v in nums | dens)
        assert nums == set(range(-9, 10))
        assert dens == set(range(-9, 10)) - {0}


class TestCrossRepresentation:
    def test_canonical_third_order_value(self):
        direct, trace = psi3_crosscheck(CANON, MEDIUM,
                                        SpaceTimePoint(0.0, 0.0))
        assert direct == pytest.approx(-2.0 + 0j, rel=1e-13)
        assert trace == pytest.approx(-2.0 + 0j, rel=1e-13)

    @pytest.mark.parametrize("n,seed", [(1, 41), (2, 42), (3, 43)])
    def test_triple_sum_vs_trace(self, n, seed):
        sset = random_admissible_set(n, seed)
        direct, trace = psi3_crosscheck(sset, MEDIUM,
                                        SpaceTimePoint(-0.4, 0.3))
        assert abs(direct - trace) <= 1e-12 * max(1.0, abs(trace))

    @pytest.mark.parametrize("p,x", [(1, 360.0), (1 + 0.3j, 125.0),
                                     (1 + 0.3j, 150.0), (1 + 0.3j, 175.0),
                                     (200 + 0.3j, 0.6)])
    def test_multisum_out_of_range_raises_typed_error(self, p, x):
        # a square that overflows (x = 360), an overflowing product whose
        # quotient is NaN (x = 125..175), and a summand that overflows
        # where the chain's order-1 term is finite (p = 200 + 0.3i); the
        # suite turns any RuntimeWarning into an error
        sset = SolitonSet.from_pairs([(p, 1)])
        pt = SpaceTimePoint(x, 0.0)
        with pytest.raises(FieldOverflowError, match="multi-sum"):
            _psi_term(sset, MEDIUM, pt, 1)
        with pytest.raises(FieldOverflowError):
            psi3_crosscheck(sset, MEDIUM, pt)

    def test_multisum_permutation_symmetry(self):
        sset = random_admissible_set(2, 44)
        swapped = SolitonSet(sset.solitons[::-1])
        pt = SpaceTimePoint(0.2, -0.1)
        a = _psi_term(sset, MEDIUM, pt, 1)
        b = _psi_term(swapped, MEDIUM, pt, 1)
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


#: the media of the every-order recursion checks: Hirota, NLS, mKdV and a
#: mixed one, as (rho, sigma, lam)
MEDIA = [Medium(1.0, 1.0, 8.0), Medium(1.0, 0.0, 2.0), Medium(0.0, 1.3, 4.0),
         Medium(0.7, 0.2, 1.0)]


class TestJetChain:
    @pytest.mark.parametrize("nsol", [1, 2, 3])
    def test_terms_match_multisum(self, nsol):
        # the chain's (0, 0) jets against the multi-sum, for n <= 2
        sset = random_admissible_set(nsol, 60 + nsol)
        pt = SpaceTimePoint(0.3, -0.2)
        jets = _series_jets(sset, MEDIUM, pt, 2, _ALL_ORDERS)
        for n in range(3):
            want = _psi_term(sset, MEDIUM, pt, n)
            assert abs(jets[n, 0] - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("nsol", [1, 2, 3, 4, 5])
    def test_summed_jets_match_cauchy_binet_engine(self, nsol):
        # summed over n <= 60 where q <= 0.3, each jet is that order's
        # derivative of psi, which the compiled engine gives independently
        rng = np.random.default_rng(70 + nsol)
        for medium in MEDIA:
            sset = random_admissible_set(nsol, rng)
            t = float(rng.uniform(-0.5, 0.5))
            pt = next(SpaceTimePoint(float(x), t)
                      for x in np.arange(-0.5, -12.0, -0.5)
                      if spectral_radius_q(sset, medium,
                                           SpaceTimePoint(float(x), t)) <= 0.3)
            jets = _series_jets(sset, medium, pt, 60, _ALL_ORDERS).sum(axis=0)
            exact = analytic_derivatives(sset, medium, pt).as_dict()
            for order, got in zip(_ALL_ORDERS, jets):
                want = exact[_NAMES[order]]
                assert abs(got - want) <= 1e-12 * abs(want), (medium, order)


class TestRecursion:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("nsol,seed", [(1, 51), (2, 52)])
    def test_hierarchy_member(self, n, nsol, seed):
        sset = random_admissible_set(nsol, seed)
        res = recursion_residual(sset, MEDIUM, SpaceTimePoint(0.3, -0.2), n)
        assert res <= 1e-10

    @pytest.mark.parametrize("n", [0, -1])
    def test_order_below_one_rejected(self, n):
        with pytest.raises(ValueError):
            recursion_residual(CANON, MEDIUM, SpaceTimePoint(0.0, 0.0), n)

    @pytest.mark.parametrize("medium", MEDIA, ids=["hirota", "nls", "mkdv",
                                                   "mixed"])
    def test_every_order_every_medium(self, medium):
        # every order n <= 12, past the old n <= 2 cap
        worst = 0.0
        for nsol in range(1, 6):
            sset = random_admissible_set(nsol, 80 + nsol)
            for pt in (SpaceTimePoint(-0.8, 0.3), SpaceTimePoint(0.4, -0.3)):
                worst = max(worst, *(recursion_residual(sset, medium, pt, n)
                                     for n in range(1, 13)))
        assert worst <= 1e-12

    @pytest.mark.parametrize("field", ["lam", "rho", "sigma"])
    def test_one_percent_medium_error_fails_every_order(self, monkeypatch,
                                                        field):
        # the jets are built in MEDIUM, the recursion is read in a medium
        # with one parameter off by 1 %
        sset = random_admissible_set(2, 54)
        pt = SpaceTimePoint(0.3, -0.2)
        chain = identities._series_jets
        monkeypatch.setattr(
            identities, "_series_jets",
            lambda s, medium, point, n, orders: chain(s, MEDIUM, point, n,
                                                      orders))
        wrong = dataclasses.replace(MEDIUM,
                                    **{field: 1.01 * getattr(MEDIUM, field)})
        assert min(recursion_residual(sset, wrong, pt, n)
                   for n in range(1, 9)) > 1e-6
