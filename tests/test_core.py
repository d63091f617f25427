"""Unit tests for the domain types and the closed/series evaluators."""

import cmath
import math

import numpy as np
import pytest

from hirota_trace import (
    DegeneratePointError,
    DispersionPoly,
    FieldOverflowError,
    GridSpec,
    Medium,
    SingularDenominatorError,
    Soliton,
    SolitonSet,
    SpaceTimePoint,
    build_B,
    build_Bx,
    build_D,
    dispersion,
    eval_psi_closed,
    eval_psi_series,
    general_dispersion,
    one_soliton_closed,
    one_soliton_envelope_shift,
    phi,
    random_admissible_set,
    series_partial_sums,
    spectral_radius_q,
)

CANON_MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
CANON_SOLITON = Soliton(p=1 + 0j, a0=complex(math.sqrt(2.0)))
CANON_SET = SolitonSet((CANON_SOLITON,))
ORIGIN = SpaceTimePoint(0.0, 0.0)


class TestMedium:
    def test_derived_coefficients(self):
        m = Medium(rho=2.0, sigma=3.0, lam=4.0)
        assert m.alpha == 12.0
        assert m.delta == 8.0

    @pytest.mark.parametrize("kwargs", [
        dict(rho=1.0, sigma=1.0, lam=0.0),
        dict(rho=1.0, sigma=1.0, lam=-8.0),
        dict(rho=-1.0, sigma=1.0, lam=8.0),
        dict(rho=0.0, sigma=0.0, lam=8.0),
        dict(rho=float("nan"), sigma=1.0, lam=8.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            Medium(**kwargs)

    def test_pure_limits_are_representable(self):
        assert Medium(rho=0.0, sigma=1.0, lam=8.0).delta == 0.0
        assert Medium(rho=1.0, sigma=0.0, lam=8.0).alpha == 0.0


class TestSoliton:
    def test_rejects_nonpositive_re_p(self):
        with pytest.raises(ValueError):
            Soliton(p=-1 + 0j, a0=1 + 0j)
        with pytest.raises(ValueError):
            Soliton(p=1j, a0=1 + 0j)

    def test_rejects_zero_amplitude(self):
        with pytest.raises(ValueError):
            Soliton(p=1 + 0j, a0=0j)

    def test_singular_pair_sum_detected(self):
        tiny = Soliton(p=2e-10 + 0j, a0=1 + 0j)
        with pytest.raises(SingularDenominatorError):
            SolitonSet((tiny,))


class TestDispersion:
    def test_canonical_value(self):
        # Omega = -2i*rho*p^2 + 4*sigma*p^3 at p=1, rho=sigma=1
        assert dispersion(1 + 0j, CANON_MEDIUM) == pytest.approx(4 - 2j)

    def test_polynomial_symbol_matches(self):
        lp = DispersionPoly.hirota(CANON_MEDIUM)
        for p in (1 + 0j, 0.7 - 0.4j, 1.3 + 0.9j):
            assert general_dispersion(lp, p) == pytest.approx(
                dispersion(p, CANON_MEDIUM), rel=1e-14)

    def test_degree(self):
        assert DispersionPoly((0j, 0j, -1j, 0j)).degree == 2
        assert DispersionPoly.hirota(CANON_MEDIUM).degree == 3


class TestModes:
    def test_phi_at_origin_is_a0(self):
        assert phi(CANON_SOLITON, CANON_MEDIUM, ORIGIN) == pytest.approx(
            CANON_SOLITON.a0)

    def test_phi_overflow_guard(self):
        with pytest.raises(FieldOverflowError):
            phi(CANON_SOLITON, CANON_MEDIUM, SpaceTimePoint(800.0, 0.0))

    @pytest.mark.parametrize("evaluate", [
        eval_psi_closed, spectral_radius_q,
        lambda s, m, pt: series_partial_sums(s, m, pt, 3)],
        ids=["closed", "spectral_radius", "series"])
    def test_squared_mode_products_overflow_guard(self, evaluate):
        # every single mode exponent is below EXP_LIMIT here, but the entries
        # of D conj(D) are not; the suite turns RuntimeWarning into an error,
        # so any bare overflow warning before the raise fails this test
        sset = random_admissible_set(3, 4)
        with pytest.raises(FieldOverflowError):
            evaluate(sset, Medium(1, 1, 8), SpaceTimePoint(300.0, 0.0))

    def test_far_field_dense_solve_raises_only_typed_errors(self):
        sset = random_admissible_set(3, 4)
        for x in np.arange(-400.0, 401.0, 25.0):
            for t in (-20.0, 0.0, 20.0):
                try:
                    eval_psi_closed(sset, CANON_MEDIUM, SpaceTimePoint(x, t))
                except (FieldOverflowError, DegeneratePointError):
                    pass


class TestMatrices:
    def test_one_by_one_entries(self):
        pt = SpaceTimePoint(-1.0, 0.0)
        f = phi(CANON_SOLITON, CANON_MEDIUM, pt)
        B = build_B(CANON_SET, CANON_MEDIUM, pt)
        D = build_D(CANON_SET, CANON_MEDIUM, pt)
        Bx = build_Bx(CANON_SET, CANON_MEDIUM, pt)
        assert B[0, 0] == pytest.approx(f * f / 2)
        # |phi|^2 / 2 = 2 e^{-2} / 2 = e^{-2}
        assert D[0, 0] == pytest.approx(math.exp(-2.0))
        assert Bx[0, 0] == pytest.approx(f * f)

    def test_empty_set(self):
        empty = SolitonSet(())
        assert build_B(empty, CANON_MEDIUM, ORIGIN).shape == (0, 0)
        assert eval_psi_closed(empty, CANON_MEDIUM, ORIGIN) == 0j


class TestClosedForm:
    def test_canonical_peak(self):
        assert eval_psi_closed(CANON_SET, CANON_MEDIUM, ORIGIN) \
            == pytest.approx(1.0 + 0j, abs=1e-14)

    def test_sech_profile_at_t0(self):
        for x in np.linspace(-2.0, 2.0, 17):
            got = eval_psi_closed(CANON_SET, CANON_MEDIUM,
                                  SpaceTimePoint(float(x), 0.0))
            assert got == pytest.approx(1.0 / math.cosh(2 * x), rel=1e-12)
            assert abs(got.imag) < 1e-14

    def test_degenerate_point_rejected(self):
        # far in the tail the resolvent conditioning blows past the limit
        rng = np.random.default_rng(5)
        p = rng.uniform(0.3, 1.5, 3) + 1j * rng.uniform(-1, 1, 3)
        sset = SolitonSet.from_pairs((pk, 1 + 0j) for pk in p)
        with pytest.raises(DegeneratePointError):
            eval_psi_closed(sset, CANON_MEDIUM, SpaceTimePoint(30.0, 0.0))


class TestSeries:
    def test_order_zero_is_trace_bx(self):
        pt = SpaceTimePoint(-1.0, 0.0)
        sums = series_partial_sums(CANON_SET, CANON_MEDIUM, pt, 0)
        assert sums[0] == pytest.approx(2 * math.exp(-2.0))

    def test_tail_convergence_to_closed(self):
        pt = SpaceTimePoint(-1.0, 0.0)
        closed = eval_psi_closed(CANON_SET, CANON_MEDIUM, pt)
        approx = eval_psi_series(CANON_SET, CANON_MEDIUM, pt, 20)
        assert abs(approx - closed) <= 1e-14 * abs(closed)

    def test_geometric_ratio_matches_q(self):
        pt = SpaceTimePoint(-1.0, 0.0)
        q = spectral_radius_q(CANON_SET, CANON_MEDIUM, pt)
        assert q == pytest.approx(math.exp(-4.0), rel=1e-10)
        closed = eval_psi_closed(CANON_SET, CANON_MEDIUM, pt)
        sums = series_partial_sums(CANON_SET, CANON_MEDIUM, pt, 5)
        errs = np.abs(sums - closed)
        ratios = errs[1:] / errs[:-1]
        # the last ratios graze the double-precision floor of `closed`
        assert np.allclose(ratios, q, rtol=1e-4)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            series_partial_sums(CANON_SET, CANON_MEDIUM, ORIGIN, -1)


class TestSpectralRadius:
    def test_unity_at_canonical_peak(self):
        assert spectral_radius_q(CANON_SET, CANON_MEDIUM, ORIGIN) \
            == pytest.approx(1.0, abs=1e-10)

    def test_empty_set(self):
        assert spectral_radius_q(SolitonSet(()), CANON_MEDIUM, ORIGIN) == 0.0

    def test_two_soliton_power_iteration(self):
        sset = SolitonSet.from_pairs([(0.6 + 0.2j, 1.0), (1.1 - 0.3j, 0.8)])
        pt = SpaceTimePoint(-3.0, 0.5)
        q = spectral_radius_q(sset, CANON_MEDIUM, pt)
        D = build_D(sset, CANON_MEDIUM, pt)
        X = (CANON_MEDIUM.lam / 8) * D @ D.conj()
        want = max(abs(np.linalg.eigvals(X)))
        assert q == pytest.approx(want, rel=1e-6)

    def test_matches_hermitian_similarity_form(self):
        # with D = L L^H, the product D conj(D) is similar to the Hermitian
        # positive definite L^H conj(D) L, whose eigenvalues eigvalsh gives
        rng = np.random.default_rng(7)
        for draw in range(240):
            sset = random_admissible_set(2 + draw % 4, 500 + draw)
            pt = SpaceTimePoint(float(rng.uniform(-4.0, 4.0)),
                                float(rng.uniform(-1.0, 1.0)))
            D = build_D(sset, CANON_MEDIUM, pt)
            L = np.linalg.cholesky(D)
            H = (CANON_MEDIUM.lam / 8) * L.conj().T @ D.conj() @ L
            want = np.linalg.eigvalsh(H).max()
            assert spectral_radius_q(sset, CANON_MEDIUM, pt) \
                == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("x,t", [(-2.0, 0.3), (0.0, 0.0), (1.5, -0.8)])
    def test_one_soliton_closed_form(self, x, t):
        # q = (lam/8) |phi|^4 / (p + conj(p))^2 for a single soliton
        s = Soliton(p=0.8 + 0.4j, a0=1.1 - 0.6j)
        pt = SpaceTimePoint(x, t)
        want = (CANON_MEDIUM.lam / 8 * abs(phi(s, CANON_MEDIUM, pt)) ** 4
                / (2 * s.p.real) ** 2)
        assert spectral_radius_q(SolitonSet((s,)), CANON_MEDIUM, pt) \
            == pytest.approx(want, rel=1e-13)


class TestOneSolitonClosed:
    def test_matches_trace_formula_on_grid(self):
        for x in np.linspace(-3.0, 3.0, 13):
            for t in np.linspace(-1.0, 1.0, 5):
                pt = SpaceTimePoint(float(x), float(t))
                a = one_soliton_closed(CANON_SOLITON, CANON_MEDIUM, pt)
                b = eval_psi_closed(CANON_SET, CANON_MEDIUM, pt)
                assert a == pytest.approx(b, rel=1e-12)

    def test_complex_parameters(self):
        s = Soliton(p=0.8 + 0.4j, a0=1.1 - 0.6j)
        sset = SolitonSet((s,))
        for x, t in [(-1.5, 0.3), (0.2, -0.7), (1.0, 1.0)]:
            pt = SpaceTimePoint(x, t)
            a = one_soliton_closed(s, CANON_MEDIUM, pt)
            b = eval_psi_closed(sset, CANON_MEDIUM, pt)
            assert a == pytest.approx(b, rel=1e-12)

    def test_envelope_shift_zero_for_canonical(self):
        # lam |a0|^4 = 8 * 4 ... /(8 * 4) = 1 => eta = 0
        assert one_soliton_envelope_shift(CANON_SOLITON, CANON_MEDIUM) \
            == pytest.approx(0.0, abs=1e-15)


class TestGridSpec:
    def test_axes(self):
        g = GridSpec(-1.0, 1.0, 3, 0.0, 0.0, 1)
        assert list(g.xs()) == [-1.0, 0.0, 1.0]
        assert list(g.ts()) == [0.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(1.0, -1.0, 3, 0.0, 0.0, 1)
        with pytest.raises(ValueError):
            GridSpec(-1.0, 1.0, 0, 0.0, 0.0, 1)
