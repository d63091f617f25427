"""Unit tests for the domain types and the closed/series evaluators."""

import cmath
import math
import sys
import warnings

import numpy as np
import pytest

from hirota_trace import (
    DENOM_TOL,
    DegeneratePointError,
    DispersionPoly,
    FieldOverflowError,
    GridSpec,
    Medium,
    SingularDenominatorError,
    Soliton,
    SolitonSet,
    SpaceTimePoint,
    compiled,
    dispersion,
    eval_psi_closed,
    eval_psi_closed_stack,
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


def dense_matrices(sset, medium, pt):
    """B_x = phi_m phi_n and D = phi_m conj(phi_n) / (p_m + conj(p_n)) at
    pt, formed here from phi and the pair sums."""
    ph = np.array([phi(s, medium, pt) for s in sset.solitons])
    p = sset.p
    return np.outer(ph, ph), np.outer(ph, ph.conj()) / (p[:, None] + p.conj())


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


def pair_loop_admits(p):
    """The former admission rule, kept as the reference: every pair sum
    p_m + p_n and p_m + conj(p_n) has modulus at least DENOM_TOL."""
    for m in range(len(p)):
        for n in range(len(p)):
            if abs(p[m] + p[n]) < DENOM_TOL:
                return False
            if abs(p[m] + p[n].conjugate()) < DENOM_TOL:
                return False
    return True


def admission_sweep():
    """Seeded wavenumber sets, N = 0..5, Re p log-uniform over [1e-11, 10];
    every second set with N >= 2 has Im p_1 within 1e-10 of -Im p_0, so
    p_0 + p_1 nearly cancels, and every fifth has Re p_0 within 3 ulps of
    DENOM_TOL / 2."""
    rng = np.random.default_rng(30)
    half = DENOM_TOL / 2
    for trial in range(3000):
        n = trial % 6
        re = 10.0 ** rng.uniform(-11, 1, n)
        im = rng.uniform(-10, 10, n)
        if n >= 2 and trial % 2:
            im[1] = -im[0] + rng.uniform(-1e-10, 1e-10)
            re[1] = 10.0 ** rng.uniform(-11, -8)
        if n >= 1 and trial % 5 == 0:
            re[0] = half + int(rng.integers(-3, 4)) * np.spacing(half)
        yield re + 1j * im


class TestSolitonSet:
    def test_admits_exactly_what_the_pair_loop_admits(self):
        admitted = 0
        sets = list(admission_sweep())
        for p in sets:
            try:
                SolitonSet.from_pairs((q, 1) for q in p)
                ok = True
            except SingularDenominatorError:
                ok = False
            assert ok == pair_loop_admits(p), p
            admitted += ok
            if len(p):
                # the least pair-sum modulus is 2 min Re p, bit for bit:
                # the bound the dense builder reads
                assert np.abs(p[:, None] + p.conj()).min() \
                    == 2 * p.real.min()
        assert 0 < admitted < len(sets)

    def test_rejection_names_the_soliton(self):
        with pytest.raises(SingularDenominatorError, match="p_1"):
            SolitonSet.from_pairs([(1, 1), (4e-10 + 3j, 1)])


class TestDispersion:
    def test_canonical_value(self):
        # Omega = -2i*rho*p^2 + 4*sigma*p^3 at p=1, rho=sigma=1
        assert dispersion(1 + 0j, CANON_MEDIUM) == pytest.approx(4 - 2j)

    def test_polynomial_symbol_matches(self):
        lp = DispersionPoly.hirota(CANON_MEDIUM)
        for p in (1 + 0j, 0.7 - 0.4j, 1.3 + 0.9j):
            assert 0.5 * lp(2 * p) == pytest.approx(
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

    @pytest.mark.parametrize("evaluate", [
        eval_psi_closed, spectral_radius_q,
        lambda s, m, pt: series_partial_sums(s, m, pt, 3)],
        ids=["closed", "spectral_radius", "series"])
    @pytest.mark.parametrize("p,x,matrix", [(1.0, 360.0, "B_x"),
                                            (1e-9, 3.495e11, "D")])
    def test_tiny_coupling_mode_products_overflow_guard(self, evaluate, p, x,
                                                        matrix):
        # at lam = 1e-320 the bound on (lam/8) D conj(D) passes, but the
        # entries of B_x = phi_m phi_n (|phi|^2 = e^720 at p = 1), or of
        # D = phi_m conj(phi_n) / (p_m + conj(p_n)) (|phi|^2 = e^699 over
        # 2 Re p = 2e-9 at p = 1e-9), leave double range
        sset = SolitonSet.from_pairs([(p, 1)])
        with pytest.raises(FieldOverflowError,
                           match=f"^{matrix} entries outside double range"):
            evaluate(sset, Medium(1, 1, 1e-320), SpaceTimePoint(x, 0.0))

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
        Bx, D = dense_matrices(CANON_SET, CANON_MEDIUM, pt)
        # |phi|^2 / 2 = 2 e^{-2} / 2 = e^{-2}
        assert D[0, 0] == pytest.approx(math.exp(-2.0))
        assert Bx[0, 0] == pytest.approx(f * f)
        # lam = 8: psi = B_x / (1 + D conj(D)) and q = D conj(D)
        assert eval_psi_closed(CANON_SET, CANON_MEDIUM, pt) == pytest.approx(
            Bx[0, 0] / (1 + abs(D[0, 0]) ** 2))
        assert spectral_radius_q(CANON_SET, CANON_MEDIUM, pt) \
            == pytest.approx(abs(D[0, 0]) ** 2)

    def test_empty_set(self):
        empty = SolitonSet(())
        assert eval_psi_closed(empty, CANON_MEDIUM, ORIGIN) == 0j
        assert spectral_radius_q(empty, CANON_MEDIUM, ORIGIN) == 0.0


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

    @staticmethod
    def tail_set():
        rng = np.random.default_rng(5)
        p = rng.uniform(0.3, 1.5, 3) + 1j * rng.uniform(-1, 1, 3)
        return SolitonSet.from_pairs((pk, 1 + 0j) for pk in p)

    def test_degenerate_point_rejected(self):
        # far in the tail the resolvent conditioning blows past the limit
        with pytest.raises(DegeneratePointError):
            eval_psi_closed(self.tail_set(), CANON_MEDIUM,
                            SpaceTimePoint(30.0, 0.0))

    def test_stack_raises_the_first_failing_points_error(self):
        # x = 600 stops the stack with an overflowing mode; x = 30 before it
        # is degenerate, and its own error is the one raised
        sset = self.tail_set()
        near, far = SpaceTimePoint(30.0, 0.0), SpaceTimePoint(600.0, 0.0)
        with pytest.raises(FieldOverflowError, match=r"mode exponent Re=760 "):
            eval_psi_closed_stack(sset, CANON_MEDIUM, [far])
        with pytest.raises(DegeneratePointError) as got:
            eval_psi_closed_stack(sset, CANON_MEDIUM, [near, far])
        with pytest.raises(DegeneratePointError) as want:
            eval_psi_closed(sset, CANON_MEDIUM, near)
        assert str(got.value) == str(want.value)


class TestSeries:
    def test_order_zero_is_trace_bx(self):
        pt = SpaceTimePoint(-1.0, 0.0)
        sums = series_partial_sums(CANON_SET, CANON_MEDIUM, pt, 0)
        assert sums[0] == pytest.approx(2 * math.exp(-2.0))

    def test_tail_convergence_to_closed(self):
        pt = SpaceTimePoint(-1.0, 0.0)
        closed = eval_psi_closed(CANON_SET, CANON_MEDIUM, pt)
        approx = series_partial_sums(CANON_SET, CANON_MEDIUM, pt, 20)[-1]
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

    def test_empty_set(self):
        sums = series_partial_sums(SolitonSet(()), CANON_MEDIUM, ORIGIN, 4)
        assert sums.tolist() == [0j] * 5

    @pytest.mark.parametrize("sset, lam, pt, order", [
        (SolitonSet.from_pairs([(0.5 + 0.2j, 1.0 + 0.2j),
                                (1.2 - 0.3j, 0.8 - 0.5j)]),
         5e144, SpaceTimePoint(-3.0, -0.3), 3),
        (SolitonSet.from_pairs([(1.0, 1.0)]), 8.0,
         SpaceTimePoint(100.0, 0.0), 2),
    ], ids=["huge-coupling", "far-field"])
    def test_overflowing_partial_sum_raises(self, sset, lam, pt, order):
        # (lam/8)^n is never formed, so the terms stay finite until the
        # series itself leaves double range; no warning before the raise
        with pytest.raises(FieldOverflowError, match=f"order-{order} "):
            series_partial_sums(sset, Medium(1, 1, lam), pt, 20)
        assert np.isfinite(series_partial_sums(sset, Medium(1, 1, lam), pt,
                                               order - 1)).all()

    def test_unit_coupling_matches_matrix_powers_bit_for_bit(self):
        # lam = 8 makes -lam/8 = -1, so the chain's terms are those of
        # (D conj(D))^n with alternating signs, bit for bit
        sset = random_admissible_set(3, 12)
        pt = SpaceTimePoint(-1.5, 0.2)
        term, D = dense_matrices(sset, CANON_MEDIUM, pt)
        want = []
        for n in range(8):
            want.append((-1) ** n * np.trace(term))
            term = term @ (D @ D.conj())
        got = series_partial_sums(sset, CANON_MEDIUM, pt, 7)
        assert got.tolist() == np.cumsum(want).tolist()


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
        D = dense_matrices(sset, CANON_MEDIUM, pt)[1]
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
            D = dense_matrices(sset, CANON_MEDIUM, pt)[1]
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

    @pytest.mark.parametrize("a0", [1e160 * (0.6 - 0.8j),
                                    1e-160 * (0.6 + 0.8j)])
    @pytest.mark.parametrize("lam", [8.0, 0.5])
    def test_extreme_amplitude_matches_engine(self, a0, lam):
        # around the envelope centre xi + eta = 0, where a0**4 leaves double
        # range: an independent witness of the engine's log-domain terms
        s = Soliton(p=0.8 + 0.4j, a0=a0)
        medium = Medium(rho=1.0, sigma=1.0, lam=lam)
        eta = one_soliton_envelope_shift(s, medium)
        assert abs(eta) > 700
        om = dispersion(s.p, medium)
        t = np.linspace(-1.0, 1.0, 5)[:, None]
        x = (2 * om.real * t - eta) / (2 * s.p.real) + np.linspace(-3, 3, 25)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = compiled(SolitonSet((s,)), medium).psi(x, t)
            got = np.array([[one_soliton_closed(s, medium,
                                                SpaceTimePoint(xv, tv))
                             for xv in row] for row, tv in zip(x, t[:, 0])])
        peak = math.sqrt(8 / lam) * s.p.real
        assert np.abs(want).max() == pytest.approx(peak, rel=1e-12)
        assert np.abs(got - want).max() <= 1e-12 * peak

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

    @pytest.mark.parametrize("bounds, message", [
        ((-math.inf, 2.0, 0.0, 0.0), "must be finite"),
        ((math.nan, 2.0, 0.0, 0.0), "must be finite"),  # NaN > x is False
        ((0.0, 1.0, math.nan, math.nan), "must be finite"),
        ((1e308, 1.7e308, 0.0, 0.0), "in magnitude"),  # centre overflows
        ((-1e308, 1e308, 0.0, 0.0), "in magnitude"),  # span overflows
        ((0.0, 1.0, -1.7e308, 0.0), "in magnitude"),
    ])
    def test_bounds_that_overflow_are_rejected(self, bounds, message):
        x_min, x_max, t_min, t_max = bounds
        with pytest.raises(ValueError, match=message):
            GridSpec(x_min, x_max, 5, t_min, t_max, 3)

    def test_largest_accepted_bounds(self):
        half = sys.float_info.max / 2
        g = GridSpec(-half, half, 3, 0.0, 0.0, 1)
        assert np.isfinite(g.xs()).all()
