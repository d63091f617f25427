"""Tests for the compiled determinant-ratio evaluator, including an
independent high-precision oracle built with mpmath."""

import math
import warnings
from fractions import Fraction
from itertools import combinations

import mpmath
import numpy as np
import pytest

from hirota_trace import (
    CompiledSolution,
    DegeneratePointError,
    EquationKind,
    GaussianRational,
    GridSpec,
    Medium,
    Soliton,
    SolitonSet,
    SpaceTimePoint,
    compiled,
    dispersion,
    eval_psi_closed,
    one_soliton_closed,
    one_soliton_envelope_shift,
    phi,
    random_admissible_set,
    residual_report,
)
from hirota_trace.trace_engine import _cauchy_binet_terms

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
CANON = SolitonSet((Soliton(p=1 + 0j, a0=complex(math.sqrt(2.0))),))


def mpmath_psi(sset: SolitonSet, medium: Medium, x: float, t: float,
               dps: int = 250) -> complex:
    """High-precision reference: dense solve of the trace formula."""
    with mpmath.workdps(dps):
        n = len(sset)
        p = [mpmath.mpc(s.p) for s in sset.solitons]
        om = [mpmath.mpc(dispersion(s.p, medium)) for s in sset.solitons]
        ph = [mpmath.mpc(s.a0) * mpmath.exp(p[k] * x - om[k] * t)
              for k, s in enumerate(sset.solitons)]
        D = mpmath.matrix(n, n)
        Bx = mpmath.matrix(n, n)
        for m in range(n):
            for q in range(n):
                D[m, q] = ph[m] * mpmath.conj(ph[q]) / (p[m] + mpmath.conj(p[q]))
                Bx[m, q] = ph[m] * ph[q]
        Db = mpmath.matrix(n, n)
        for m in range(n):
            for q in range(n):
                Db[m, q] = mpmath.conj(D[m, q])
        M = mpmath.eye(n) + (medium.lam / 8) * (D * Db)
        tr = mpmath.mpc(0)
        for k in range(n):
            col = mpmath.matrix([Bx[m, k] for m in range(n)])
            tr += mpmath.lu_solve(M, col)[k]
        return complex(tr)


def exact_det(rows: list[list[GaussianRational]]) -> GaussianRational:
    """Determinant by Gaussian elimination in exact rational arithmetic."""
    m = [list(r) for r in rows]
    det = GaussianRational.of(1)
    for j in range(len(m)):
        piv = next((i for i in range(j, len(m)) if m[i][j].re or m[i][j].im),
                   None)
        if piv is None:
            return GaussianRational.of(0)
        if piv != j:
            m[j], m[piv] = m[piv], m[j]
            det = -det
        det = det * m[j][j]
        for i in range(j + 1, len(m)):
            r = m[i][j] / m[j][j]
            m[i] = [u - r * v for u, v in zip(m[i], m[j])]
    return det


def exact_cauchy_binet(p: np.ndarray, coupling: float, excess: int) -> dict:
    """Reference coefficients of f (excess 0) or g (excess 1), keyed by the
    subset pair (S, T) of the monomial z^S w^T: the Cauchy-Binet minors
    c^|T| det(conj(A)[T,S]; 1^T) det(A[S,T] | 1), bordered only for g,
    evaluated exactly from the double-precision inputs."""
    n = len(p)
    one = GaussianRational.of(1)
    pg = [GaussianRational(Fraction(v.real), Fraction(v.imag)) for v in p]
    A = [[one / (pg[m] + pg[q].conjugate()) for q in range(n)]
         for m in range(n)]
    c = GaussianRational.of(Fraction(coupling))
    out = {}
    for k in range(n + 1 - excess):
        for S in combinations(range(n), k + excess):
            for T in combinations(range(n), k):
                right = [[A[s][t] for t in T] + [one] * excess for s in S]
                left = [[A[t][s].conjugate() for s in S] for t in T] \
                    + [[one] * len(S)] * excess
                out[frozenset(S), frozenset(T)] = complex(
                    c ** k * exact_det(left) * exact_det(right))
    return out


def _bit_index(subset: frozenset) -> int:
    return sum(1 << int(k) for k in subset)


class TestCauchyBinetCoefficients:
    @pytest.mark.parametrize("n,seed", [(1, 30), (2, 31), (3, 32), (3, 33),
                                        (4, 34), (4, 35)])
    @pytest.mark.parametrize("lam", [8.0, 3.0])
    def test_matches_exact_minors(self, n, seed, lam):
        p = random_admissible_set(n, seed).p
        for excess, count in ((0, (math.comb(2 * n, n) + 2 ** n) // 2),
                              (1, math.comb(2 * n, n - 1))):
            want = exact_cauchy_binet(p, lam / 8, excess)
            if not excess:
                # f is real: the (T, S) minor is the conjugate of the (S, T)
                # one, so only S <= T (by bit index) is kept, twice off the
                # diagonal
                for (S, T), w in want.items():
                    assert abs(want[T, S] - w.conjugate()) <= 1e-13 * abs(w)
                want = {(S, T): w * (1 if S == T else 2)
                        for (S, T), w in want.items()
                        if _bit_index(S) <= _bit_index(T)}
            a, b, log_gamma = _cauchy_binet_terms(p, math.log(lam / 8),
                                                  excess)
            got = {(frozenset(np.flatnonzero(s)), frozenset(np.flatnonzero(t))):
                   np.exp(c) for s, t, c in zip(a, b, log_gamma)}
            assert len(log_gamma) == len(got) == count
            assert got.keys() == want.keys()
            for key, w in want.items():
                assert abs(got[key] - w) <= 1e-13 * abs(w)


class TestAgainstDenseSolve:
    @pytest.mark.parametrize("n,seed", [(1, 0), (2, 1), (3, 2)])
    def test_moderate_region_agreement(self, n, seed):
        sset = random_admissible_set(n, seed)
        engine = compiled(sset, MEDIUM)
        rng = np.random.default_rng(seed + 100)
        compared = 0
        for _ in range(40):
            x = float(rng.uniform(-4, 4))
            t = float(rng.uniform(-1.5, 1.5))
            pt = SpaceTimePoint(x, t)
            try:
                direct = eval_psi_closed(sset, MEDIUM, pt)
            except DegeneratePointError:
                continue  # dense solve is ill-conditioned there; engine isn't
            # the dense solve loses ~cond(M)*eps digits of its own
            ph = np.array([phi(s, MEDIUM, pt) for s in sset.solitons])
            D = np.outer(ph, ph.conj()) / (sset.p[:, None] + sset.p.conj())
            M = np.eye(n) + (MEDIUM.lam / 8) * D @ D.conj()
            rel = max(1e-11, 1e-14 * np.linalg.cond(M))
            via_engine = complex(engine.psi(np.asarray(x), np.asarray(t)))
            assert via_engine == pytest.approx(direct, rel=rel, abs=1e-13)
            compared += 1
        assert compared >= 15

    def test_canonical_profile(self):
        engine = compiled(CANON, MEDIUM)
        xs = np.linspace(-3, 3, 41)
        got = engine.psi(xs, np.zeros_like(xs))
        want = 1.0 / np.cosh(2 * xs)
        assert np.max(np.abs(got - want)) < 1e-13


class TestFarField:
    @pytest.mark.parametrize("n,seed", [(2, 3), (3, 4)])
    def test_matches_high_precision_oracle(self, n, seed):
        sset = random_admissible_set(n, seed)
        engine = compiled(sset, MEDIUM)
        # points where the dense double-precision solve has long since failed
        for x, t in [(12.0, 0.0), (-15.0, 2.0), (20.0, -4.0), (8.0, 5.0)]:
            want = mpmath_psi(sset, MEDIUM, x, t)
            got = complex(engine.psi(np.asarray(x), np.asarray(t)))
            scale = max(abs(want), 1e-300)
            # exponent arguments reach ~60 here, so double-precision phase
            # error alone contributes ~1e-10 relative
            assert abs(got - want) / scale < 1e-9

    def test_dense_solve_degenerates_where_engine_succeeds(self):
        sset = random_admissible_set(3, 4)
        pt = SpaceTimePoint(20.0, -4.0)
        with pytest.raises(DegeneratePointError):
            eval_psi_closed(sset, MEDIUM, pt)
        engine = compiled(sset, MEDIUM)
        val = complex(engine.psi(np.asarray(pt.x), np.asarray(pt.t)))
        assert np.isfinite(val.real) and np.isfinite(val.imag)


class TestDerivativeJets:
    def test_even_symmetry_at_peak(self):
        engine = compiled(CANON, MEDIUM)
        d = engine.derivatives(np.asarray(0.0), np.asarray(0.0))
        assert abs(d["psi_x"]) < 1e-13
        assert complex(d["psi_xx"]) == pytest.approx(-4.0 + 0j, abs=1e-12)

    def test_closed_form_derivatives(self):
        # psi = sech(2x) at t=0: check all x-jets against the closed form
        engine = compiled(CANON, MEDIUM)
        x = 0.37
        d = engine.derivatives(np.asarray(x), np.asarray(0.0))
        s, th = 1 / math.cosh(2 * x), math.tanh(2 * x)
        assert complex(d["psi"]) == pytest.approx(s, rel=1e-12)
        assert complex(d["psi_x"]) == pytest.approx(-2 * s * th, rel=1e-12)
        assert complex(d["psi_xx"]) == pytest.approx(
            4 * s * (th * th - s * s) + 0j, rel=1e-12)
        assert complex(d["psi_xxx"]) == pytest.approx(
            -8 * s * th * (th * th - 5 * s * s) + 0j, rel=1e-11)

    def test_time_derivative_via_fd(self):
        engine = compiled(CANON, MEDIUM)
        h = 1e-5
        x = np.asarray(0.4)
        plus = complex(engine.psi(x, np.asarray(h)))
        minus = complex(engine.psi(x, np.asarray(-h)))
        d = engine.derivatives(x, np.asarray(0.0))
        assert complex(d["psi_t"]) == pytest.approx((plus - minus) / (2 * h),
                                                    rel=1e-8)


class TestEdgeCases:
    def test_empty_set_is_zero(self):
        engine = compiled(SolitonSet(()), MEDIUM)
        xs = np.linspace(-1, 1, 5)
        assert np.all(engine.psi(xs, xs) == 0)
        assert not engine.degenerate_mask(xs, xs).any()

    def test_degenerate_mask_clean_for_admissible_sets(self):
        sset = random_admissible_set(3, 9)
        engine = compiled(sset, MEDIUM)
        X, T = np.meshgrid(np.linspace(-10, 10, 81), np.linspace(-5, 5, 41))
        assert not engine.degenerate_mask(X, T).any()

    def test_compilation_is_memoized(self):
        assert compiled(CANON, MEDIUM) is compiled(CANON, MEDIUM)


class TestCoincidentWavenumbers:
    @pytest.mark.parametrize("dp", [0.0, 1e-6])
    def test_compiles_cleanly_and_matches_oracle(self, dp):
        sset = SolitonSet.from_pairs([(1 + 0.2j, 1.0),
                                      (1 + dp + 0.2j, 0.6 - 0.3j),
                                      (0.7 - 0.3j, 0.8)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = CompiledSolution(sset, MEDIUM)
            for x, t in [(0.0, 0.0), (1.3, -0.4), (-2.5, 0.7), (6.0, 1.0)]:
                got = complex(engine.psi(np.asarray(x), np.asarray(t)))
                want = mpmath_psi(sset, MEDIUM, x, t)
                assert abs(got - want) <= 1e-11 * max(abs(want), 1e-300)


#: the largest translation error relative to max(1, |psi|) that
#: TestLogDomainTerms allows: its sweep's worst is 3.3e-11, in x and in t, a
#: margin of 3 (the error grows with kappa_f times the largest exponent)
TRANSLATION_TOL = 1e-10


def translated(sset: SolitonSet, axis: str, exponent: float
               ) -> tuple[SolitonSet, float]:
    """(shifted, d): the set whose field at (x - d, t) (``axis`` 'x') or at
    (x, t - d) (``axis`` 't') is the field of ``sset`` at (x, t), each a0_k
    times exp(p_k d) or exp(-Omega_k d).  d is a multiple of 1/8 with
    max_k |p_k d| or max_k |Omega_k d| at most |exponent|, so that on axes
    of step 1/8 the shifted coordinates are exact."""
    om = np.array([dispersion(pk, MEDIUM) for pk in sset.p])
    rate = sset.p if axis == "x" else -om
    d = math.trunc(exponent / np.abs(rate).max() * 8) / 8
    return SolitonSet.from_pairs(zip(sset.p, sset.a0 * np.exp(rate * d))), d


class TestLogDomainTerms:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_translation_moves_the_field(self, n):
        # the shifted sets' coefficients reach exp(+-2770), far past double
        # range
        xs = np.linspace(-10.0, 10.0, 161)[:, None]
        ts = np.linspace(-2.0, 2.0, 33)[None, :]
        for seed in range(100 + 10 * n, 103 + 10 * n):
            sset = random_admissible_set(n, seed)
            want = compiled(sset, MEDIUM).psi(xs, ts)
            for axis in "xt":
                for exponent in (-200, -100, -40, 40, 100, 200):
                    shifted, d = translated(sset, axis, exponent)
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        got = CompiledSolution(shifted, MEDIUM).psi(
                            xs - d * (axis == "x"), ts - d * (axis == "t"))
                    err = np.abs(got - want) / np.maximum(1, np.abs(want))
                    assert err.max() <= TRANSLATION_TOL, (seed, axis, exponent)

    def test_tiny_amplitudes_keep_every_term(self):
        # down to a0^20 * 1e-400: a test on the coefficient's double value
        # would drop 16 of the f terms and 5 of the g terms
        sset = random_admissible_set(5, 105)
        tiny = SolitonSet.from_pairs(zip(sset.p, sset.a0 * 1e-20))
        engine = CompiledSolution(tiny, MEDIUM)
        assert len(engine._f.log_coef) == (math.comb(10, 5) + 2 ** 5) // 2
        assert len(engine._g.log_coef) == math.comb(10, 4)

    def test_coupling_below_eight_times_the_least_double(self):
        # lam / 8 rounds to 0 for lam = 1e-323, log lam - log 8 does not;
        # the envelope centre, where (lam / 8) |phi|^4 ~ 1, sits near x = 187
        tiny = Medium(rho=1.0, sigma=1.0, lam=1e-323)
        s = Soliton(p=1 + 0.3j, a0=0.8 + 0.2j)
        eta = one_soliton_envelope_shift(s, tiny)
        assert eta == pytest.approx(-373.99, abs=0.01)
        compiled(random_admissible_set(3, 1), tiny)
        t = 0.4
        om = dispersion(s.p, tiny)
        centre = (2 * om.real * t - eta) / (2 * s.p.real)
        xs = np.linspace(centre - 3, centre + 3, 13)
        got = compiled(SolitonSet((s,)), tiny).psi(xs, t)
        want = np.array([one_soliton_closed(s, tiny, SpaceTimePoint(x, t))
                         for x in xs])
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_repeated_p_drops_the_pairs_holding_both_copies(self):
        p = [0.7 + 0.2j, 1.1 - 0.4j, 0.7 + 0.2j, 0.9 + 0.5j]
        sset = SolitonSet.from_pairs(zip(p, [1.0, 0.5j, 0.8 - 0.3j, 1.2]))
        subsets = [frozenset(c) for k in range(5)
                   for c in combinations(range(4), k)]
        copies = frozenset({0, 2})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            engine = CompiledSolution(sset, MEDIUM)
            for excess, terms in ((0, engine._f), (1, engine._g)):
                a, b, log_gamma = _cauchy_binet_terms(sset.p, 0.0, excess)
                got = {(frozenset(np.flatnonzero(s)),
                        frozenset(np.flatnonzero(t))) for s, t in zip(a, b)}
                want = {(S, T) for S in subsets for T in subsets
                        if len(S) == len(T) + excess
                        and (excess or _bit_index(S) <= _bit_index(T))
                        and not (copies <= S or copies <= T)}
                assert got == want
                assert len(log_gamma) == len(terms.log_coef) == len(want)
                assert np.isfinite(log_gamma).all()


class TestSixSolitons:
    def test_terms_oracle_and_residual(self):
        sset = random_admissible_set(6, 36)
        engine = compiled(sset, MEDIUM)
        assert len(engine._f.log_coef) == (924 + 2 ** 6) // 2  # S <= T
        assert len(engine._g.log_coef) == 792
        for x, t in [(0.0, 0.0), (1.5, -0.5), (-2.0, 0.3)]:
            got = complex(engine.psi(np.asarray(x), np.asarray(t)))
            want = mpmath_psi(sset, MEDIUM, x, t)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1.0)
        rep = residual_report(EquationKind.HIROTA, sset, MEDIUM,
                              GridSpec(-8, 8, 41, -2, 2, 21))
        assert rep.max_rel <= 1e-8
        assert rep.n_degenerate == 0
