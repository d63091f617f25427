"""Tests for analytic derivatives and the finite-difference oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

from hirota_trace import (
    DegeneratePointError,
    FieldOverflowError,
    Medium,
    Soliton,
    SolitonSet,
    SpaceTimePoint,
    analytic_derivatives,
    eval_psi_closed,
    fd_derivatives,
    random_admissible_set,
)
from hirota_trace.calculus import (
    STENCIL_D1,
    STENCIL_D2,
    STENCIL_D3,
    DerivativeBundle,
)

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
CANON = SolitonSet((Soliton(p=1 + 0j, a0=complex(math.sqrt(2.0))),))
ORIGIN = SpaceTimePoint(0.0, 0.0)


class TestStencil:
    def test_first_derivative_weights(self):
        # classic 5-point: (1, -8, 0, 8, -1) / 12
        w = np.array(STENCIL_D1.weights) * 12
        assert np.allclose(w, [1, -8, 0, 8, -1])

    def test_orders(self):
        assert STENCIL_D1.order == 4
        assert STENCIL_D2.order == 4
        assert STENCIL_D3.order == 4

    def test_apply_on_exponential(self):
        h = 1e-3
        samples = [math.exp(o * h) for o in STENCIL_D2.offsets]
        val = STENCIL_D2.apply(samples, h)
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("stencil,numerators,divisor", [
        (STENCIL_D1, (1, -8, 0, 8, -1), 12),
        (STENCIL_D2, (-1, 16, -30, 16, -1), 12),
        (STENCIL_D3, (1, -8, 13, 0, -13, 8, -1), 8)])
    def test_weights_are_rationals_rounded_once(self, stencil, numerators,
                                                divisor):
        assert stencil.weights == tuple(float(Fraction(n, divisor))
                                        for n in numerators)
        half = len(numerators) // 2
        assert stencil.offsets == tuple(range(-half, half + 1))

    def test_odd_derivative_centre_weights_are_zero(self):
        assert STENCIL_D1.weights[2] == 0.0
        assert STENCIL_D3.weights[3] == 0.0

    @pytest.mark.parametrize("stencil", [STENCIL_D1, STENCIL_D2, STENCIL_D3])
    def test_moment_conditions(self, stencil):
        # exact over the rationals: sum_k w_k o_k^j = d! [j == d] for
        # j < d + order, the monomials a 4th-order stencil differentiates
        # exactly
        for j in range(stencil.derivative + stencil.order):
            moment = sum(Fraction(w) * o ** j for w, o
                         in zip(stencil.weights, stencil.offsets))
            want = math.factorial(j) if j == stencil.derivative else 0
            assert abs(moment - want) < 1e-14, (j, float(moment))


class TestAnalyticDerivatives:
    def test_empty_set_all_zero(self):
        bundle = analytic_derivatives(SolitonSet(()), MEDIUM, ORIGIN)
        assert all(v == 0j for v in bundle.as_dict().values())

    def test_peak_symmetry(self):
        bundle = analytic_derivatives(CANON, MEDIUM, ORIGIN)
        assert abs(bundle.psi_x) < 1e-13
        assert bundle.psi_xx == pytest.approx(-4.0 + 0j, abs=1e-12)

    def test_matches_fd_oracle_with_expected_order(self):
        sset = random_admissible_set(2, 11)
        pt = SpaceTimePoint(0.0, 0.0)
        exact = analytic_derivatives(sset, MEDIUM, pt).as_dict()
        errs = []
        for h in (1e-2, 5e-3):
            fd = fd_derivatives(sset, MEDIUM, pt, h_x=h, h_t=h).as_dict()
            errs.append({k: abs(fd[k] - exact[k]) for k in exact})
        for key in ("psi_x", "psi_xx", "psi_xxx", "psi_t"):
            order = math.log2(errs[0][key] / errs[1][key])
            assert order >= 3.5, f"{key}: observed order {order:.2f}"


class TestFdDerivatives:
    def test_sech_second_derivative(self):
        bundle = fd_derivatives(CANON, MEDIUM, ORIGIN, h_x=1e-3, h_t=1e-3)
        assert bundle.psi_xx == pytest.approx(-4.0 + 0j, abs=1e-6)

    def test_richardson_factor_for_psi_x(self):
        sset = random_admissible_set(2, 12)
        pt = SpaceTimePoint(-0.8, 0.5)
        exact = analytic_derivatives(sset, MEDIUM, pt).psi_x
        e1 = abs(fd_derivatives(sset, MEDIUM, pt, h_x=2e-2).psi_x - exact)
        e2 = abs(fd_derivatives(sset, MEDIUM, pt, h_x=1e-2).psi_x - exact)
        assert 12 <= e1 / e2 <= 20

    def test_rejects_nonpositive_steps(self):
        with pytest.raises(ValueError):
            fd_derivatives(CANON, MEDIUM, ORIGIN, h_x=0.0)

    def test_mixed_consistency(self):
        # one-sided FD of the analytic psi_x path reproduces psi_xx
        pt = SpaceTimePoint(0.3, 0.1)
        h = 1e-4
        b0 = analytic_derivatives(CANON, MEDIUM, pt)
        b1 = analytic_derivatives(CANON, MEDIUM, SpaceTimePoint(pt.x + h, pt.t))
        approx = (b1.psi_x - b0.psi_x) / h
        assert abs(approx - b0.psi_xx) < 1e-3 * max(1.0, abs(b0.psi_xx))


def per_point_fd(sset, medium, pt, h_x, h_t) -> DerivativeBundle:
    """The oracle's stencils on one eval_psi_closed call per sample, in the
    order x5, x7, t5: the reference for the stacked solve."""
    x5 = [eval_psi_closed(sset, medium, SpaceTimePoint(pt.x + o * h_x, pt.t))
          for o in STENCIL_D1.offsets]
    x7 = [eval_psi_closed(sset, medium, SpaceTimePoint(pt.x + o * h_x, pt.t))
          for o in STENCIL_D3.offsets]
    t5 = [eval_psi_closed(sset, medium, SpaceTimePoint(pt.x, pt.t + o * h_t))
          for o in STENCIL_D1.offsets]
    return DerivativeBundle(
        psi=x5[2], psi_x=STENCIL_D1.apply(x5, h_x),
        psi_xx=STENCIL_D2.apply(x5, h_x), psi_xxx=STENCIL_D3.apply(x7, h_x),
        psi_t=STENCIL_D1.apply(t5, h_t))


def _outcome(oracle, *args):
    """The bundle's bytes, or the type and message of the error raised."""
    try:
        bundle = oracle(*args)
    except (DegeneratePointError, FieldOverflowError) as exc:
        return type(exc), str(exc)
    return np.array(list(bundle.as_dict().values()), dtype=complex).tobytes()


class TestStackedSolve:
    @pytest.mark.parametrize("n", range(6))
    def test_bitwise_equal_to_per_point_solves(self, n):
        rng = np.random.default_rng(40 + n)
        for medium in (MEDIUM, Medium(1.0, 0.0, 2.0), Medium(0.0, 0.5, 1.0)):
            sset = random_admissible_set(n, int(rng.integers(2 ** 31)))
            for _ in range(4):
                pt = SpaceTimePoint(float(rng.uniform(-6, 6)),
                                    float(rng.uniform(-1, 1)))
                for h in (1e-3, 1e-2):
                    args = (sset, medium, pt, h, h)
                    assert (_outcome(fd_derivatives, *args)
                            == _outcome(per_point_fd, *args))

    def test_first_stencil_point_past_cond_limit_raises(self):
        # a set whose cond(M) passes COND_LIMIT between x = 0 and x = 30
        # (see test_core's degenerate point); pt is placed so that the 5-point
        # x stencil is clean and only the last point of the 7-point one,
        # x + 3h, is past the limit
        rng = np.random.default_rng(5)
        p = rng.uniform(0.3, 1.5, 3) + 1j * rng.uniform(-1, 1, 3)
        sset = SolitonSet.from_pairs((pk, 1 + 0j) for pk in p)

        def degenerate(x):
            try:
                eval_psi_closed(sset, MEDIUM, SpaceTimePoint(x, 0.0))
            except DegeneratePointError:
                return True
            return False

        lo, hi = 0.0, 30.0
        assert not degenerate(lo) and degenerate(hi)
        h = 1e-3
        while hi - lo > h / 8:
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if degenerate(mid) else (mid, hi)
        pt = SpaceTimePoint(hi - 2.5 * h, 0.0)
        assert not any(degenerate(pt.x + o * h) for o in range(-3, 3))
        assert degenerate(pt.x + 3 * h)
        with pytest.raises(DegeneratePointError) as got:
            fd_derivatives(sset, MEDIUM, pt, h_x=h, h_t=h)
        with pytest.raises(DegeneratePointError) as want:
            eval_psi_closed(sset, MEDIUM, SpaceTimePoint(pt.x + 3 * h, 0.0))
        assert str(got.value) == str(want.value)

    def test_overflow_names_the_first_stencil_point(self):
        sset = random_admissible_set(3, 4)
        pt = SpaceTimePoint(300.0, 0.0)
        with pytest.raises(FieldOverflowError) as got:
            fd_derivatives(sset, MEDIUM, pt)
        with pytest.raises(FieldOverflowError) as want:
            eval_psi_closed(sset, MEDIUM, SpaceTimePoint(pt.x - 2e-3, 0.0))
        assert str(got.value) == str(want.value)
