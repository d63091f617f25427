"""Tests for residual reports, limit reductions, invariance checks, and
collision elasticity."""

import dataclasses
import math

import numpy as np
import pytest

from hirota_trace import verify
from hirota_trace import (
    DispersionPoly,
    EmptyReportError,
    EquationKind,
    GridSpec,
    Medium,
    ResidualReport,
    ResonanceError,
    Soliton,
    SolitonSet,
    SpaceTimePoint,
    UnseparatedEnvelopesError,
    additivity_instance,
    analytic_derivatives_grid,
    collision_metrics,
    group_velocity,
    pi_ratio,
    random_admissible_set,
    residual_at,
    residual_report,
    scaling_invariance_check,
)

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
CANON = SolitonSet((Soliton(p=1 + 0j, a0=complex(math.sqrt(2.0))),))
SMALL_GRID = GridSpec(-6.0, 6.0, 61, -2.0, 2.0, 21)


class TestResidualAt:
    def test_empty_field(self):
        assert residual_at(EquationKind.HIROTA, SolitonSet(()), MEDIUM,
                           SpaceTimePoint(0.3, -0.2)) == 0j

    def test_canonical_pointwise(self):
        for x, t in [(0.0, 0.0), (-1.2, 0.4), (2.0, -1.0)]:
            r = residual_at(EquationKind.HIROTA, CANON, MEDIUM,
                            SpaceTimePoint(x, t))
            assert abs(r) < 1e-10

    def test_kind_medium_mismatch(self):
        with pytest.raises(ValueError):
            residual_at(EquationKind.NLS, CANON, MEDIUM,
                        SpaceTimePoint(0.0, 0.0))
        with pytest.raises(ValueError):
            residual_at(EquationKind.MKDV, CANON, MEDIUM,
                        SpaceTimePoint(0.0, 0.0))


def typed_residual(kind, medium, d):
    """The three residuals as once typed one by one: the reference for the
    single Hirota expression behind residual_at and residual_report."""
    psi = d["psi"]
    absq = np.abs(psi) ** 2
    if kind is EquationKind.HIROTA:
        return (1j * d["psi_t"] + 3j * medium.alpha * absq * d["psi_x"]
                + medium.rho * d["psi_xx"] + 1j * medium.sigma * d["psi_xxx"]
                + medium.delta * absq * psi)
    if kind is EquationKind.NLS:
        return (1j * d["psi_t"] + medium.rho * d["psi_xx"]
                + medium.delta * absq * psi)
    # real-form third-order reduction
    return (d["psi_t"] + 3 * medium.alpha * absq * d["psi_x"]
            + medium.sigma * d["psi_xxx"])


class TestOneResidual:
    GRID = GridSpec(-10.0, 10.0, 201, -2.0, 2.0, 41)
    POINTS = [SpaceTimePoint(0.0, 0.0), SpaceTimePoint(-1.3, 0.7),
              SpaceTimePoint(2.9, -1.6)]

    @pytest.mark.parametrize("n", range(6))
    @pytest.mark.parametrize("kind,medium", [
        (EquationKind.HIROTA, MEDIUM),
        (EquationKind.HIROTA, Medium(rho=0.6, sigma=0.3, lam=2.0)),
        (EquationKind.NLS, Medium(rho=1.0, sigma=0.0, lam=8.0)),
        (EquationKind.NLS, Medium(rho=0.7, sigma=0.0, lam=2.0)),
        (EquationKind.MKDV, Medium(rho=0.0, sigma=1.0, lam=8.0)),
        (EquationKind.MKDV, Medium(rho=0.0, sigma=1.3, lam=4.0))])
    def test_equals_typed_form(self, monkeypatch, kind, medium, n):
        sset = random_admissible_set(n, 60 + n)
        for pt in self.POINTS:
            d = analytic_derivatives_grid(sset, medium, np.asarray(pt.x),
                                          np.asarray(pt.t))
            assert residual_at(kind, sset, medium, pt) == complex(
                typed_residual(kind, medium, d))
        got = residual_report(kind, sset, medium, self.GRID)
        monkeypatch.setattr(verify, "_residual_arrays",
                            lambda medium, d: typed_residual(kind, medium, d))
        want = residual_report(kind, sset, medium, self.GRID)
        for field in dataclasses.fields(ResidualReport):
            assert (getattr(got, field.name)
                    == getattr(want, field.name)), field.name


class TestResidualReport:
    def test_empty_field_report(self):
        rep = residual_report(EquationKind.HIROTA, SolitonSet(()), MEDIUM,
                              SMALL_GRID)
        assert rep.max_abs == 0.0
        assert rep.n_points == SMALL_GRID.nx * SMALL_GRID.nt

    def test_two_soliton_bound(self):
        sset = random_admissible_set(2, 21)
        rep = residual_report(EquationKind.HIROTA, sset, MEDIUM,
                              GridSpec(-10, 10, 201, -5, 5, 101))
        assert rep.max_rel <= 1e-8
        assert rep.rms <= rep.max_abs
        assert rep.n_degenerate == 0

    def test_worst_point_on_grid(self):
        rep = residual_report(EquationKind.HIROTA, CANON, MEDIUM, SMALL_GRID)
        assert rep.worst_point.x in SMALL_GRID.xs()
        assert rep.worst_point.t in SMALL_GRID.ts()

    def test_all_degenerate_raises(self, monkeypatch):
        import hirota_trace.trace_engine as te
        # |f| < CANCEL_TOL * sum_j |term_j| holds at every point once
        # CANCEL_TOL exceeds 1
        monkeypatch.setattr(te, "CANCEL_TOL", 1.0001)
        with pytest.raises(EmptyReportError):
            residual_report(EquationKind.HIROTA, CANON, MEDIUM, SMALL_GRID)


class TestReductions:
    def test_nls_limit(self):
        medium = Medium(rho=1.0, sigma=0.0, lam=8.0)
        sset = random_admissible_set(2, 22)
        rep = residual_report(EquationKind.NLS, sset, medium, SMALL_GRID)
        assert rep.max_rel <= 1e-8

    def test_mkdv_limit_real_field(self):
        medium = Medium(rho=0.0, sigma=1.0, lam=8.0)
        sset = SolitonSet.from_pairs([(0.7, 1.1), (1.2, 0.9)])
        rep = residual_report(EquationKind.MKDV, sset, medium, SMALL_GRID)
        assert rep.max_rel <= 1e-8
        # real parameters give a real field in this limit
        from hirota_trace import analytic_derivatives_grid
        X, T = np.meshgrid(SMALL_GRID.xs(), SMALL_GRID.ts())
        psi = analytic_derivatives_grid(sset, medium, X, T)["psi"]
        assert np.max(np.abs(psi.imag)) <= 1e-10 * np.max(np.abs(psi))


class TestAdditivity:
    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, 1.0), (2.0, 3.0)])
    def test_scaled_media(self, a, b):
        sset = random_admissible_set(2, 23)
        rep = additivity_instance(sset, 8.0, 1.0, 1.0, a, b, SMALL_GRID)
        assert rep.max_rel <= 1e-8

    def test_rejects_degenerate_combination(self):
        with pytest.raises(ValueError):
            additivity_instance(CANON, 8.0, 1.0, 1.0, 0.0, 0.0, SMALL_GRID)


class TestPiRatio:
    LP = DispersionPoly((0j, 0j, -1j, 1 + 0j))  # -iz^2 + z^3

    def test_zero_numerator(self):
        assert pi_ratio(0j, [1 + 0j, 1 + 0j, 1 + 0j], self.LP) == 0j

    def test_hand_checked_denominator(self):
        # L(6) - 3 L(2) = (216 - 36i) - 3(8 - 4i) = 192 - 24i
        got = pi_ratio(192 - 24j, [1 + 0j, 1 + 0j, 1 + 0j], self.LP)
        assert got == pytest.approx(1.0 + 0j, rel=1e-14)

    def test_linear_symbol_resonates(self):
        lp = DispersionPoly((0j, 1 + 0j))
        with pytest.raises(ResonanceError):
            pi_ratio(1 + 0j, [0.5 + 0j, 1 + 0j, 2 + 0j], lp)


class TestScalingInvariance:
    @pytest.mark.parametrize("a,b", [(1.0, 0.0), (0.0, 1.0), (2.0, 3.0)])
    def test_holds_for_hirota_family(self, a, b):
        sset = random_admissible_set(2, 24)
        assert scaling_invariance_check(sset, 8.0, 1.0, 1.0, a, b,
                                        trials=100, seed=42)

    def test_rejects_degenerate_combination(self):
        with pytest.raises(ValueError):
            scaling_invariance_check(CANON, 8.0, 1.0, 1.0, 0.0, 0.0)


class TestRandomAdmissible:
    def test_parameter_ranges(self):
        sset = random_admissible_set(3, 31)
        for s in sset.solitons:
            assert 0.3 <= s.p.real <= 1.5
            assert -1.0 <= s.p.imag <= 1.0
            assert 0.5 <= abs(s.a0) <= 2.0

    def test_seed_reproducibility(self):
        a = random_admissible_set(3, 7)
        b = random_admissible_set(3, 7)
        assert a == b


class TestCollision:
    SEPARATED = SolitonSet.from_pairs(
        [(0.5 + 0.2j, 1.0 + 0.2j), (1.2 - 0.3j, 0.8 - 0.5j)])
    WINDOW = GridSpec(-160.0, 160.0, 4001, 0.0, 0.0, 1)

    def test_group_velocity(self):
        # real p: Omega = -2i p^2 + 4 p^3 => Re(Omega)/Re(p) = 4 p^2
        s = Soliton(p=0.5 + 0j, a0=1 + 0j)
        assert group_velocity(s, MEDIUM) == pytest.approx(1.0)

    def test_elastic_peaks(self):
        m = collision_metrics(self.SEPARATED, MEDIUM, 20.0, self.WINDOW)
        assert m.max_rel_mismatch <= 1e-4
        assert len(m.peaks_before) == len(m.peaks_after) == 2

    def test_requires_two_solitons(self):
        with pytest.raises(ValueError):
            collision_metrics(CANON, MEDIUM, 20.0, self.WINDOW)

    def test_unseparated_envelopes(self):
        # nearly equal group velocities never separate by five widths
        close = SolitonSet.from_pairs(
            [(0.6 + 0.3j, 1.0), (0.61 + 0.31j, 0.9)])
        with pytest.raises(UnseparatedEnvelopesError):
            collision_metrics(close, MEDIUM, 5.0,
                              GridSpec(-60.0, 60.0, 2001, 0.0, 0.0, 1))
