"""Acceptance suite: the nine headline claims, each printing one verdict line.

Every tolerance here is pinned; see the module docstrings for how each
quantity is computed.  Criterion 3's final-error bound is checked at points
with convergence ratio q <= 0.25: at order 20 the best possible relative
error is ~q^21/(1-q), which only reaches 1e-12 for q below ~0.26, so the
bound is mathematically unattainable closer to q = 0.5.  The geometric-rate
part of the claim is still exercised up to q ~ 0.45.
"""

import math
import time

import numpy as np
import pytest

from hirota_trace import (
    EquationKind,
    GridSpec,
    Medium,
    Soliton,
    SolitonSet,
    SpaceTimePoint,
    additivity_instance,
    analytic_derivatives,
    analytic_derivatives_grid,
    collision_metrics,
    eval_psi_closed,
    fd_derivatives,
    identity_cubic,
    identity_quadratic,
    one_soliton_closed,
    psi3_crosscheck,
    random_admissible_set,
    recursion_residual,
    residual_report,
    run_identity_suite,
    scaling_invariance_check,
    series_partial_sums,
    spectral_radius_q,
)
from hirota_trace.core import _one_soliton_values
from hirota_trace.identities import GaussianRational

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
CANON_SOLITON = Soliton(p=1 + 0j, a0=complex(math.sqrt(2.0)))
CANON = SolitonSet((CANON_SOLITON,))
FULL_GRID = GridSpec(-10.0, 10.0, 401, -5.0, 5.0, 201)
HALF_GRID = GridSpec(-10.0, 10.0, 201, -5.0, 5.0, 101)


def verdict(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_exact_solution_residual():
    worst = 0.0
    slowest = 0.0
    for n in (1, 2, 3):
        sset = random_admissible_set(n, seed=100 + n)
        start = time.perf_counter()
        rep = residual_report(EquationKind.HIROTA, sset, MEDIUM, FULL_GRID)
        elapsed = time.perf_counter() - start
        worst = max(worst, rep.max_rel)
        slowest = max(slowest, elapsed)
        assert rep.n_degenerate == 0
    ok = worst <= 1e-8 and slowest <= 10.0
    verdict("criterion 1 (Hirota residual, N=1..3, 401x201)", ok,
            f"max_rel={worst:.3e} (<=1e-8), slowest={slowest:.2f}s (<=10s)")
    assert ok


def test_criterion_2_one_soliton_closed_form():
    X, T = np.meshgrid(FULL_GRID.xs(), FULL_GRID.ts(), indexing="ij")
    trace_vals = analytic_derivatives_grid(CANON, MEDIUM, X, T)["psi"]
    closed_vals = _one_soliton_values(CANON_SOLITON, MEDIUM, X, T)
    mask = np.abs(trace_vals) > 1e-8
    rel = np.max(np.abs(closed_vals - trace_vals)[mask]
                 / np.abs(trace_vals)[mask])
    # spot-check the dense solve directly at a seeded point sample
    rng = np.random.default_rng(2026)
    spot = 0.0
    for _ in range(300):
        pt = SpaceTimePoint(float(rng.uniform(-10, 10)),
                            float(rng.uniform(-5, 5)))
        a = eval_psi_closed(CANON, MEDIUM, pt)
        b = one_soliton_closed(CANON_SOLITON, MEDIUM, pt)
        if abs(a) > 1e-8:
            spot = max(spot, abs(a - b) / abs(a))
    xs = FULL_GRID.xs()
    sech_err = np.max(np.abs(
        _one_soliton_values(CANON_SOLITON, MEDIUM, xs, np.zeros_like(xs))
        - 1.0 / np.cosh(2 * xs)))
    peak = abs(one_soliton_closed(CANON_SOLITON, MEDIUM,
                                  SpaceTimePoint(0.0, 0.0)) - 1.0)
    ok = rel <= 1e-12 and spot <= 1e-12 and sech_err <= 1e-12 \
        and peak <= 1e-12
    verdict("criterion 2 (one-soliton closed form)", ok,
            f"grid rel={rel:.3e}, spot rel={spot:.3e}, "
            f"sech err={sech_err:.3e}, peak err={peak:.3e} (all <=1e-12)")
    assert ok


def test_criterion_3_series_closed_equivalence():
    # ratio check at q up to ~0.45; final-error check where attainable
    ratio_ok = True
    for x in (-0.75, -0.5, -0.2):  # q = e^{4x}: 0.050, 0.135, 0.449
        pt = SpaceTimePoint(x, 0.0)
        q = spectral_radius_q(CANON, MEDIUM, pt)
        closed = eval_psi_closed(CANON, MEDIUM, pt)
        errs = np.abs(series_partial_sums(CANON, MEDIUM, pt, 8) - closed)
        ratios = errs[1:] / errs[:-1]
        ratio_ok &= bool(np.all(np.abs(ratios - q) <= 0.1 * q))
    final_ok = True
    for x in (-1.0, -0.5, -0.35):  # q <= 0.25
        pt = SpaceTimePoint(x, 0.0)
        assert spectral_radius_q(CANON, MEDIUM, pt) <= 0.25
        closed = eval_psi_closed(CANON, MEDIUM, pt)
        err = abs(complex(series_partial_sums(CANON, MEDIUM, pt, 20)[-1])
                  - closed)
        final_ok &= err <= 1e-12 * abs(closed)
    q_core = spectral_radius_q(CANON, MEDIUM, SpaceTimePoint(0.0, 0.0))
    core_ok = abs(q_core - 1.0) <= 1e-10
    closed_core = eval_psi_closed(CANON, MEDIUM, SpaceTimePoint(0.0, 0.0))
    core_ok &= abs(closed_core - 1.0) <= 1e-12
    ok = ratio_ok and final_ok and core_ok
    verdict("criterion 3 (series vs closed form)", ok,
            f"geometric ratios within 10% of q: {ratio_ok}; order-20 error "
            f"<=1e-12 rel at q<=0.25: {final_ok}; core q={q_core:.12f} "
            f"(1 +- 1e-10) with closed solve intact: {core_ok}")
    assert ok


def test_criterion_4_exact_identities():
    start = time.perf_counter()
    gr = GaussianRational.of
    lhs_c, rhs_c = identity_cubic([gr(1), gr(2), gr(3)])
    lhs_q, rhs_q = identity_quadratic([gr(1), gr(2), gr(3)])
    gates = lhs_c == rhs_c == gr(180) and lhs_q == rhs_q == gr(30)
    report = run_identity_suite(n_max=3, trials=100, seed=42)
    elapsed = time.perf_counter() - start
    ok = gates and report.failures == 0 and elapsed <= 5.0
    verdict("criterion 4 (exact identities)", ok,
            f"gates 180=180 & 30=30: {gates}; failures={report.failures}/"
            f"{report.checks}; runtime={elapsed:.2f}s (<=5s)")
    assert ok


def test_criterion_5_limit_reductions():
    nls_medium = Medium(rho=1.0, sigma=0.0, lam=8.0)
    nls_rep = residual_report(EquationKind.NLS, random_admissible_set(2, 105),
                              nls_medium, HALF_GRID)
    mkdv_medium = Medium(rho=0.0, sigma=1.0, lam=8.0)
    mkdv_set = SolitonSet.from_pairs([(0.6, 1.2), (1.3, 0.8)])
    mkdv_rep = residual_report(EquationKind.MKDV, mkdv_set, mkdv_medium,
                               HALF_GRID)
    X, T = np.meshgrid(HALF_GRID.xs(), HALF_GRID.ts())
    psi = analytic_derivatives_grid(mkdv_set, mkdv_medium, X, T)["psi"]
    im_rel = np.max(np.abs(psi.imag)) / np.max(np.abs(psi))
    ok = nls_rep.max_rel <= 1e-8 and mkdv_rep.max_rel <= 1e-8 \
        and im_rel <= 1e-10
    verdict("criterion 5 (NLS and mKdV reductions)", ok,
            f"NLS max_rel={nls_rep.max_rel:.3e}, "
            f"mKdV max_rel={mkdv_rep.max_rel:.3e} (<=1e-8), "
            f"Im/max={im_rel:.3e} (<=1e-10)")
    assert ok


def test_criterion_6_additivity():
    sset = random_admissible_set(2, 106)
    worst = 0.0
    worst_rec = 0.0
    invariant = True
    for a, b in ((1.0, 0.0), (0.0, 1.0), (2.0, 3.0), (0.5, 5.0)):
        rep = additivity_instance(sset, 8.0, 1.0, 1.0, a, b, HALF_GRID)
        worst = max(worst, rep.max_rel)
        invariant &= scaling_invariance_check(sset, 8.0, 1.0, 1.0, a, b,
                                              trials=100, seed=42)
        # the series of the combined medium closes the hierarchy at every
        # order: additivity at series level
        combined = Medium(rho=a * 1.0, sigma=b * 1.0, lam=8.0)
        worst_rec = max(worst_rec, *(
            recursion_residual(sset, combined, SpaceTimePoint(0.4, -0.3), n)
            for n in range(1, 9)))
    ok = worst <= 1e-8 and invariant and worst_rec <= 1e-12
    verdict("criterion 6 (additivity instances)", ok,
            f"worst max_rel={worst:.3e} (<=1e-8); "
            f"coefficient-ratio invariance over 100 tuples each: {invariant}; "
            f"recursion n<=8 in each combined medium={worst_rec:.3e} "
            f"(<=1e-12)")
    assert ok


def test_criterion_7_cross_representation():
    worst_cross = 0.0
    for n in (1, 2, 3):
        sset = random_admissible_set(n, 107 + n)
        direct, trace = psi3_crosscheck(sset, MEDIUM,
                                        SpaceTimePoint(-0.3, 0.2))
        worst_cross = max(worst_cross,
                          abs(direct - trace) / max(1.0, abs(trace)))
    worst_rec = 0.0
    for order in (1, 2):
        for n in (1, 2):
            sset = random_admissible_set(n, 110 + n)
            worst_rec = max(worst_rec, recursion_residual(
                sset, MEDIUM, SpaceTimePoint(0.4, -0.3), order))
    # every order n <= 8, N <= 5, in the Hirota, NLS, mKdV and a mixed medium
    worst_all = 0.0
    for medium in (MEDIUM, Medium(1.0, 0.0, 2.0), Medium(0.0, 1.3, 4.0),
                   Medium(0.7, 0.2, 1.0)):
        for n in range(1, 6):
            sset = random_admissible_set(n, 120 + n)
            worst_all = max(worst_all, *(recursion_residual(
                sset, medium, SpaceTimePoint(-0.3, 0.2), order)
                for order in range(1, 9)))
    ok = worst_cross <= 1e-12 and worst_rec <= 1e-10 and worst_all <= 1e-12
    verdict("criterion 7 (multi-sum vs trace)", ok,
            f"third-order crosscheck={worst_cross:.3e} (<=1e-12); "
            f"hierarchy recursion={worst_rec:.3e} (<=1e-10); "
            f"every order n<=8, N<=5, 4 media={worst_all:.3e} (<=1e-12)")
    assert ok


def test_criterion_8_derivative_oracle():
    sset = random_admissible_set(2, 108)
    pt = SpaceTimePoint(0.7, -0.5)
    exact = analytic_derivatives(sset, MEDIUM, pt).as_dict()
    errs = []
    for h in (1e-2, 5e-3):
        fd = fd_derivatives(sset, MEDIUM, pt, h_x=h, h_t=h).as_dict()
        errs.append({k: abs(fd[k] - exact[k]) for k in exact})
    orders = {k: math.log2(errs[0][k] / errs[1][k])
              for k in ("psi_x", "psi_xx", "psi_xxx", "psi_t")}
    ok = all(v >= 3.5 for v in orders.values())
    detail = ", ".join(f"{k}={v:.2f}" for k, v in orders.items())
    verdict("criterion 8 (FD convergence order >= 3.5)", ok, detail)
    assert ok


def test_criterion_9_collision_elasticity():
    sset = SolitonSet.from_pairs(
        [(0.5 + 0.2j, 1.0 + 0.2j), (1.2 - 0.3j, 0.8 - 0.5j)])
    window = GridSpec(-160.0, 160.0, 4001, 0.0, 0.0, 1)
    metrics = collision_metrics(sset, MEDIUM, 20.0, window)
    ok = metrics.max_rel_mismatch <= 1e-4
    verdict("criterion 9 (collision elasticity)", ok,
            f"peak mismatch across t=+-20: {metrics.max_rel_mismatch:.3e} "
            f"(<=1e-4)")
    assert ok
