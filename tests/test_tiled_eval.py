"""Tiled separable evaluation of every point set: agreement with an
independent per-point reference (direct sums over every subset pair with
high-precision determinant minors), point sets gathered from unique coordinates, the
exact meaning of the degenerate mask, the real half-sum f, and the bounded
working memory."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import combinations

import mpmath
import numpy as np
import pytest

from hirota_trace import (
    CompiledSolution,
    EquationKind,
    FieldOverflowError,
    GridSpec,
    Medium,
    SolitonSet,
    compiled,
    dispersion,
    random_admissible_set,
    residual_report,
)
from hirota_trace import trace_engine
from hirota_trace.cli import main
from hirota_trace.trace_engine import (
    TILE_POINTS,
    _ALL_ORDERS,
    _ExponentialSum,
)
from test_cli import soliton_config
from test_trace_engine import mpmath_psi

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
FULL_GRID = GridSpec(-10.0, 10.0, 401, -5.0, 5.0, 201)
SEPARATED = SolitonSet.from_pairs(
    [(0.5 + 0.2j, 1.0 + 0.2j), (1.2 - 0.3j, 0.8 - 0.5j)])
ORDERS = {"psi": (0, 0), "psi_x": (1, 0), "psi_xx": (2, 0),
          "psi_xxx": (3, 0), "psi_t": (0, 1)}
NAMES = tuple(ORDERS)

_X, _T = np.meshgrid(np.linspace(-6, 6, 25), np.linspace(-2, 2, 9),
                     indexing="ij")
_SHUFFLE = np.random.default_rng(5).permutation(_X.size)
_RNG = np.random.default_rng(6)
#: point sets of every shape the engine accepts, each gathered from the
#: unique values of its coordinates
POINT_SETS = {
    "1x1": (np.array([[0.3]]), np.array([[-0.2]])),
    "nx1": (np.array([[1.5]]), np.linspace(-2, 2, 9)[None, :]),
    "nt1": (np.linspace(-8, 8, 33)[:, None], np.array([[0.7]])),
    "scalar": (np.asarray(0.4), np.asarray(1.1)),
    "t-major": (np.linspace(-5, 5, 7)[None, :],
                np.linspace(-1, 1, 4)[:, None]),
    "unsorted": (np.array([3.0, -4.0, 0.5, -4.0, 9.0])[:, None],
                 np.array([0.4, -0.9, 0.0])[None, :]),
    "0x5": (np.zeros((0, 1)), np.linspace(-1, 1, 5)[None, :]),
    "empty": (np.zeros(0), np.asarray(0.5)),
    "ij-meshgrid": (_X, _T),
    "xy-meshgrid": (_X.T, _T.T),
    "shuffled": (_X.ravel()[_SHUFFLE], _T.ravel()[_SHUFFLE]),
    "duplicated": (np.tile(_X.ravel()[_SHUFFLE], 2),
                   np.tile(_T.ravel()[_SHUFFLE], 2)),
    "diagonal": (np.linspace(-8, 8, 40), np.linspace(-2, 2, 40)),
    "constant-t": (np.linspace(-3, 3, 41)[::-1], np.zeros(41)),
    "scattered": (_RNG.uniform(-9, 9, 60), _RNG.choice([-1.5, 0.2, 3.0], 60)),
    "3-d": (np.linspace(-3, 3, 6).reshape(2, 3, 1),
            np.linspace(-1, 1, 4).reshape(1, 1, 4)),
}


def _minor_terms(sset: SolitonSet, excess: int) -> tuple:
    """Every pair (S, T) with |S| = |T| + ``excess`` of f (0) or g (1):
    membership rows a, b and c^|T| det(minor)^2, each minor of the Cauchy
    matrix 1 / (p_i + conj(p_j)) (bordered by a column of ones for g) a
    determinant taken by mpmath at 40 digits past the cancellation of close
    p.  (np.linalg.det loses about eps / gap^2 of a minor whose rows and
    columns each hold two p a gap apart: 1e-8 of psi at a gap of 8e-3.)
    A minor that holds a repeated p twice is exactly 0."""
    p = [mpmath.mpc(v) for v in sset.p]
    n = len(p)
    # each pair of p a gap apart in S or in T scales a minor by the gap:
    # up to n (n - 1) factors of the closest gap cancel
    gap = min([abs(u - v) for u, v in combinations(sset.p, 2) if u != v],
              default=1.0)
    dps = 40 + n * (n - 1) * max(0, -math.floor(math.log10(gap)))
    a, b, coef = [], [], []
    with mpmath.workdps(dps):
        for k in range(n + 1 - excess):
            for S in combinations(range(n), k + excess):
                for T in combinations(range(n), k):
                    a.append(np.isin(np.arange(n), S))
                    b.append(np.isin(np.arange(n), T))
                    rows = [[1 / (p[i] + mpmath.conj(p[j])) for j in T]
                            + [1] * excess for i in S]
                    # mpmath's LU raises TypeError on an exact zero pivot
                    repeated = (len({p[i] for i in S}) < len(S)
                                or len({p[j] for j in T}) < len(T))
                    det = (0 if repeated else
                           mpmath.det(mpmath.matrix(rows)) if S else 1)
                    coef.append(complex((MEDIUM.lam / 8) ** k * det ** 2))
    return (np.array(a, dtype=bool).reshape(len(a), n),
            np.array(b, dtype=bool).reshape(len(b), n),
            np.array(coef, dtype=complex))


def _rates_and_coefs(sset: SolitonSet, excess: int) -> tuple:
    """x-rate, t-rate and coefficient of each nonzero term of f (0) or g (1):
    every term is coef * exp(xrate x + trate t)."""
    a, b, gamma = _minor_terms(sset, excess)
    p, a0 = sset.p, sset.a0
    om = np.array([dispersion(pk, MEDIUM) for pk in p], dtype=complex)
    coef = (gamma * np.prod(np.where(a, a0 ** 2, 1), axis=1)
            * np.prod(np.where(b, a0.conj() ** 2, 1), axis=1))
    keep = coef != 0  # a repeated p
    return (2 * (a @ p + b @ p.conj()))[keep], \
        (-2 * (a @ om + b @ om.conj()))[keep], coef[keep]


def _point_sums(terms: tuple, x, t, orders) -> tuple:
    """Jets of one sum of ``terms`` at the flat points x, t, summed directly
    with each point's terms scaled by exp(-s), s the log of its largest
    term: returns the jets, sum |term| and s."""
    xrate, trate, coef = terms
    arg = np.multiply.outer(x, xrate) + np.multiply.outer(t, trate)
    s = np.max(arg.real + np.log(np.abs(coef)), axis=1, initial=-np.inf)
    scaled = coef * np.exp(arg - s[:, None])
    jets = {(i, l): scaled @ (xrate ** i * trate ** l) for i, l in orders}
    return jets, np.abs(scaled).sum(axis=1), s


def per_point(sset: SolitonSet, x, t, orders=_ALL_ORDERS) -> dict:
    """Reference jets on every broadcast point, sharing no code with the
    engine's evaluator: direct sums over every (S, T) pair of f and g with
    coefficients from determinant minors (_minor_terms), and psi's jets by
    Leibniz on g = psi f.  A point is degenerate where
    |f| < CANCEL_TOL * sum |term|."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(t, dtype=float))
    names = [name for name, o in ORDERS.items() if o in orders]
    out = {name: np.empty(x.size, dtype=complex) for name in names}
    out["degenerate"] = np.empty(x.size, dtype=bool)
    f_terms, g_terms = (_rates_and_coefs(sset, excess) for excess in (0, 1))
    xf, tf = x.ravel(), t.ravel()
    for lo in range(0, x.size, 1024):
        sl = slice(lo, lo + 1024)
        fj, total, sf = _point_sums(f_terms, xf[sl], tf[sl], orders)
        gj, _, sg = _point_sums(g_terms, xf[sl], tf[sl], orders)
        fj = {o: v.real for o, v in fj.items()}  # f is real
        out["degenerate"][sl] = (np.abs(fj[(0, 0)])
                                 < trace_engine.CANCEL_TOL * total)
        r = np.exp(sg - sf)
        psi = {}
        for i, l in sorted(orders):
            known = r * gj[(i, l)]
            if l:
                known = known - psi[(0, 0)] * fj[(0, 1)]
            for k in range(i):
                known = known - math.comb(i, k) * psi[(k, 0)] * fj[(i - k, 0)]
            psi[(i, l)] = known / fj[(0, 0)]
        for name in names:
            out[name][sl] = psi[ORDERS[name]]
    return {k: v.reshape(x.shape) for k, v in out.items()}


def assert_agree(tiled: dict, ref: dict) -> None:
    assert np.array_equal(tiled["degenerate"], ref["degenerate"])
    good = ~ref["degenerate"]
    for key in ref:
        if key == "degenerate":
            continue
        got, want = tiled[key][good], ref[key][good]
        tol = 1e-11 if key == "psi" else 1e-9
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert err.max(initial=0) <= tol, key


class TestAgreementWithPerPointPath:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_acceptance_grid(self, n):
        sset = random_admissible_set(n, seed=100 + n)
        engine = compiled(sset, MEDIUM)
        xs, ts = FULL_GRID.xs(), FULL_GRID.ts()
        tiled = engine.derivatives(xs[:, None], ts[None, :],
                                   check_degenerate=False)
        assert tiled["psi"].shape == (len(xs), len(ts))
        assert not tiled["degenerate"].any()
        # every other point of each axis keeps the reference cheap at N = 5
        sub = {k: v[::2, ::2] for k, v in tiled.items()}
        assert_agree(sub, per_point(sset, xs[::2, None], ts[None, ::2]))
        rep = residual_report(EquationKind.HIROTA, sset, MEDIUM, FULL_GRID)
        assert rep.max_rel <= 1e-8
        assert rep.n_degenerate == 0

    @pytest.mark.parametrize("sset", [SEPARATED, random_admissible_set(3, 9)],
                             ids=["criterion-9-pair", "n3"])
    @pytest.mark.parametrize("t", [-20.0, 0.0, 20.0])
    def test_collision_window(self, sset, t):
        engine = compiled(sset, MEDIUM)
        xs = GridSpec(-160.0, 160.0, 4001, 0.0, 0.0, 1).xs()
        tiled = engine.derivatives(xs, t, check_degenerate=False)
        assert tiled["psi"].shape == xs.shape
        assert_agree(tiled, per_point(sset, xs, t))
        psi = engine.psi(xs, t)
        assert np.abs(psi - tiled["psi"]).max() <= 1e-11 * max(
            1.0, np.abs(psi).max())

    def test_grid_straddling_tile_boundaries(self):
        sset = random_admissible_set(3, 11)
        engine = compiled(sset, MEDIUM)
        xs = np.linspace(-40.0, 40.0, 2 * TILE_POINTS + 5)
        ts = np.linspace(-6.0, 6.0, TILE_POINTS + 3)
        # cut by point count on x and by the scale spread on t
        x_tiles, t_tiles = engine._tile_slices(xs, ts)
        assert len(x_tiles) > 2 and len(t_tiles) > 2
        tiled = engine.derivatives(xs[:, None], ts[None, :],
                                   check_degenerate=False)
        assert_agree(tiled, per_point(sset, xs[:, None], ts[None, :]))

    @pytest.mark.parametrize("x,t", list(POINT_SETS.values()),
                             ids=list(POINT_SETS))
    def test_small_and_reordered_grids(self, x, t):
        sset = random_admissible_set(4, 12)
        tiled = compiled(sset, MEDIUM).derivatives(x, t,
                                                   check_degenerate=False)
        ref = per_point(sset, x, t)
        shape = np.broadcast(x, t).shape
        assert tiled["psi"].shape == ref["psi"].shape == shape
        assert_agree(tiled, ref)


def gathered(engine: CompiledSolution, x, t) -> dict:
    """derivatives() of every broadcast point from axes calls on unique
    sorted coordinates: one call on the grid of unique x by unique t when it
    has no more cells than there are points, else one call per distinct t
    on the unique x there; values gathered back by searchsorted."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(t, dtype=float))
    ux, ut = np.unique(x), np.unique(t)
    if ux.size * ut.size <= x.size:
        grid = engine.derivatives(ux[:, None], ut[None, :],
                                  check_degenerate=False)
        xi, ti = np.searchsorted(ux, x), np.searchsorted(ut, t)
        return {k: v[xi, ti] for k, v in grid.items()}
    out = {}
    for tk in ut:
        at = t == tk
        axis = np.unique(x[at])
        row = engine.derivatives(axis, tk, check_degenerate=False)
        for k, v in row.items():
            out.setdefault(k, np.empty(x.shape, v.dtype))[at] = \
                v[np.searchsorted(axis, x[at])]
    return out


class TestGatheredPointSets:
    @pytest.mark.parametrize("x,t", list(POINT_SETS.values()),
                             ids=list(POINT_SETS))
    def test_bitwise_equal_to_unique_axes_calls(self, x, t):
        engine = compiled(random_admissible_set(4, 12), MEDIUM)
        got = engine.derivatives(x, t, check_degenerate=False)
        want = gathered(engine, x, t)
        assert set(got) == set(want)
        for key in want:
            assert got[key].shape == np.broadcast(x, t).shape
            assert got[key].dtype == want[key].dtype
            assert got[key].tobytes() == want[key].tobytes(), key

    @pytest.mark.parametrize("x,t", list(POINT_SETS.values()),
                             ids=list(POINT_SETS))
    def test_never_more_cells_than_points(self, monkeypatch, x, t):
        cells = []
        tiled = CompiledSolution._tiled

        def spy(self, xs, ts, orders):
            cells.append(len(xs) * len(ts))
            return tiled(self, xs, ts, orders)

        monkeypatch.setattr(CompiledSolution, "_tiled", spy)
        compiled(random_admissible_set(4, 12), MEDIUM).derivatives(x, t)
        assert cells and sum(cells) <= np.broadcast(x, t).size

    def test_meshgrid_at_found_points_matches_mpmath(self):
        # the points of the 401 x 201 grid where the per-point evaluator of
        # earlier versions was 3.7e-13 to 7.5e-13 from mpmath (dps 800)
        sset = random_admissible_set(5, seed=105)
        X, T = np.meshgrid(FULL_GRID.xs(), FULL_GRID.ts(), indexing="ij")
        psi = compiled(sset, MEDIUM).psi(X, T)
        for i, j in [(397, 30), (398, 30), (399, 30), (400, 30)]:
            want = mpmath_psi(sset, MEDIUM, X[i, j], T[i, j], dps=800)
            assert abs(psi[i, j] - want) <= 2e-13 * max(1.0, abs(want))

    def test_scattered_points_memory_is_bounded(self):
        rng = np.random.default_rng(0)
        x, t = rng.uniform(-10, 10, 10 ** 4), rng.uniform(-5, 5, 10 ** 4)
        engine = compiled(random_admissible_set(5, seed=105), MEDIUM)
        tracemalloc.start()
        try:
            engine.psi(x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20


#: the order subsets whose jets must carry the bits of the all-orders call
SUBSET_ORDERS = [[(0, 0), (1, 0)], [(0, 0), (1, 0), (2, 0)],
                 [(0, 0), (0, 1)], [(0, 0), (1, 0), (2, 0), (0, 1)]]


def _bits_differ(got: np.ndarray, want: np.ndarray) -> int:
    """Number of values whose bytes differ between two arrays of one shape
    and dtype."""
    assert got.shape == want.shape and got.dtype == want.dtype
    a = np.ascontiguousarray(got).view(np.uint8).reshape(got.size, -1)
    b = np.ascontiguousarray(want).view(np.uint8).reshape(want.size, -1)
    return int(np.count_nonzero((a != b).any(axis=1)))


def _acceptance_axes(n: int) -> tuple:
    """The engine of random_admissible_set(n, 100 + n) and the axes of the
    401 x 201 acceptance grid."""
    engine = compiled(random_admissible_set(n, 100 + n), MEDIUM)
    return engine, FULL_GRID.xs()[:, None], FULL_GRID.ts()[None, :]


class TestOneProductPerJet:
    """Every jet is its own tile product on the same gathered grid, so its
    bits do not depend on the other orders requested or on the layout of
    the points."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_psi_equals_derivatives_psi(self, n):
        engine, x, t = _acceptance_axes(n)
        psi = engine.psi(x, t, check_degenerate=False)
        full = engine.derivatives(x, t, check_degenerate=False)
        assert _bits_differ(psi, full["psi"]) == 0

    @pytest.mark.parametrize("n", range(1, 6))
    def test_order_subsets_equal_all_orders_call(self, n):
        engine, x, t = _acceptance_axes(n)
        full = engine.derivatives(x, t, check_degenerate=False)
        for orders in SUBSET_ORDERS:
            part = engine.derivatives(x, t, orders=orders,
                                      check_degenerate=False)
            assert len(part) == len(orders) + 1
            for key, v in part.items():
                assert _bits_differ(v, full[key]) == 0, (orders, key)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_xy_meshgrid_equals_transposed_axes_call(self, n):
        engine, x, t = _acceptance_axes(n)
        X, T = np.meshgrid(x.ravel(), t.ravel(), indexing="xy")
        mesh = engine.derivatives(X, T, check_degenerate=False)
        axes = engine.derivatives(x, t, check_degenerate=False)
        t_major = engine.derivatives(x.T, t.T, check_degenerate=False)
        for key, v in axes.items():
            assert _bits_differ(mesh[key], v.T) == 0, key
            assert _bits_differ(t_major[key], v.T) == 0, key

    @pytest.mark.parametrize("x,t", [(0.4, 1.1),
                                     (np.asarray(0.4), np.asarray(1.1))],
                             ids=["float", "0-d"])
    def test_scalar_point_gives_0d_arrays(self, x, t):
        engine = compiled(random_admissible_set(3, 103), MEDIUM)
        values = {"psi": engine.psi(x, t),
                  "degenerate_mask": engine.degenerate_mask(x, t)}
        values.update(engine.derivatives(x, t))
        assert set(values) == {"psi", "degenerate_mask", "degenerate",
                               *NAMES}
        for key, v in values.items():
            assert type(v) is np.ndarray and v.shape == (), key


class TestCoordinateGuards:
    """Non-finite coordinates are a ValueError, and finite ones whose
    exponents overflow at a tile centre a FieldOverflowError, both raised
    before any evaluation; RuntimeWarnings are errors in this suite."""

    @pytest.mark.parametrize("axis", [[np.nan], [-1.0, np.inf],
                                      [-np.inf, 1.0]],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_axis_value_is_rejected(self, axis):
        engine = compiled(random_admissible_set(3, 7), MEDIUM)
        x, t = np.array(axis)[:, None], np.array([0.0, 0.5])[None, :]
        for xs, ts in ((x, t), (t.T, x.T)):
            with pytest.raises(ValueError, match="must be finite"):
                engine.derivatives(xs, ts, check_degenerate=False)
            with pytest.raises(ValueError, match="must be finite"):
                engine.psi(xs, ts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "inf", "minus-inf"])
    def test_non_finite_gathered_value_is_rejected(self, bad):
        engine = compiled(random_admissible_set(3, 7), MEDIUM)
        x, t = np.linspace(2.0, -2.0, 5), np.linspace(-1.0, 1.0, 5)
        x[2] = bad
        for xs, ts in ((x, t), (t, x)):
            with pytest.raises(ValueError, match="must be finite"):
                engine.derivatives(xs, ts, check_degenerate=False)
            with pytest.raises(ValueError, match="must be finite"):
                engine.psi(xs, ts)

    def test_axes_route_checks_only_the_axes(self, monkeypatch):
        checked = []
        guard = trace_engine._require_finite

        def spy(xs, ts):
            checked.append(xs.size + ts.size)
            return guard(xs, ts)

        monkeypatch.setattr(trace_engine, "_require_finite", spy)
        compiled(random_admissible_set(2, 7), MEDIUM).psi(
            FULL_GRID.xs()[:, None], FULL_GRID.ts()[None, :])
        assert checked == [401 + 201]

    @pytest.mark.parametrize("x", [[5e307, 8e307], [-8e307, 1.0]])
    def test_overflowing_tile_centre_is_field_overflow(self, x):
        # |G| = 4 for the term of f with S = T = {1}
        engine = compiled(SolitonSet.from_pairs([(1.0, math.sqrt(2.0))]),
                          MEDIUM)
        with pytest.raises(FieldOverflowError, match="outside double range"):
            engine.psi(np.array(x), 0.0)

    def test_largest_finite_centre_still_evaluates(self):
        # past half the largest double the guard forms the exponent at the
        # extreme tile centres: at 3/4 of the coordinate whose product with
        # the largest rate overflows nothing is raised, at twice it the guard
        # raises
        engine = compiled(random_admissible_set(2, 3), MEDIUM)
        edge = sys.float_info.max / engine._x_reach
        engine.derivatives(np.array([0.0, 0.75 * edge]), 0.0,
                           check_degenerate=False)
        with pytest.raises(FieldOverflowError):
            engine.derivatives(np.array([0.0, min(2 * edge, 8e307)]), 0.0,
                               check_degenerate=False)

#: a 7 x 5 tensor grid and three scattered points (one x axis per distinct t)
ORDER_POINTS = {
    "tiled": (np.linspace(-3, 3, 7)[:, None], np.linspace(-1, 1, 5)[None, :]),
    "scattered": (np.array([0.3, -1.0, 2.0]), np.array([0.1, 0.5, -0.2])),
}


class TestOrders:
    @pytest.mark.parametrize("path", list(ORDER_POINTS))
    @pytest.mark.parametrize("orders, message", [
        ([(0, 0), (2, 0)], r"order \(2, 0\) needs order \(1, 0\)"),
        ([(2, 0)], r"order \(2, 0\) needs order \(0, 0\)"),
        ([(1, 0)], r"order \(1, 0\) needs order \(0, 0\)"),
        ([(0, 0), (1, 0), (3, 0)], r"order \(3, 0\) needs order \(2, 0\)"),
        ([(0, 1)], r"order \(0, 1\) needs order \(0, 0\)"),
        ([(0, 0), (1, 1)], r"unknown derivative order \(1, 1\)"),
        ([(0, 0), [1, 0]], r"unknown derivative order \[1, 0\]"),
        ([], r"every request needs order \(0, 0\), got \[\]"),
    ])
    def test_invalid_orders_raise_value_error(self, path, orders, message):
        engine = compiled(SEPARATED, MEDIUM)
        with pytest.raises(ValueError, match=message):
            engine.derivatives(*ORDER_POINTS[path], orders=orders)

    @pytest.mark.parametrize("path", list(ORDER_POINTS))
    def test_closed_subset_matches_full_request(self, path):
        engine = compiled(SEPARATED, MEDIUM)
        full = engine.derivatives(*ORDER_POINTS[path])
        part = engine.derivatives(*ORDER_POINTS[path],
                                  orders=[(0, 1), (0, 0)])
        assert set(part) == {"psi", "psi_t", "degenerate"}
        for key in ("psi", "psi_t"):
            np.testing.assert_allclose(part[key], full[key], rtol=1e-13)


class TestDegenerateMask:
    @pytest.mark.parametrize("tol", [0.99, 0.9, 0.7])
    def test_tiled_mask_equals_per_point_mask(self, monkeypatch, tol):
        # |f| <= sum_j |term_j|, so a CANCEL_TOL just below 1 flags the
        # points where the terms of f cancel the most
        monkeypatch.setattr(trace_engine, "CANCEL_TOL", tol)
        sset = random_admissible_set(4, 8)
        engine = CompiledSolution(sset, MEDIUM)
        grid = GridSpec(-10.0, 10.0, 201, -5.0, 5.0, 51)
        xs, ts = grid.xs(), grid.ts()
        tiled = engine.derivatives(xs[:, None], ts[None, :],
                                   check_degenerate=False)
        mask = engine.degenerate_mask(xs[:, None], ts[None, :])
        ref = per_point(sset, xs[:, None], ts[None, :])
        assert np.array_equal(mask, ref["degenerate"])
        assert_agree(tiled, ref)
        bad = ref["degenerate"]
        assert 0 < np.count_nonzero(bad) < bad.size
        assert all(np.isnan(tiled[k][bad]).all() for k in NAMES)
        assert not any(np.isnan(tiled[k][~bad]).any() for k in NAMES)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_field_bytes_match_per_point_path(self, tmp_path, monkeypatch,
                                                  fmt):
        # the kept (x, t) rows are those of the per-point reference, and psi
        # agrees with it to 1e-11
        monkeypatch.setattr(trace_engine, "CANCEL_TOL", 0.99)
        sset = random_admissible_set(3, 7)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "medium": {"rho": 1.0, "sigma": 1.0, "lambda": 8.0},
            "solitons": [{"p": [s.p.real, s.p.imag],
                          "a0": [s.a0.real, s.a0.imag]}
                         for s in sset.solitons],
            "grid": {"x": [-10.0, 10.0, 201], "t": [-5.0, 5.0, 51]}}))

        out = tmp_path / "field"
        rc = main(["field", "--config", str(cfg), "--format", fmt,
                   "--out", str(out)])
        text = out.read_text()
        if fmt == "csv":
            rows = [r.split(",")[:4] for r in text.splitlines()[1:]]
        else:
            rows = [[r["x"], r["t"], r["re_psi"], r["im_psi"]]
                    for r in json.loads(text)]
        rows = np.array(rows, dtype=float).reshape(-1, 4)
        # rows are t-major
        grid = GridSpec(-10.0, 10.0, 201, -5.0, 5.0, 51)
        xs, ts = grid.xs(), grid.ts()
        ref = per_point(sset, xs[None, :], ts[:, None], [(0, 0)])
        keep = ~ref["degenerate"]
        assert rc == 2
        assert 0 < np.count_nonzero(keep) < 201 * 51
        X, T = np.broadcast_arrays(xs[None, :], ts[:, None])
        assert np.array_equal(rows[:, 0], X[keep])
        assert np.array_equal(rows[:, 1], T[keep])
        want = ref["psi"][keep]
        err = np.abs(rows[:, 2] + 1j * rows[:, 3] - want)
        assert err.max() <= 1e-11 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_clean_on_acceptance_grid_per_point(self, n):
        sset = random_admissible_set(n, seed=100 + n)
        xs, ts = FULL_GRID.xs(), FULL_GRID.ts()
        # every third point of each axis keeps the reference cheap
        X, T = np.meshgrid(xs[::3], ts[::3], indexing="ij")
        assert not per_point(sset, X, T, [(0, 0)])["degenerate"].any()
        assert not compiled(sset, MEDIUM).degenerate_mask(X, T).any()

    def test_clean_for_near_coincident_pair(self):
        # a0_2^2 close to -a0_1^2 makes the one-soliton terms of f cancel
        sset = SolitonSet.from_pairs([(0.8 + 0.3j, 1.0),
                                      (0.8 + 1e-7 + 0.3j, 1.001j)])
        engine = CompiledSolution(sset, MEDIUM)
        xs, ts = FULL_GRID.xs(), FULL_GRID.ts()
        assert not engine.degenerate_mask(xs[:, None], ts[None, :]).any()
        xs, ts = xs[::4], ts[::4]
        kappa = max((total / np.abs(fj[(0, 0)])).max()
                    for *_, fj, _, total in engine._f.tile_jets(
                        xs, ts, *engine._tile_slices(xs, ts), [(0, 0)],
                        abs_sum=True))
        # f cancels strongly here, yet far less than 1 / CANCEL_TOL
        assert 1e5 < kappa < 1e-3 / trace_engine.CANCEL_TOL
        X, T = np.meshgrid(xs, ts, indexing="ij")
        assert not engine.degenerate_mask(X, T).any()
        assert not per_point(sset, X, T, [(0, 0)])["degenerate"].any()


def _full_f(sset: SolitonSet) -> _ExponentialSum:
    """f over every pair (S, T), each Cauchy minor from _minor_terms, passed
    by its log."""
    a, b, coef = _minor_terms(sset, 0)
    om = np.array([dispersion(pk, MEDIUM) for pk in sset.p])
    modes = np.stack((2 * np.log(sset.a0), 2 * sset.p, -2 * om), axis=1)
    return _ExponentialSum(a, b, np.log(coef), modes)


class TestRealF:
    @pytest.mark.parametrize("n,seed", [(1, 40), (2, 41), (3, 42), (4, 43),
                                        (5, 44)])
    def test_tiled_f_is_real_and_at_least_one(self, n, seed):
        sset = random_admissible_set(n, seed)
        engine = CompiledSolution(sset, MEDIUM)
        xs = np.linspace(-30.0, 30.0, 121)
        ts = np.linspace(-8.0, 8.0, 41)
        log_f = np.empty((len(xs), len(ts)))
        for xsl, tsl, fj, s, _ in engine._f.tile_jets(
                xs, ts, *engine._tile_slices(xs, ts), [(0, 0)]):
            assert np.isrealobj(fj[(0, 0)]) and (fj[(0, 0)] > 0).all()
            log_f[xsl, tsl] = s + np.log(fj[(0, 0)])
        assert log_f.min() >= math.log1p(-1e-12)
        # the full sum over all (S, T) is real and equals the half-sum
        xs, ts, log_f = xs[::6], ts[::4], log_f[::6, ::4]
        tiles = engine._tile_slices(xs, ts)
        full = _full_f(sset).tile_jets(xs, ts, *tiles, [(0, 0)], abs_sum=True)
        half = engine._f.tile_jets(xs, ts, *tiles, [(0, 0)], abs_sum=True)
        for (xsl, tsl, fj, s, total), (*_, s_half, total_half) in zip(full,
                                                                      half):
            f = fj[(0, 0)]
            assert np.max(np.abs(f.imag) / np.abs(f)) <= 1e-12
            assert np.max(np.abs(s + np.log(f.real) - log_f[xsl, tsl])) \
                <= 1e-11
            # the weights of the half-sum count every term of f once in
            # sum |term|
            assert np.max(np.abs(s_half + np.log(total_half)
                                 - s - np.log(total))) <= 1e-12


def test_residual_report_of_empty_set():
    # f and g of the empty set have one and no term
    rep = residual_report(EquationKind.HIROTA, SolitonSet(()), MEDIUM,
                          FULL_GRID)
    assert rep.max_rel == 0.0
    assert rep.n_points == FULL_GRID.nx * FULL_GRID.nt
    assert rep.n_degenerate == 0


def test_residual_report_memory_is_bounded():
    sset = random_admissible_set(5, seed=105)
    compiled(sset, MEDIUM)
    tracemalloc.start()
    try:
        residual_report(EquationKind.HIROTA, sset, MEDIUM, FULL_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2 ** 20


def _field_and_residual(cfg_path, out_path, blas_threads):
    """``field`` rows and the ``residual`` report of one process whose
    OpenBLAS runs on ``blas_threads`` threads."""
    script = ("import sys\n"
              "from hirota_trace.cli import main\n"
              "assert main(['field', '--config', sys.argv[1],"
              " '--out', sys.argv[2]]) == 0\n"
              "assert main(['residual', '--config', sys.argv[1]]) == 0\n")
    proc = subprocess.run(
        [sys.executable, "-c", script, cfg_path, out_path],
        capture_output=True, text=True, check=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads)))
    rows = np.loadtxt(out_path, delimiter=",", skiprows=1)
    return rows, json.loads(proc.stdout)


def test_blas_thread_count_moves_results_by_last_ulps_only(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(soliton_config(5, 105, x=(-20.0, 20.0, 401),
                                             t=(-5.0, 5.0, 201))))
    one, rep1 = _field_and_residual(str(cfg), str(tmp_path / "one.csv"), 1)
    two, rep2 = _field_and_residual(str(cfg), str(tmp_path / "two.csv"), 2)
    assert len(one) == 401 * 201 - rep1["n_degenerate"]
    np.testing.assert_array_equal(one[:, :2], two[:, :2])
    psi1 = one[:, 2] + 1j * one[:, 3]
    psi2 = two[:, 2] + 1j * two[:, 3]
    assert np.all(np.abs(psi1 - psi2) <= 1e-14 * np.maximum(1, np.abs(psi1)))
    for key in ("passed", "n_points", "n_degenerate", "worst_point"):
        assert rep1[key] == rep2[key]
    assert abs(rep1["max_abs"] - rep2["max_abs"]) \
        <= 1e-12 * max(1, rep1["normalizer"])
