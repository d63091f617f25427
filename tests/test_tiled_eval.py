"""Tiled separable evaluation of tensor grids: agreement with the per-point
path, the exact meaning of the degenerate mask, the real half-sum f, and the
bounded working memory."""

import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from hirota_trace import (
    CompiledSolution,
    EquationKind,
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

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
FULL_GRID = GridSpec(-10.0, 10.0, 401, -5.0, 5.0, 201)
SEPARATED = SolitonSet.from_pairs(
    [(0.5 + 0.2j, 1.0 + 0.2j), (1.2 - 0.3j, 0.8 - 0.5j)])
NAMES = ("psi", "psi_x", "psi_xx", "psi_xxx", "psi_t")


def per_point(engine: CompiledSolution, x, t, orders=_ALL_ORDERS) -> dict:
    """Reference values from the per-point path on every broadcast point."""
    x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(t, dtype=float))
    out = engine._pointwise(x.ravel(), t.ravel(), orders)
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
        # every other point of each axis keeps the reference cheap at N = 5
        sub = {k: v[::2, ::2] for k, v in tiled.items()}
        assert_agree(sub, per_point(engine, xs[::2, None], ts[None, ::2]))
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
        assert_agree(tiled, per_point(engine, xs, t))
        psi = engine.psi(xs, t)
        assert np.abs(psi - tiled["psi"]).max() <= 1e-11 * max(
            1.0, np.abs(psi).max())

    def test_grid_straddling_tile_boundaries(self):
        engine = compiled(random_admissible_set(3, 11), MEDIUM)
        xs = np.linspace(-40.0, 40.0, 2 * TILE_POINTS + 5)
        ts = np.linspace(-6.0, 6.0, TILE_POINTS + 3)
        # cut by point count on x and by the scale spread on t
        x_tiles, t_tiles = engine._tile_slices(xs, ts)
        assert len(x_tiles) > 2 and len(t_tiles) > 2
        tiled = engine.derivatives(xs[:, None], ts[None, :],
                                   check_degenerate=False)
        assert_agree(tiled, per_point(engine, xs[:, None], ts[None, :]))

    @pytest.mark.parametrize("x,t", [
        (np.array([[0.3]]), np.array([[-0.2]])),            # 1 x 1
        (np.array([[1.5]]), np.linspace(-2, 2, 9)[None, :]),  # nx = 1
        (np.linspace(-8, 8, 33)[:, None], np.array([[0.7]])),  # nt = 1
        (np.asarray(0.4), np.asarray(1.1)),                   # scalars
        (np.linspace(-5, 5, 7)[None, :], np.linspace(-1, 1, 4)[:, None]),
        (np.array([3.0, -4.0, 0.5, -4.0, 9.0])[:, None],      # unsorted
         np.array([0.4, -0.9, 0.0])[None, :]),
    ], ids=["1x1", "nx1", "nt1", "scalar", "t-major", "unsorted"])
    def test_small_and_reordered_grids(self, x, t):
        engine = compiled(random_admissible_set(4, 12), MEDIUM)
        tiled = engine.derivatives(x, t, check_degenerate=False)
        ref = per_point(engine, x, t)
        shape = np.broadcast(x, t).shape
        assert tiled["psi"].shape == ref["psi"].shape == shape
        assert_agree(tiled, ref)


#: a 7 x 5 tensor grid (tiled path) and three scattered points (per point)
ORDER_POINTS = {
    "tiled": (np.linspace(-3, 3, 7)[:, None], np.linspace(-1, 1, 5)[None, :]),
    "per-point": (np.array([0.3, -1.0, 2.0]), np.array([0.1, 0.5, -0.2])),
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
    @pytest.mark.parametrize("tol", [1.0001, 0.9, 0.3])
    def test_tiled_mask_equals_per_point_mask(self, monkeypatch, tol):
        monkeypatch.setattr(trace_engine, "CANCEL_TOL", tol)
        engine = CompiledSolution(random_admissible_set(4, 8), MEDIUM)
        grid = GridSpec(-10.0, 10.0, 201, -5.0, 5.0, 51)
        xs, ts = grid.xs(), grid.ts()
        rechecked = []
        pointwise = CompiledSolution._pointwise

        def spy(self, x, t, orders):
            rechecked.append(len(x))
            return pointwise(self, x, t, orders)

        monkeypatch.setattr(CompiledSolution, "_pointwise", spy)
        tiled = engine.derivatives(xs[:, None], ts[None, :],
                                   check_degenerate=False)
        mask = engine.degenerate_mask(xs[:, None], ts[None, :])
        monkeypatch.setattr(CompiledSolution, "_pointwise", pointwise)
        ref = per_point(engine, xs[:, None], ts[None, :])
        assert np.array_equal(mask, ref["degenerate"])
        assert_agree(tiled, ref)
        bad = ref["degenerate"]
        assert all(np.isnan(tiled[k][bad]).all() for k in NAMES)
        if tol < 0.5:
            # the screen passes most points and rechecks the rest
            assert 0 < rechecked[0] < grid.nx * grid.nt
        else:
            assert bad.any()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_cli_field_bytes_match_per_point_path(self, tmp_path, monkeypatch,
                                                  fmt):
        monkeypatch.setattr(trace_engine, "CANCEL_TOL", 1.0001)
        sset = random_admissible_set(3, 7)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "medium": {"rho": 1.0, "sigma": 1.0, "lambda": 8.0},
            "solitons": [{"p": [s.p.real, s.p.imag],
                          "a0": [s.a0.real, s.a0.imag]}
                         for s in sset.solitons],
            "grid": {"x": [-10.0, 10.0, 201], "t": [-5.0, 5.0, 51]}}))

        def run(name):
            out = tmp_path / name
            rc = main(["field", "--config", str(cfg), "--format", fmt,
                       "--out", str(out)])
            return rc, out.read_bytes()

        tiled = run("tiled")
        derivatives = CompiledSolution.derivatives

        def materialized(self, x, t, *args, **kwargs):
            x, t = np.broadcast_arrays(np.asarray(x, dtype=float),
                                       np.asarray(t, dtype=float))
            return derivatives(self, x, t, *args, **kwargs)

        monkeypatch.setattr(CompiledSolution, "derivatives", materialized)
        reference = run("per-point")
        assert tiled[0] == reference[0] == 2
        assert tiled[1] == reference[1]


def _full_f(sset: SolitonSet) -> _ExponentialSum:
    """f over every pair (S, T), each Cauchy minor from np.linalg.det."""
    p = sset.p
    n = len(p)
    A = 1 / (p[:, None] + p.conj()[None, :])
    a, b, coef = [], [], []
    for k in range(n + 1):
        for S in combinations(range(n), k):
            for T in combinations(range(n), k):
                a.append(np.isin(np.arange(n), S))
                b.append(np.isin(np.arange(n), T))
                minor = np.linalg.det(A[np.ix_(S, T)]) if k else 1.0
                coef.append((MEDIUM.lam / 8) ** k * minor ** 2)
    om = np.array([dispersion(pk, MEDIUM) for pk in p])
    return _ExponentialSum(np.array(a), np.array(b), np.array(coef), p,
                           sset.a0, om)


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
        X, T = np.meshgrid(xs[::6], ts[::4], indexing="ij")
        full, s = _full_f(sset).scaled_jets(X.ravel(), T.ravel(), [(0, 0)])
        f = full[(0, 0)]
        assert np.max(np.abs(f.imag) / np.abs(f)) <= 1e-12
        assert np.max(np.abs(s + np.log(f.real) - log_f[::6, ::4].ravel())) \
            <= 1e-11


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


def test_blas_runs_on_one_thread_and_count_is_restored(monkeypatch):
    calls = trace_engine._ONE_BLAS_THREAD._calls
    if calls is None:
        pytest.skip("NumPy's bundled OpenBLAS is not loaded")
    get, put = calls
    before = get()
    put(2)
    seen = []
    tiled = CompiledSolution._tiled

    def spy(self, xs, ts, orders):
        seen.append(get())
        if len(seen) > 1:
            raise ValueError("stop")
        return tiled(self, xs, ts, orders)

    try:
        monkeypatch.setattr(CompiledSolution, "_tiled", spy)
        engine = CompiledSolution(SEPARATED, MEDIUM)
        xs = np.linspace(-10.0, 10.0, 41)
        engine.derivatives(xs[:, None], xs[None, :])
        assert get() == 2
        with pytest.raises(ValueError):
            engine.derivatives(xs[:, None], xs[None, :])
        assert get() == 2
        assert seen == [1, 1]
    finally:
        put(before)
