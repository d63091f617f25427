"""The residual report reduces the engine's tiles as they are evaluated; these
tests hold it to the whole-grid reduction it replaced."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from hirota_trace import (
    EmptyReportError,
    EquationKind,
    FieldOverflowError,
    GridSpec,
    Medium,
    ResidualReport,
    SpaceTimePoint,
    analytic_derivatives_grid,
    compiled,
    random_admissible_set,
    residual_at,
    residual_report,
    trace_engine,
    verify,
)

MEDIA = {EquationKind.HIROTA: Medium(rho=1.0, sigma=1.0, lam=8.0),
         EquationKind.NLS: Medium(rho=1.0, sigma=0.0, lam=8.0),
         EquationKind.MKDV: Medium(rho=0.0, sigma=1.0, lam=8.0)}
GRID = GridSpec(-12.0, 12.0, 70, -3.0, 3.0, 45)
#: with at most 16 points per tile axis GRID is cut into 5 by 3 tiles
TILE_POINTS = 16
MIB = 1 << 20


def whole_grid_report(kind, sset, medium, grid):
    """The report as reduced over whole-grid jet and residual arrays."""
    kind.check_medium(medium)
    xs, ts = grid.xs(), grid.ts()
    d = analytic_derivatives_grid(sset, medium, xs[:, None], ts[None, :],
                                  check_degenerate=False)
    bad = d["degenerate"]
    res = np.abs(verify._residual_arrays(medium, d))
    good = ~bad
    n_good = int(np.count_nonzero(good))
    if n_good == 0:
        raise EmptyReportError("all grid points degenerate")
    res_good = np.where(good, res, -np.inf)
    flat = int(np.argmax(res_good))
    ix, it = np.unravel_index(flat, res.shape)
    return ResidualReport(
        max_abs=float(res_good.flat[flat]),
        rms=float(np.sqrt(np.mean(res[good] ** 2))),
        normalizer=float(np.max(np.where(good, np.abs(d["psi"]), 0.0))),
        n_points=n_good,
        worst_point=SpaceTimePoint(float(xs[ix]), float(ts[it])),
        n_degenerate=int(np.count_nonzero(bad)))


def assert_same_report(got, want):
    """Every field equal (NaN equal to NaN), rms to 1e-15 relative: the
    streamed sum of squares adds per-tile sums."""
    for field in dataclasses.fields(ResidualReport):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if a != a and b != b:
            continue
        if field.name == "rms":
            assert a == pytest.approx(b, rel=1e-15, abs=0), field.name
        else:
            assert a == b, field.name


def tile_count(sset, medium, grid):
    x_tiles, t_tiles = compiled(sset, medium)._tile_slices(grid.xs(),
                                                           grid.ts())
    return len(x_tiles), len(t_tiles)


@pytest.fixture
def small_tiles(monkeypatch):
    monkeypatch.setattr(trace_engine, "TILE_POINTS", TILE_POINTS)


@pytest.mark.parametrize("n", range(6))
@pytest.mark.parametrize("kind", list(MEDIA), ids=lambda k: k.value)
def test_streamed_equals_whole_grid(small_tiles, kind, n):
    sset = random_admissible_set(n, 100 + n)
    medium = MEDIA[kind]
    nx_tiles, nt_tiles = tile_count(sset, medium, GRID)
    assert nx_tiles > 2 and nt_tiles > 2
    assert_same_report(residual_report(kind, sset, medium, GRID),
                       whole_grid_report(kind, sset, medium, GRID))


@pytest.mark.parametrize("grid", [
    GridSpec(0.3, 0.3, 1, -0.2, -0.2, 1),
    GridSpec(0.3, 0.3, 1, -3.0, 3.0, 45),
    GridSpec(-12.0, 12.0, 70, 0.5, 0.5, 1)], ids=["1x1", "nx1", "nt1"])
@pytest.mark.parametrize("kind", list(MEDIA), ids=lambda k: k.value)
def test_degenerate_grid_shapes(small_tiles, kind, grid):
    sset = random_admissible_set(3, 103)
    assert_same_report(residual_report(kind, sset, MEDIA[kind], grid),
                       whole_grid_report(kind, sset, MEDIA[kind], grid))


def test_empty_field_ties_break_to_first_point(small_tiles):
    # every residual is exactly 0, in every one of the tiles
    rep = residual_report(EquationKind.HIROTA, random_admissible_set(0, 1),
                          MEDIA[EquationKind.HIROTA], GRID)
    assert (rep.max_abs, rep.rms, rep.n_points) == (0.0, 0.0, 70 * 45)
    assert rep.worst_point == SpaceTimePoint(GRID.x_min, GRID.t_min)


@pytest.mark.parametrize("tol", [0.9, 0.3])
def test_partly_degenerate_tiles(monkeypatch, tol):
    # |f| / sum_j |term_j| falls below 0.9 or 0.3 near the envelopes only,
    # so that tiles of 4 by 4 points are clean, mixed or all degenerate
    monkeypatch.setattr(trace_engine, "TILE_POINTS", 4)
    monkeypatch.setattr(trace_engine, "CANCEL_TOL", tol)
    sset = random_admissible_set(3, 103)
    medium = MEDIA[EquationKind.HIROTA]
    masks = [bad for _, _, _, bad in compiled(sset, medium)._tile_iter(
        GRID.xs(), GRID.ts(), [(0, 0)])]
    assert any(m.all() for m in masks)
    assert any(m.any() and not m.all() for m in masks)
    got = residual_report(EquationKind.HIROTA, sset, medium, GRID)
    assert 0 < got.n_degenerate < 70 * 45
    assert_same_report(got, whole_grid_report(EquationKind.HIROTA, sset,
                                              medium, GRID))


def test_every_point_degenerate(small_tiles, monkeypatch):
    monkeypatch.setattr(trace_engine, "CANCEL_TOL", 1.0001)
    with pytest.raises(EmptyReportError):
        residual_report(EquationKind.HIROTA, random_admissible_set(3, 103),
                        MEDIA[EquationKind.HIROTA], GRID)


def test_nan_residual_wins_as_in_argmax(small_tiles, monkeypatch):
    # the report reads the residual through verify._residual_arrays: NaN
    # where |psi| is large, so that several tiles hold a NaN
    sset = random_admissible_set(3, 103)
    medium = MEDIA[EquationKind.HIROTA]
    cut = 0.5 * residual_report(EquationKind.HIROTA, sset, medium,
                                GRID).normalizer
    monkeypatch.setattr(
        verify, "_residual_arrays",
        lambda medium, d: np.where(np.abs(d["psi"]) > cut, np.nan, 1.0))
    got = residual_report(EquationKind.HIROTA, sset, medium, GRID)
    assert math.isnan(got.max_abs) and math.isnan(got.rms)
    assert_same_report(got, whole_grid_report(EquationKind.HIROTA, sset,
                                              medium, GRID))


@pytest.mark.parametrize("nx, nt, limit_mib", [(401, 201, 14),
                                               (3201, 801, 40)])
def test_report_memory_is_bounded(nx, nt, limit_mib):
    # the whole-grid reduction peaked at 13 and 316 MiB
    grid = GridSpec(-10.0, 10.0, nx, -5.0, 5.0, nt)
    sset = random_admissible_set(5, 105)
    compiled(sset, MEDIA[EquationKind.HIROTA])
    tracemalloc.start()
    try:
        residual_report(EquationKind.HIROTA, sset,
                        MEDIA[EquationKind.HIROTA], grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * MIB


@pytest.mark.parametrize("medium", [Medium(rho=1.0, sigma=1.0, lam=1.7e308),
                                    Medium(rho=3.0, sigma=0.0, lam=1e308)],
                         ids=["alpha", "delta"])
def test_overflowing_coefficient_raises_before_evaluation(monkeypatch,
                                                          medium):
    def forbidden(*args, **kwargs):
        raise AssertionError("evaluated")

    monkeypatch.setattr(trace_engine.CompiledSolution, "_tile_iter",
                        forbidden)
    sset = random_admissible_set(2, 1)
    with pytest.raises(FieldOverflowError):
        residual_report(EquationKind.HIROTA, sset, medium, GRID)
    with pytest.raises(FieldOverflowError):
        residual_at(EquationKind.HIROTA, sset, medium,
                    SpaceTimePoint(0.0, 0.0))
