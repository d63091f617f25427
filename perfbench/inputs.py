"""Seeded input generation for the benchmark workloads.

Every input the program receives is drawn here from the workload seed, so
the same seed always yields the same soliton sets, points and config files.
Draws are addressed by a path of integers (site, cycle, slot, ...) below
the seed, which keeps them independent of how many operations a run makes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from hirota_trace.core import GridSpec, Medium, SolitonSet, SpaceTimePoint
from hirota_trace.core import spectral_radius_q
from hirota_trace.verify import random_admissible_set

MEDIUM = Medium(rho=1.0, sigma=1.0, lam=8.0)
NLS_MEDIUM = Medium(rho=1.0, sigma=0.0, lam=8.0)
MKDV_MEDIUM = Medium(rho=0.0, sigma=1.0, lam=8.0)

#: the 401 x 201 acceptance grid
FIELD_GRID = GridSpec(-10.0, 10.0, 401, -5.0, 5.0, 201)
#: coarse grid of the one-shot residual probe
COARSE_GRID = GridSpec(-10.0, 10.0, 101, -5.0, 5.0, 51)
#: series points are drawn where the series converges at least this fast
SERIES_Q_MAX = 0.25
#: candidate series points are drawn and tested in batches of this size, so
#: that the work of a draw (and cold-probe's set-up time) hardly depends on
#: how many candidates the seed happens to reject
SERIES_BATCH = 48


def rng(seed: int, *path: int) -> np.random.Generator:
    """Generator for one draw site below the workload seed."""
    return np.random.default_rng([seed, *path])


def soliton_set(n: int, seed: int, *path: int) -> SolitonSet:
    return random_admissible_set(n, rng(seed, *path))


def series_point(sset: SolitonSet, seed: int, *path: int) -> SpaceTimePoint:
    """Point of FIELD_GRID's rectangle where the series ratio q <= 0.25: the
    first such point of the first batch of uniform candidates that has one."""
    g = rng(seed, *path)
    grid = FIELD_GRID
    while True:
        xs = g.uniform(grid.x_min, grid.x_max, SERIES_BATCH)
        ts = g.uniform(grid.t_min, grid.t_max, SERIES_BATCH)
        passed = [pt for pt in map(SpaceTimePoint, map(float, xs),
                                   map(float, ts))
                  if spectral_radius_q(sset, MEDIUM, pt) <= SERIES_Q_MAX]
        if passed:
            return passed[0]


def write_config(path: Path, medium: Medium, sset: SolitonSet,
                 grid: GridSpec) -> Path:
    """Write a CLI run configuration and return its path."""
    data = {
        "medium": {"rho": medium.rho, "sigma": medium.sigma,
                   "lambda": medium.lam},
        "solitons": [{"p": [s.p.real, s.p.imag], "a0": [s.a0.real, s.a0.imag]}
                     for s in sset.solitons],
        "grid": {"x": [grid.x_min, grid.x_max, grid.nx],
                 "t": [grid.t_min, grid.t_max, grid.nt]},
    }
    path.write_text(json.dumps(data))
    return path
