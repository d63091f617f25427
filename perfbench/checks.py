"""Correctness checks for every benchmark operation, and the field reference.

Each check returns a list of problems; an empty list means the operation
passed.  The checks take plain outputs (exit code, text, report) so the
smoke test can feed them deliberately corrupted ones.
"""

from __future__ import annotations

import json
import math

import mpmath
import numpy as np

from hirota_trace.core import GridSpec, Medium, SolitonSet, SpaceTimePoint
from hirota_trace.core import dispersion, eval_psi_closed
from hirota_trace.errors import DegeneratePointError

CSV_HEADER = "x,t,re_psi,im_psi,abs_psi"
#: field values must match the reference to this, relative to max(1, |ref|)
FIELD_TOL = 1e-9
#: dense solves are trusted as reference only below this condition number
DENSE_COND_LIMIT = 1e4
#: working precision of the mpmath reference before the range allowance
MP_DPS = 40
RESIDUAL_TOL = 1e-8
SERIES_ORDER = 20
SERIES_TOL = 1e-12


def mp_psi(sset: SolitonSet, medium: Medium, x: float, t: float) -> complex:
    """tr[B_x M^-1], M = I + (lam/8) D conj(D), in multiprecision.

    The entries of M span about |phi|^4 in magnitude, so the working
    precision grows with the decades the modes lie away from 1.
    """
    decades = 0.0
    for s in sset.solitons:
        om = dispersion(s.p, medium)
        decades += abs(math.log10(abs(s.a0))
                       + ((s.p * x - om * t).real / math.log(10)))
    with mpmath.workdps(MP_DPS + math.ceil(4 * decades)):
        n = len(sset)
        ps = [mpmath.mpc(s.p.real, s.p.imag) for s in sset.solitons]
        phis = []
        for s, p in zip(sset.solitons, ps):
            om = -2j * medium.rho * p ** 2 + 4 * medium.sigma * p ** 3
            phis.append(mpmath.mpc(s.a0.real, s.a0.imag)
                        * mpmath.exp(p * x - om * t))
        d = mpmath.matrix(n, n)
        bx = mpmath.matrix(n, n)
        for m in range(n):
            for q in range(n):
                d[m, q] = phis[m] * mpmath.conj(phis[q]) \
                    / (ps[m] + mpmath.conj(ps[q]))
                bx[m, q] = phis[m] * phis[q]
        dbar = d.apply(mpmath.conj)
        mat = mpmath.eye(n) + mpmath.mpf(medium.lam) / 8 * d * dbar
        y = bx * mat ** -1
        return complex(sum(y[k, k] for k in range(n)))


def reference_psi(sset: SolitonSet, medium: Medium, x: float,
                  t: float) -> complex:
    """Dense closed form where M is well conditioned, mpmath elsewhere."""
    try:
        return eval_psi_closed(sset, medium, SpaceTimePoint(x, t),
                               cond_limit=DENSE_COND_LIMIT)
    except DegeneratePointError:
        return mp_psi(sset, medium, x, t)


def field_samples(grid: GridSpec, sset: SolitonSet, medium: Medium,
                  g: np.random.Generator, count: int) -> dict[int, complex]:
    """Reference psi at ``count`` seeded rows of a t-major field export."""
    rows = g.choice(grid.nx * grid.nt, size=count, replace=False)
    xs, ts = grid.xs(), grid.ts()
    out = {}
    for r in sorted(int(r) for r in rows):
        it, ix = divmod(r, grid.nx)
        out[r] = reference_psi(sset, medium, float(xs[ix]), float(ts[it]))
    return out


def _row_problem(row: int, grid: GridSpec, vals: tuple, ref: complex) -> str | None:
    x, t, re, im, ab = vals
    it, ix = divmod(row, grid.nx)
    if x != grid.xs()[ix] or t != grid.ts()[it]:
        return f"row {row}: coordinates ({x}, {t}) are not grid point ({ix}, {it})"
    scale = FIELD_TOL * max(1.0, abs(ref))
    if not (abs(complex(re, im) - ref) <= scale and abs(ab - abs(ref)) <= scale):
        return f"row {row}: psi {complex(re, im)!r} differs from reference {ref!r}"
    return None


def check_field(rc: int, text: str, fmt: str, grid: GridSpec,
                samples: dict[int, complex]) -> list[str]:
    """Exit code 0, a full t-major table, and sampled rows on the reference."""
    if rc != 0:
        return [f"field exited {rc}"]
    want = grid.nx * grid.nt
    if fmt == "csv":
        lines = text.split("\n")
        if lines[0] != CSV_HEADER or lines[-1] != "":
            return ["csv header or trailing newline missing"]
        if len(lines) - 2 != want:
            return [f"csv has {len(lines) - 2} rows, expected {want}"]
        try:
            rows = {r: tuple(float(v) for v in lines[r + 1].split(","))
                    for r in samples}
        except ValueError as exc:
            return [f"unparsable csv row: {exc}"]
        if any(len(v) != 5 for v in rows.values()):
            return ["csv row without five columns"]
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"invalid json: {exc}"]
        if len(data) != want:
            return [f"json has {len(data)} rows, expected {want}"]
        keys = ("x", "t", "re_psi", "im_psi", "abs_psi")
        try:
            rows = {r: tuple(float(data[r][k]) for k in keys) for r in samples}
        except (KeyError, TypeError, ValueError) as exc:
            return [f"malformed json row: {exc!r}"]
    problems = [_row_problem(r, grid, rows[r], ref) for r, ref in samples.items()]
    return [p for p in problems if p]


def check_residual(report, grid: GridSpec) -> list[str]:
    """max_rel <= 1e-8 with no degenerate point skipped."""
    problems = []
    if not report.max_rel <= RESIDUAL_TOL:
        problems.append(f"max_rel {report.max_rel:.3e} > {RESIDUAL_TOL}")
    if report.n_degenerate != 0:
        problems.append(f"{report.n_degenerate} degenerate point(s)")
    if report.n_points != grid.nx * grid.nt:
        problems.append(f"{report.n_points} points, expected {grid.nx * grid.nt}")
    return problems


def check_exit(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exited {rc}"]


def check_series(rc: int, text: str) -> list[str]:
    """Order-20 partial sum within 1e-12 relative of the closed form."""
    if rc != 0:
        return [f"series exited {rc}"]
    try:
        out = json.loads(text)
        closed = complex(*out["closed"])
        err = out["orders"][SERIES_ORDER]["error"]
    except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        return [f"malformed series output: {exc!r}"]
    if not (math.isfinite(err) and err <= SERIES_TOL * abs(closed)):
        return [f"order-{SERIES_ORDER} error {err:.3e} above "
                f"{SERIES_TOL} x |closed| = {SERIES_TOL * abs(closed):.3e}"]
    return []


def check_misses(grew: int, want: int) -> list[str]:
    """The compile cache must miss exactly once per compiling operation."""
    if grew != want:
        return [f"compile cache misses grew by {grew}, expected {want}"]
    return []
