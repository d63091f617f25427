"""Command-line front end: JSON configs in, CSV/JSON fields and reports out.

Exit codes: 0 success, 1 malformed configuration or a domain error (such as
a non-finite field value), 2 degenerate grid points were skipped (field
command), 3 tolerance failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .calculus import analytic_derivatives, fd_derivatives
from .core import (
    GridSpec,
    Medium,
    SolitonSet,
    SpaceTimePoint,
    eval_psi_closed,
    series_partial_sums,
    spectral_radius_q,
)
from .errors import (
    ConfigError,
    DegeneratePointError,
    NonFiniteFieldError,
    SolitonFieldError,
)
from .identities import run_identity_suite
from .trace_engine import compiled
from .verify import EquationKind, collision_metrics, residual_report

DEFAULT_OPTIONS = {"tolerance": 1e-8, "series_order": 20, "seed": 42}


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of one JSON configuration file."""

    medium: Medium
    solitons: SolitonSet
    grid: GridSpec
    tolerance: float = 1e-8
    series_order: int = 20
    seed: int = 42


def _expect_keys(obj: dict, allowed: set[str], required: set[str],
                 where: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    extra = set(obj) - allowed
    if extra:
        raise ConfigError(f"unknown key(s) in {where}: {sorted(extra)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing key(s) in {where}: {sorted(missing)}")


def _as_complex(v, where: str) -> complex:
    if (not isinstance(v, list) or len(v) != 2
            or not all(isinstance(c, (int, float)) for c in v)):
        raise ConfigError(f"{where} must be a [re, im] pair")
    return complex(v[0], v[1])


def _check_options(opts: dict) -> None:
    """Raise ConfigError unless tolerance is a finite number >= 0,
    series_order an integer >= 0 and seed an integer (bools rejected)."""
    def is_int(v) -> bool:
        return isinstance(v, int) and not isinstance(v, bool)

    tol = opts["tolerance"]
    if not ((is_int(tol) or isinstance(tol, float))
            and 0 <= tol <= sys.float_info.max):
        raise ConfigError("options.tolerance must be a finite number >= 0")
    if not (is_int(opts["series_order"]) and opts["series_order"] >= 0):
        raise ConfigError("options.series_order must be an integer >= 0")
    if not is_int(opts["seed"]):
        raise ConfigError("options.seed must be an integer")


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from parsed JSON, raising ConfigError on any flaw."""
    _expect_keys(data, {"medium", "solitons", "grid", "options"},
                 {"medium", "solitons", "grid"}, "config")
    med = data["medium"]
    _expect_keys(med, {"rho", "sigma", "lambda"},
                 {"rho", "sigma", "lambda"}, "medium")
    sols = data["solitons"]
    if not isinstance(sols, list):
        raise ConfigError("solitons must be a list")
    grid = data["grid"]
    _expect_keys(grid, {"x", "t"}, {"x", "t"}, "grid")
    for axis in ("x", "t"):
        triple = grid[axis]
        if not isinstance(triple, list) or len(triple) != 3:
            raise ConfigError(f"grid.{axis} must be [min, max, n]")
        if not isinstance(triple[2], int) or isinstance(triple[2], bool):
            raise ConfigError(f"grid.{axis}[2] must be an integer count")
    opts = dict(DEFAULT_OPTIONS)
    if "options" in data:
        _expect_keys(data["options"], set(DEFAULT_OPTIONS), set(), "options")
        opts.update(data["options"])
        _check_options(opts)
    try:
        medium = Medium(rho=float(med["rho"]), sigma=float(med["sigma"]),
                        lam=float(med["lambda"]))
        pairs = []
        for i, s in enumerate(sols):
            _expect_keys(s, {"p", "a0"}, {"p", "a0"}, f"solitons[{i}]")
            pairs.append((_as_complex(s["p"], f"solitons[{i}].p"),
                          _as_complex(s["a0"], f"solitons[{i}].a0")))
        sset = SolitonSet.from_pairs(pairs)
        gspec = GridSpec(x_min=float(grid["x"][0]), x_max=float(grid["x"][1]),
                         nx=grid["x"][2],
                         t_min=float(grid["t"][0]), t_max=float(grid["t"][1]),
                         nt=grid["t"][2])
        return RunConfig(medium=medium, solitons=sset, grid=gspec,
                         tolerance=float(opts["tolerance"]),
                         series_order=opts["series_order"],
                         seed=opts["seed"])
    except ConfigError:
        raise
    except (SolitonFieldError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# canonical config emission (byte-identical round trip)


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise ConfigError("non-finite value in config")
    return format(float(v), ".17g")


def dump_config(cfg: RunConfig) -> str:
    """Canonical JSON: fixed key order, 17-significant-digit floats."""
    m = cfg.medium
    parts = ['{"medium":{"rho":%s,"sigma":%s,"lambda":%s}'
             % (_fmt(m.rho), _fmt(m.sigma), _fmt(m.lam))]
    sols = ",".join(
        '{"p":[%s,%s],"a0":[%s,%s]}' % (_fmt(s.p.real), _fmt(s.p.imag),
                                        _fmt(s.a0.real), _fmt(s.a0.imag))
        for s in cfg.solitons.solitons)
    parts.append('"solitons":[%s]' % sols)
    g = cfg.grid
    parts.append('"grid":{"x":[%s,%s,%d],"t":[%s,%s,%d]}'
                 % (_fmt(g.x_min), _fmt(g.x_max), g.nx,
                    _fmt(g.t_min), _fmt(g.t_max), g.nt))
    parts.append('"options":{"tolerance":%s,"series_order":%d,"seed":%d}'
                 % (_fmt(cfg.tolerance), cfg.series_order, cfg.seed))
    return ",".join(parts) + "}"


# ---------------------------------------------------------------------------
# commands


#: rows of the ``field`` table formatted by one %-operation and written at
#: once, which bounds the command's working memory whatever the grid size
FIELD_BLOCK_ROWS = 4096
_CSV_ROW = "%s,%s,%.17g,%.17g,%.17g\n"
#: ``json.dumps`` of a row dict with its default separators; %r of a Python
#: float is the shortest round-trip repr that ``json.dumps`` writes
_JSON_ROW = '{"x": %s, "t": %s, "re_psi": %r, "im_psi": %r, "abs_psi": %r}'


def _field_blocks(row: str, sep: str, xstr: np.ndarray, tstr: np.ndarray,
                  psi: np.ndarray, keep: np.ndarray):
    """The kept rows (flat t-major indices ``keep`` into the nt by nx
    table) in text blocks of at most FIELD_BLOCK_ROWS rows, each joined by
    ``sep`` and formatted by one %-operation on Python objects."""
    args = np.empty((FIELD_BLOCK_ROWS, 5), dtype=object)
    for lo in range(0, len(keep), FIELD_BLOCK_ROWS):
        it, ix = np.divmod(keep[lo:lo + FIELD_BLOCK_ROWS], len(xstr))
        z = psi[ix, it]
        cols = args[:len(z)]
        cols[:, 0] = xstr[ix]
        cols[:, 1] = tstr[it]
        cols[:, 2] = z.real.tolist()
        cols[:, 3] = z.imag.tolist()
        # Python's abs(complex), not np.abs, which differs in the last ulp
        cols[:, 4] = list(map(abs, z.tolist()))
        yield sep.join([row] * len(z)) % tuple(cols.ravel().tolist())


def cmd_field(cfg: RunConfig, out_path: str | None, fmt: str) -> int:
    xs = cfg.grid.xs()
    ts = cfg.grid.ts()
    engine = compiled(cfg.solitons, cfg.medium)
    d = engine.derivatives(xs[:, None], ts[None, :], orders=[(0, 0)],
                           check_degenerate=False)
    psi, bad = d["psi"], d["degenerate"]
    broken = ~(np.isfinite(psi) | bad)
    if broken.any():
        it, ix = np.argwhere(broken.T)[0]
        raise NonFiniteFieldError(
            f"non-finite psi at {int(np.count_nonzero(broken))} "
            f"non-degenerate grid point(s), first at (x, t) = "
            f"({xs[ix]:.17g}, {ts[it]:.17g})")
    keep = np.flatnonzero(~bad.T)
    if fmt == "csv":
        head, row, sep, tail, num = ("x,t,re_psi,im_psi,abs_psi\n",
                                     _CSV_ROW, "", "", _fmt)
    else:
        head, row, sep, tail, num = "[", _JSON_ROW, ", ", "]\n", repr
    xstr = np.array([num(v) for v in xs.tolist()], dtype=object)
    tstr = np.array([num(v) for v in ts.tolist()], dtype=object)
    to_file = out_path and out_path != "-"
    with open(out_path, "w") if to_file else nullcontext(sys.stdout) as fh:
        fh.write(head)
        for k, block in enumerate(_field_blocks(row, sep, xstr, tstr, psi,
                                                keep)):
            fh.write(block if k == 0 else sep + block)
        fh.write(tail)
    n_bad = bad.size - len(keep)
    if n_bad:
        print(f"skipped {n_bad} degenerate point(s)", file=sys.stderr)
        return 2
    return 0


def _fd_order_estimate(cfg: RunConfig, pt: SpaceTimePoint) -> float | None:
    """Convergence order of the FD oracle against analytic derivatives,
    read off from steps 1e-2 and 5e-3."""
    try:
        exact = analytic_derivatives(cfg.solitons, cfg.medium, pt).as_dict()
        errs = []
        for h in (1e-2, 5e-3):
            fd = fd_derivatives(cfg.solitons, cfg.medium, pt,
                                h_x=h, h_t=h).as_dict()
            errs.append(max(abs(fd[k] - exact[k]) for k in exact))
        if errs[0] == 0 or errs[1] == 0:
            return None
        return math.log2(errs[0] / errs[1])
    except (DegeneratePointError, SolitonFieldError):
        return None


def cmd_residual(cfg: RunConfig, equation: str, fd_check: bool) -> int:
    kind = EquationKind(equation)
    try:
        kind.check_medium(cfg.medium)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = residual_report(kind, cfg.solitons, cfg.medium, cfg.grid)
    out = {
        "equation": equation,
        "max_abs": report.max_abs,
        "rms": report.rms,
        "normalizer": report.normalizer,
        "max_rel": report.max_rel,
        "n_points": report.n_points,
        "n_degenerate": report.n_degenerate,
        "worst_point": {"x": report.worst_point.x, "t": report.worst_point.t},
        "tolerance": cfg.tolerance,
        "passed": report.max_rel <= cfg.tolerance,
    }
    if fd_check:
        out["fd_order_estimate"] = _fd_order_estimate(cfg, report.worst_point)
    broken = [key for key, v in out.items()
              if isinstance(v, float) and not math.isfinite(v)]
    if broken:
        raise NonFiniteFieldError(
            f"non-finite {', '.join(broken)} in the {equation} residual report")
    print(json.dumps(out, indent=2))
    return 0 if out["passed"] else 3


def cmd_series(cfg: RunConfig, point: str, max_order: int) -> int:
    try:
        xs, ts = point.split(",")
        pt = SpaceTimePoint(float(xs), float(ts))
    except ValueError as exc:
        raise ConfigError(f"bad --point value {point!r}") from exc
    closed = eval_psi_closed(cfg.solitons, cfg.medium, pt)
    sums = series_partial_sums(cfg.solitons, cfg.medium, pt, max_order)
    q = spectral_radius_q(cfg.solitons, cfg.medium, pt)
    out = {
        "point": {"x": pt.x, "t": pt.t},
        "closed": [closed.real, closed.imag],
        "spectral_radius_q": q,
        "diverges": q >= 1.0,
        "orders": [{"order": k, "partial": [s.real, s.imag],
                    "error": abs(s - closed)}
                   for k, s in enumerate(map(complex, sums))],
    }
    values = [q, *out["closed"]] + [v for row in out["orders"]
                                    for v in (*row["partial"], row["error"])]
    if not all(map(math.isfinite, values)):
        raise NonFiniteFieldError(
            f"non-finite value in the series report at {pt}")
    print(json.dumps(out, indent=2))
    return 0


def cmd_identity(n_max: int, trials: int, seed: int) -> int:
    report = run_identity_suite(n_max=n_max, trials=trials, seed=seed)
    print(json.dumps({"n_max": report.n_max, "trials": report.trials,
                      "checks": report.checks, "failures": report.failures,
                      "seed": report.seed, "passed": report.ok}, indent=2))
    return 0 if report.ok else 3


def cmd_collide(cfg: RunConfig, t_far: float) -> int:
    window = GridSpec(cfg.grid.x_min, cfg.grid.x_max, max(cfg.grid.nx, 2001),
                      -t_far, t_far, 2)
    metrics = collision_metrics(cfg.solitons, cfg.medium, t_far, window)
    out = {
        "t_far": metrics.t_far,
        "peaks_before": list(metrics.peaks_before),
        "peaks_after": list(metrics.peaks_after),
        "max_rel_mismatch": metrics.max_rel_mismatch,
        "passed": metrics.max_rel_mismatch <= 1e-4,
    }
    print(json.dumps(out, indent=2))
    return 0 if out["passed"] else 3


# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the life of
    the process: parse_args leaves it unchanged, so every later call of
    main reuses it."""
    parser = argparse.ArgumentParser(
        prog="hirota-trace",
        description="Exact envelope-soliton fields and their verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p: argparse.ArgumentParser,
                    required: bool = True) -> None:
        p.add_argument("--config", required=required,
                       help="path to a JSON run configuration")
        p.add_argument("--dump-config", action="store_true",
                       help="echo the canonical form of the config and exit")

    p = sub.add_parser("field", help="evaluate psi on the grid")
    with_config(p)
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("residual", help="equation residual report")
    with_config(p)
    p.add_argument("--equation", choices=("hirota", "nls", "mkdv"),
                   default="hirota")
    p.add_argument("--fd-check", action="store_true",
                   help="append a finite-difference order estimate")

    p = sub.add_parser("series", help="partial sums vs closed form")
    with_config(p)
    p.add_argument("--point", required=True, metavar="X,T")
    p.add_argument("--max-order", type=int, default=None)

    p = sub.add_parser("identity", help="exact combinatorial identity suite")
    with_config(p, required=False)
    p.add_argument("--n-max", type=int, default=3)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("collide", help="two-soliton elasticity metrics")
    with_config(p)
    p.add_argument("--t-far", type=float, default=20.0)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        if args.dump_config:
            if cfg is None:
                raise ConfigError("--dump-config requires --config")
            print(dump_config(cfg))
            return 0
        if args.command == "field":
            return cmd_field(cfg, args.out, args.format)
        if args.command == "residual":
            return cmd_residual(cfg, args.equation, args.fd_check)
        if args.command == "series":
            order = args.max_order
            if order is None:
                order = cfg.series_order
            return cmd_series(cfg, args.point, order)
        if args.command == "identity":
            seed = args.seed
            if seed is None:
                seed = cfg.seed if cfg else DEFAULT_OPTIONS["seed"]
            return cmd_identity(args.n_max, args.trials, seed)
        return cmd_collide(cfg, args.t_far)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (SolitonFieldError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
