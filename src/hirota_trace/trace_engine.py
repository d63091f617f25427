"""Compiled determinant-ratio representation of the trace solution.

The closed field psi = tr[B_x M^{-1}], M = I + (lam/8) D conj(D), equals a
ratio of two finite exponential sums,

    psi = g / f,   f = det(M),   g = det(M) * tr[B_x M^{-1}].

With z_k = phi_k^2, w_k = conj(phi_k)^2, c = lam/8 and the Hermitian Cauchy
matrix A_mn = 1/(p_m + conj(p_n)), the Cauchy-Binet formula gives

    f = sum_{|S| = |T|}     c^|T| det(A[S,T])^2         z^S w^T,
    g = sum_{|S| = |T| + 1} c^|T| det([A[S,T] | 1])^2   z^S w^T,

(squares because conj(A[T,S]) = A[S,T]^T).  Each term is kept as one
exponent, log gamma + sum_S log z_k + sum_T log w_k = log Gamma + G x - H t,
with log z_k = 2 log a0_k + 2 p_k x - 2 Omega_k t and log w_k its conjugate,
so no coefficient (a0^4 or c^|T| may leave double range) is formed as a
double.  Both minors are Cauchy determinants, the second bordered by a
column of ones, so log gamma is |T| log c plus twice the sum of the logs of

    prod_{i<j in S} (p_j - p_i)  prod_{i<j in T} conj(p_j - p_i)
        prod_{i in S, j in T} A_ij,

each a few ulps from exact, even for near-coincident p.  A repeated p makes
a difference factor exactly 0, so the pairs whose S or T holds both copies
are left out.  The term (T, S) of f is the complex conjugate of the term
(S, T), so f is real and is stored as the half-sum over S <= T (subsets
ordered by their bit index) with weight 2 off the diagonal, of which only
the real part is taken.  The resulting evaluator is

  * exact (same analytic object as the dense solve),
  * stable everywhere after factoring out a log scale s, while the dense
    solve loses all accuracy where cond(M) blows up, and
  * trivially differentiable: every term is a pure exponential, so each
    x- or t-derivative just multiplies term j by G_j or -H_j.

On a tensor grid (x and t ascending along different axes) each term
splits as exp(G_j x) times exp(-H_j t).  The grid is cut into tiles; each
tile takes s, the log of its largest term, at its centre (x_c, t_c),
computes exp(log Gamma_j + G_j x_c - H_j t_c - s) over terms (real part at
most 0, so it cannot overflow), exp(G_j (x - x_c)) over terms by tile-x and
exp(-H_j (t - t_c)) over terms by tile-t, and forms all requested jets in
one BLAS product, with the derivative weights G^i H^l on the small t-side
factor.  The tile extents keep the scale inside a tile within TILE_SPREAD
of s, so working memory grows with the output, not with terms by points.
Every other point set goes through the same tiles: it is evaluated on the
unique sorted values of x and of t (as one grid, or one x axis per distinct
t when that grid would have more cells than there are points) and gathered
back.  The pass that sums f decides which points are degenerate: those
where the summation condition number kappa_f = sum_j |term_j| / |f|
exceeds 1 / CANCEL_TOL.  One iterator yields the tiles: the evaluation
methods gather them into arrays over the whole point set, and the residual
report reduces each tile while it is in cache, so its working memory does
not grow with the grid.

This module is the evaluation engine behind grid fields, analytic
derivatives, and therefore all residual checks.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache

import numpy as np

from .core import Medium, SolitonSet, _log_coupling, dispersion
from .errors import DegeneratePointError, FieldOverflowError

#: |f| / sum_j |term_j| (the inverse of f's summation condition number
#: kappa_f) below which the determinant cancels past double precision.
#: Random admissible sets reach kappa_f of about 1e2 (N <= 5), and random
#: pairs with |p_1 - p_2| down to 1e-7 about 2e6, far from 1 / CANCEL_TOL.
CANCEL_TOL = 1e-12
#: most that the log scale s(x, t) = max_j log|term_j(x, t)| moves inside a
#: tile, half along each axis.  Scaled terms and both separable factors
#: then stay within exp(+-128) ~ 1e+-56 of the tile centre's, a margin of
#: more than 570 to core.EXP_LIMIT, and of 580 to the underflow threshold.
TILE_SPREAD = 128.0
#: most points along one axis of a tile
TILE_POINTS = 128


def _cauchy_binet_terms(p: np.ndarray, log_coupling: float, excess: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monomials and coefficient logs of f (``excess`` 0) or g (``excess`` 1).

    Returns boolean membership rows a (set S, variables z) and b (set T,
    variables w), one per pair with |S| = |T| + excess and no repeated p in
    S or in T, and the complex logs of the coefficients c^|T| det(A[S,T])^2
    (bordered by ones when excess is 1), given log c as ``log_coupling``.
    For f only the pairs with S <= T by bit index are kept, those with
    S != T at twice their coefficient, so that f is the real part of the
    sum.
    """
    n = len(p)
    index = np.arange(1 << n)
    members = ((index[:, None] >> np.arange(n)) & 1).astype(bool)
    size = members.sum(axis=1)
    # log Vandermonde factor of each subset, -inf where it holds a repeated p
    i, j = np.triu_indices(n, 1)
    with np.errstate(divide="ignore"):
        log_diff = np.log(p[j] - p[i])
    vdm = np.where(members[:, i] & members[:, j], log_diff, 0).sum(axis=1)
    distinct = np.isfinite(vdm)
    match = (size[:, None] == size[None, :] + excess) \
        & distinct[:, None] & distinct
    s_idx, t_idx = np.nonzero(match if excess
                              else match & (index[:, None] <= index))
    a = members[s_idx]
    b = members[t_idx]
    log_cauchy = np.log(p[:, None] + p.conj()[None, :])
    log_minor = (vdm[s_idx] + vdm[t_idx].conj()
                 - ((a @ log_cauchy) * b).sum(axis=1))
    log_gamma = size[t_idx] * log_coupling + 2 * log_minor
    if not excess:
        log_gamma += math.log(2) * (s_idx != t_idx)
    return a, b, log_gamma


class _ExponentialSum:
    """Finite sum  sum_j exp(log_coef_j + G_j x - H_j t)  with scaled
    evaluation.

    ``modes`` holds the row (2 log a0_k, 2 p_k, -2 Omega_k) of each mode.  A
    term's row, the sum of its S rows plus the conjugate sum of its T rows,
    holds the amplitude part of its log-coefficient (log_gamma is the rest),
    its x rate G and its t rate -H.  With ``real`` set the sum is the
    weighted half-sum of a real function (see _cauchy_binet_terms) and every
    jet is its real part.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, log_gamma: np.ndarray,
                 modes: np.ndarray, real: bool = False) -> None:
        self.real = real
        log_a0, self.xrate, self.trate = (a @ modes + b @ modes.conj()).T
        self.log_coef = log_gamma + log_a0

    def _weights(self, orders: list[tuple[int, int]]) -> np.ndarray:
        """Derivative weights G^i H^l, terms by orders."""
        return np.stack([self.xrate ** i * self.trate ** l
                         for i, l in orders], axis=1)

    def tile_jets(self, xs: np.ndarray, ts: np.ndarray, x_tiles: list,
                  t_tiles: list, orders: list[tuple[int, int]],
                  abs_sum: bool = False):
        """Scaled derivative sums on each tile of the sorted tensor grid xs
        by ts, cut by the slice lists x_tiles and t_tiles.

        Yields (xsl, tsl, jets, s, total) per tile: jets[(i, l)] of shape
        (tile nx, tile nt) scaled by exp(-s), s the log of the largest term
        at the tile centre (-inf for an empty sum), and, if ``abs_sum`` is
        set, sum_j |term_j| on the same scale.
        """
        weights = self._weights(orders)

        def x_side(xsl):
            xc = _centre(xs, xsl)
            dx = xs[xsl] - xc
            mag = np.exp(np.multiply.outer(dx, self.xrate.real)) \
                if abs_sum else None
            return xsl, xc, np.exp(np.multiply.outer(dx, self.xrate)), mag

        def t_side(tsl):
            tc = _centre(ts, tsl)
            dt = ts[tsl] - tc
            et = np.exp(np.multiply.outer(self.trate, dt))
            mag = np.exp(np.multiply.outer(self.trate.real, dt)) \
                if abs_sum else None
            # the derivative weights ride on the t side
            right = (weights[:, :, None] * et[:, None, :]).reshape(
                len(et), len(orders) * len(dt))
            if self.real:
                # rows (Re, -Im) of one real GEMM over 2 * terms, whose
                # product is the real part of the sum
                right = np.concatenate((right.real, -right.imag))
            return tsl, tc, right, mag

        # one side is computed once and kept, the other once per tile row:
        # keep the smaller
        if len(xs) <= len(orders) * len(ts):
            xf = [x_side(xsl) for xsl in x_tiles]
            pairs = ((x, t) for t in map(t_side, t_tiles) for x in xf)
        else:
            tf = [t_side(tsl) for tsl in t_tiles]
            pairs = ((x, t) for x in map(x_side, x_tiles) for t in tf)
        for (xsl, xc, left, xmag), (tsl, tc, right, tmag) in pairs:
            centre = self.xrate * xc + self.trate * tc
            s = float(np.max(centre.real + self.log_coef.real,
                             initial=-np.inf))
            coef = np.exp(centre - s + self.log_coef)
            left = left * coef
            if self.real:
                sums = np.concatenate((left.real, left.imag), axis=1) @ right
            else:
                sums = left @ right
            sums = sums.reshape(len(left), len(orders), -1)
            jets = {o: sums[:, k] for k, o in enumerate(orders)}
            total = (xmag * np.abs(coef)) @ tmag if abs_sum else None
            yield xsl, tsl, jets, s, total


_ALL_ORDERS = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]
_NAMES = {(0, 0): "psi", (1, 0): "psi_x", (2, 0): "psi_xx",
          (3, 0): "psi_xxx", (0, 1): "psi_t"}


def _check_orders(orders: list[tuple[int, int]]) -> None:
    """Raise ValueError unless every order is one of _NAMES and comes with
    the lower orders that its Leibniz solve in _ratio_jets reads: (i, l)
    reads psi's x-orders (k, 0) for every k < i + l."""
    for o in orders:
        if not isinstance(o, tuple) or o not in _NAMES:
            raise ValueError(f"unknown derivative order {o!r}; "
                             f"known orders are {list(_NAMES)}")
    for i, l in orders:
        for k in range(i + l):
            if (k, 0) not in orders:
                raise ValueError(f"derivative order {(i, l)} needs order "
                                 f"{(k, 0)} in the same request")
    if (0, 0) not in orders:
        raise ValueError(f"every request needs order (0, 0), got {orders!r}")


def _ratio_jets(fj: dict, gj: dict, r, out: dict) -> None:
    """psi and its derivatives from scaled jets of f and g and the scale
    ratio r = exp(s_g - s_f), by Leibniz on g = psi * f solved for the
    highest derivative,

        psi^(i) = (r g^(i) - sum_{k = i-1 .. 0} C(i, k) psi^(k) f^(i-k)) / f,

    and psi_t = (r g_t - psi f_t) / f; written into the arrays ``out``
    holds by name."""
    inv = 1 / fj[(0, 0)]
    psi = []
    while (len(psi), 0) in fj:
        i = len(psi)
        acc = r * gj[(i, 0)]
        for k in range(i - 1, -1, -1):
            c = math.comb(i, k)
            acc = acc - (c * psi[k] if c > 1 else psi[k]) * fj[(i - k, 0)]
        psi.append(np.multiply(acc, inv, out=out[_NAMES[(i, 0)]]))
    if (0, 1) in fj:
        np.multiply(r * gj[(0, 1)] - psi[0] * fj[(0, 1)], inv,
                    out=out["psi_t"])


def _centre(v: np.ndarray, sl: slice) -> float:
    """Centre of the tile ``sl`` of the sorted axis v."""
    return 0.5 * (v[sl][0] + v[sl][-1])


def _tiles(v: np.ndarray, rate: float):
    """Slices of the sorted axis v into tiles of at most TILE_POINTS points,
    each spanning at most TILE_SPREAD / rate."""
    width = TILE_SPREAD / rate if rate > 0 else np.inf
    start = 0
    while start < len(v):
        stop = min(start + TILE_POINTS,
                   int(np.searchsorted(v, v[start] + width, side="right")))
        stop = max(stop, start + 1)
        yield slice(start, stop)
        start = stop


def _tensor_axes(x: np.ndarray, t: np.ndarray, shape: tuple
                 ) -> tuple[np.ndarray, np.ndarray, bool] | None:
    """(xs, ts, flip) when x and t vary along different axes of a result of
    at most two dimensions, each in ascending order, else None.  The
    (len(xs), len(ts)) grid reshapes to ``shape``, or transposes to it when
    ``flip`` is set."""
    if len(shape) > 2:
        return None
    x = x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
    t = t.reshape((1,) * (len(shape) - t.ndim) + t.shape)
    if any(a > 1 and b > 1 for a, b in zip(x.shape, t.shape)):
        return None
    xs, ts = x.ravel(), t.ravel()
    if not (np.all(xs[:-1] <= xs[1:]) and np.all(ts[:-1] <= ts[1:])):
        return None
    return xs, ts, len(shape) == 2 and x.shape[1] > 1 and t.shape[0] > 1


def _require_finite(xs: np.ndarray, ts: np.ndarray) -> None:
    """Raise ValueError unless every value of the axes xs and ts is
    finite."""
    if not (np.isfinite(xs).all() and np.isfinite(ts).all()):
        raise ValueError("space-time coordinates must be finite")


class CompiledSolution:
    """Per-(SolitonSet, Medium) compiled evaluator of the exact field."""

    def __init__(self, sset: SolitonSet, medium: Medium) -> None:
        self.n = len(sset)
        p = sset.p
        om = np.array([dispersion(pk, medium) for pk in p], dtype=complex)
        modes = np.stack((2 * np.log(sset.a0), 2 * p, -2 * om), axis=1)
        log_c = _log_coupling(medium.lam)
        self._f = _ExponentialSum(*_cauchy_binet_terms(p, log_c, 0), modes,
                                  real=True)
        self._g = _ExponentialSum(*_cauchy_binet_terms(p, log_c, 1), modes)
        xrate = np.concatenate((self._f.xrate, self._g.xrate))
        trate = np.concatenate((self._f.trate, self._g.trate))
        # the largest real or imaginary part of any term's x and t rates
        self._x_reach = float(np.abs(xrate.view(float)).max(initial=0))
        self._t_reach = float(np.abs(trate.view(float)).max(initial=0))
        # the slopes of the log scale, which cut the tiles: the largest
        # |Re G| and |Re H| of any term
        self._x_slope = float(np.abs(xrate.real).max(initial=0))
        self._t_slope = float(np.abs(trate.real).max(initial=0))

    def psi(self, x, t, check_degenerate: bool = True) -> np.ndarray:
        """Field values on broadcastable real arrays x, t."""
        out = self.derivatives(x, t, orders=[(0, 0)],
                               check_degenerate=check_degenerate)
        return out["psi"]

    def degenerate_mask(self, x, t) -> np.ndarray:
        """True where f cancels past double precision (unreliable point):
        kappa_f = sum_j |term_j| / |f| exceeds 1 / CANCEL_TOL."""
        return self.derivatives(x, t, [(0, 0)],
                                check_degenerate=False)["degenerate"]

    def derivatives(self, x, t, orders: list[tuple[int, int]] = _ALL_ORDERS,
                    check_degenerate: bool = True) -> dict:
        """psi and its requested derivatives as arrays keyed by name.

        Keys: 'psi', 'psi_x', 'psi_xx', 'psi_xxx', 'psi_t' (as requested).
        Each order must come with the lower orders its recursion reads:
        (i, 0) with every (k, 0), k < i, and (0, 1) with (0, 0), and (0, 0)
        is always requested; ValueError names an unknown or missing order
        before any evaluation.  A point is degenerate where f cancels past
        double precision, |f| < CANCEL_TOL * sum_j |term_j|.  Raises
        DegeneratePointError if any point is degenerate and
        ``check_degenerate`` is set; pass False to get NaN there plus a
        'degenerate' boolean mask instead.  A NaN or infinite coordinate
        raises ValueError, and FieldOverflowError is raised where a term's
        exponent at a tile centre leaves double range; both before any
        evaluation.
        """
        _check_orders(orders)
        out = self._evaluate(x, t, orders)
        bad = out["degenerate"]
        if check_degenerate and np.any(bad):
            raise DegeneratePointError(
                "determinant cancellation beyond double precision at "
                f"{int(np.count_nonzero(bad))} point(s)")
        return out

    def _evaluate(self, x, t, orders: list[tuple[int, int]]) -> dict:
        """Named jets for ``orders`` and f's cancellation mask on
        broadcastable x, t, every one from _tiled.

        Ascending axes and scalars are evaluated as they are.  Any other
        point set is evaluated on the unique sorted values of x and of t and
        gathered: on the grid of unique x by unique t when it has no more
        cells than there are points, else on one x axis per distinct t.
        Either way no more grid cells are evaluated than points requested.
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast(x, t).shape
        axes = _tensor_axes(x, t, shape)
        if axes is not None:
            xs, ts, flip = axes
            _require_finite(xs, ts)
            return {k: v.T if flip else v.reshape(shape)
                    for k, v in self._tiled(xs, ts, orders).items()}
        # NumPy versions differ on the shape of the inverse
        xs, xi = np.unique(x, return_inverse=True)
        ts, ti = np.unique(t, return_inverse=True)
        _require_finite(xs, ts)
        xi, ti = np.broadcast_arrays(xi.reshape(x.shape),
                                     ti.reshape(t.shape))
        if len(xs) * len(ts) <= xi.size:
            return {k: v[xi, ti]
                    for k, v in self._tiled(xs, ts, orders).items()}
        # the distinct (x, t) cells in t-major order, in runs of one t
        cells, inverse = np.unique(ti * len(xs) + xi, return_inverse=True)
        ct, cx = np.divmod(cells, len(xs))
        cuts = [0, *(np.flatnonzero(np.diff(ct)) + 1).tolist(), len(cells)]
        out = {}
        for run in map(slice, cuts[:-1], cuts[1:]):
            part = self._tiled(xs[cx[run]], ts[ct[run][:1]], orders)
            for k, v in part.items():
                out.setdefault(k, np.empty(len(cells), v.dtype))[run] = \
                    v[:, 0]
        return {k: v[inverse.reshape(shape)] for k, v in out.items()}

    def _tile_slices(self, xs: np.ndarray, ts: np.ndarray
                     ) -> tuple[list, list]:
        """Tiles of the sorted axes xs and ts, cut by the slopes of the log
        scale."""
        return (list(_tiles(xs, self._x_slope)),
                list(_tiles(ts, self._t_slope)))

    def _check_range(self, xs: np.ndarray, ts: np.ndarray, x_tiles: list,
                     t_tiles: list) -> None:
        """Raise FieldOverflowError unless every term's exponent at every
        tile centre, G_j x_c - H_j t_c, is a finite double.

        While a bound on the exponent's parts stays below half the largest
        double, it settles this.  Past that the exponent is formed at the
        four pairs of the first and last tile centres, the extreme ones: it
        is linear in (x_c, t_c) and its rounding is monotone in each.
        """
        if not (x_tiles and t_tiles):
            return
        reach = (self._x_reach * max(abs(float(xs[0])), abs(float(xs[-1])))
                 + self._t_reach * max(abs(float(ts[0])), abs(float(ts[-1]))))
        if reach <= sys.float_info.max / 2:
            return
        with np.errstate(over="ignore", invalid="ignore"):
            xc = np.array([_centre(xs, x_tiles[0]), _centre(xs, x_tiles[-1])])
            tc = np.array([_centre(ts, t_tiles[0]), _centre(ts, t_tiles[-1])])
            finite = all(
                np.isfinite(np.multiply.outer(s.xrate, xc)[:, :, None]
                            + np.multiply.outer(s.trate, tc)[:, None]).all()
                for s in (self._f, self._g))
        if not finite:
            raise FieldOverflowError(
                "mode exponent outside double range on the grid x in "
                f"[{xs[0]:.6g}, {xs[-1]:.6g}], t in "
                f"[{ts[0]:.6g}, {ts[-1]:.6g}]")

    def _tile_iter(self, xs: np.ndarray, ts: np.ndarray,
                   orders: list[tuple[int, int]],
                   solve: list[tuple[int, int]] | None = None):
        """Tiled separable evaluation on the sorted tensor grid xs by ts.

        Cuts the tiles and checks their range (FieldOverflowError) before
        the first tile, then yields (xsl, tsl, jets, bad) per tile: the
        tile's slices of xs and ts, psi's named jets as arrays of the
        tile's shape, and the tile's mask of degenerate points, where every
        jet is NaN.  The tile products form f's and g's jets for ``orders``,
        and psi's are solved for ``solve`` (default ``orders``), a subset
        that _check_orders accepts.  BLAS may round a column of a product
        differently when the product is narrower, so a caller that needs
        fewer jets and the same bits passes them as ``solve``.
        """
        solve = orders if solve is None else solve
        x_tiles, t_tiles = self._tile_slices(xs, ts)
        self._check_range(xs, ts, x_tiles, t_tiles)
        f_tiles = self._f.tile_jets(xs, ts, x_tiles, t_tiles, orders,
                                    abs_sum=True)
        g_tiles = self._g.tile_jets(xs, ts, x_tiles, t_tiles, orders)
        for (xsl, tsl, fj, sf, total), (_, _, gj, sg, _) in zip(f_tiles,
                                                                 g_tiles):
            bad = np.abs(fj[(0, 0)]) < CANCEL_TOL * total
            jets = {_NAMES[o]: np.empty(bad.shape, dtype=complex)
                    for o in solve}
            with np.errstate(invalid="ignore", divide="ignore"):
                _ratio_jets({o: fj[o] for o in solve}, gj, np.exp(sg - sf),
                            jets)
            if bad.any():
                for v in jets.values():
                    v[bad] = np.nan
            yield xsl, tsl, jets, bad

    def _tiled(self, xs: np.ndarray, ts: np.ndarray,
               orders: list[tuple[int, int]]) -> dict:
        """_tile_iter's tiles gathered into arrays over the whole grid."""
        shape = (len(xs), len(ts))
        out = {_NAMES[o]: np.empty(shape, dtype=complex) for o in orders}
        out["degenerate"] = np.empty(shape, dtype=bool)
        for xsl, tsl, jets, bad in self._tile_iter(xs, ts, orders):
            out["degenerate"][xsl, tsl] = bad
            for key, v in jets.items():
                out[key][xsl, tsl] = v
        return out


@lru_cache(maxsize=64)
def compiled(sset: SolitonSet, medium: Medium) -> CompiledSolution:
    """Memoized compilation; SolitonSet and Medium are frozen and hashable."""
    return CompiledSolution(sset, medium)
