"""Compiled determinant-ratio representation of the trace solution.

The closed field psi = tr[B_x M^{-1}], M = I + (lam/8) D conj(D), equals a
ratio of two finite exponential sums,

    psi = g / f,   f = det(M),   g = det(M) * tr[B_x M^{-1}],

whose terms are constant coefficients times exp(G x - H t) with mode-sum
growth rates G, H.  With z_k = phi_k^2, w_k = conj(phi_k)^2, c = lam/8 and
the Hermitian Cauchy matrix A_mn = 1/(p_m + conj(p_n)), the Cauchy-Binet
formula gives every coefficient in closed form:

    f = sum_{|S| = |T|}     c^|T| det(A[S,T])^2         z^S w^T,
    g = sum_{|S| = |T| + 1} c^|T| det([A[S,T] | 1])^2   z^S w^T,

(squares because conj(A[T,S]) = A[S,T]^T).  Both minors are Cauchy
determinants, the second bordered by a column of ones, so each squared
minor is the product

    prod_{i<j in S} (p_j - p_i)^2  prod_{i<j in T} conj(p_j - p_i)^2
        prod_{i in S, j in T} A_ij^2,

which carries a relative error of a few ulps per factor and no cancellation,
even for near-coincident p (a repeated p gives an exactly zero coefficient).
The term (T, S) of f is the complex conjugate of the term (S, T), so f is
real and is stored as the half-sum over S <= T (subsets ordered by their
bit index) with weight 2 off the diagonal, of which only the real part is
taken.  The resulting evaluator is

  * exact (same analytic object as the dense solve),
  * stable everywhere after factoring out a log scale s, while the dense
    solve loses all accuracy where cond(M) blows up, and
  * trivially differentiable: every term is a pure exponential, so each
    x- or t-derivative just multiplies term j by G_j or -H_j.

On a tensor grid (x and t ascending along different axes) each term
splits as exp(G_j x) times exp(-H_j t).  The grid is cut into tiles; each
tile takes s from its centre (x_c, t_c), computes exp(G_j (x - x_c)) over
terms by tile-x and exp(-H_j (t - t_c)) over terms by tile-t, and forms all
requested jets in one BLAS product, with the derivative weights G^i H^l on
the small t-side factor.  The tile extents keep the scale inside a tile
within TILE_SPREAD of s, so working memory grows with the output, not with
terms by points.  Other point sets are scaled per point, in blocks of
bounded size.  Either path runs its BLAS products on one thread
(_OneBlasThread).

This module is the evaluation engine behind grid fields, analytic
derivatives, and therefore all residual checks.
"""

from __future__ import annotations

import ctypes
import os
import threading
from functools import lru_cache
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import Medium, SolitonSet, dispersion
from .errors import DegeneratePointError

#: |f|/max-term below which the determinant cancels past double precision
CANCEL_TOL = 1e-12
#: most that the log scale s(x, t) = max_j log|term_j(x, t)| moves inside a
#: tile, half along each axis.  Scaled terms and both separable factors
#: then stay within exp(+-128) ~ 1e+-56 of the tile centre's, a margin of
#: more than 570 to core.EXP_LIMIT, and of 580 to the underflow threshold.
TILE_SPREAD = 128.0
#: most points along one axis of a tile
TILE_POINTS = 128
#: complex elements of one terms-by-points block of the per-point path
BLOCK_ELEMS = 1 << 18


def _openblas_thread_calls():
    """(get, set) of the thread count of the OpenBLAS bundled with NumPy's
    wheels, if NumPy has loaded it, else None."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    root = Path(np.__file__).parent
    libs = [*(root.parent / "numpy.libs").glob("*openblas*"),
            *(root / ".dylibs").glob("*openblas*")]
    for path in sorted(libs) if noload is not None else []:
        try:
            lib = ctypes.CDLL(str(path), mode=noload)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get and put:
                    return get, put
    return None


class _OneBlasThread:
    """Context in which NumPy's OpenBLAS runs on one thread.

    The engine's products are small (a tile by a few hundred terms) and
    follow each other closely.  With BLAS on both cores of a 2-core Xeon
    VM, the throughput of residual_report on the 401x201 grid (N = 2..5)
    was 22 % lower in the median and spread 25 % (interquartile range over
    median) across eight processes, against 4 % on one thread.  The count
    in force before the outermost entry is restored on exit; without
    NumPy's bundled OpenBLAS this does nothing.
    """

    def __init__(self) -> None:
        self._calls = _openblas_thread_calls()
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = 0

    def __enter__(self) -> None:
        if self._calls:
            with self._lock:
                if not self._depth:
                    self._saved = self._calls[0]()
                    self._calls[1](1)
                self._depth += 1

    def __exit__(self, *exc) -> None:
        if self._calls:
            with self._lock:
                self._depth -= 1
                if not self._depth:
                    self._calls[1](self._saved)


_ONE_BLAS_THREAD = _OneBlasThread()


def _cauchy_binet_terms(p: np.ndarray, coupling: float, excess: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monomials and coefficients of f (``excess`` 0) or g (``excess`` 1).

    Returns boolean membership rows a (set S, variables z) and b (set T,
    variables w), one per pair with |S| = |T| + excess, and the complex
    coefficients c^|T| det(A[S,T])^2 (bordered by ones when excess is 1).
    For f only the pairs with S <= T by bit index are kept, those with
    S != T at twice their coefficient, so that f is the real part of the sum.
    """
    n = len(p)
    index = np.arange(1 << n)
    members = ((index[:, None] >> np.arange(n)) & 1).astype(bool)
    size = members.sum(axis=1)
    # squared Vandermonde factor of each subset
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    pairs = members[:, :, None] & members[:, None, :] & upper
    vdm = np.prod(np.where(pairs, (p[None, :] - p[:, None]) ** 2, 1),
                  axis=(1, 2))
    match = size[:, None] == size[None, :] + excess
    s_idx, t_idx = np.nonzero(match if excess
                              else match & (index[:, None] <= index))
    a = members[s_idx]
    b = members[t_idx]
    cross = a[:, :, None] & b[:, None, :]
    cauchy_sq = (1 / (p[:, None] + p.conj()[None, :])) ** 2
    coef = (coupling ** size[t_idx] * vdm[s_idx] * vdm[t_idx].conj()
            * np.prod(np.where(cross, cauchy_sq, 1), axis=(1, 2)))
    if not excess:
        coef *= 2 - (s_idx == t_idx)
    return a, b, coef


class _ExponentialSum:
    """Finite sum  sum_j Gamma_j exp(G_j x - ... )  with scaled evaluation.

    With ``real`` set the sum is the weighted half-sum of a real function
    (see _cauchy_binet_terms) and every jet is its real part.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, gamma: np.ndarray,
                 p: np.ndarray, a0: np.ndarray, om: np.ndarray,
                 real: bool = False) -> None:
        coef = (gamma
                * np.prod(np.where(a, a0 ** 2, 1), axis=1)
                * np.prod(np.where(b, a0.conj() ** 2, 1), axis=1))
        # a repeated p makes a Vandermonde factor, hence the term, exactly 0
        keep = coef != 0
        a, b = a[keep], b[keep]
        self.real = real
        self.coef = coef[keep]
        self.xrate = 2 * (a @ p + b @ p.conj())
        self.trate = -2 * (a @ om + b @ om.conj())
        # the scale is the largest single term, so a weight-2 pair counts once
        self.log_coef = np.log(np.abs(self.coef))
        if real:
            self.log_coef -= np.log(2) * (a != b).any(axis=1)

    def _weights(self, orders: list[tuple[int, int]]) -> np.ndarray:
        """Derivative weights G^i H^l, terms by orders."""
        return np.stack([self.xrate ** i * self.trate ** l
                         for i, l in orders], axis=1)

    def scaled_jets(self, x: np.ndarray, t: np.ndarray,
                    orders: list[tuple[int, int]]) -> tuple[dict, np.ndarray]:
        """Per-point scaled derivative sums and the log scale factor s.

        x and t are flat arrays of the same length.  Returns
        jets[(i, l)] = exp(-s) * d^i/dx^i d^l/dt^l of the sum, with s the
        log of the largest term at each point.
        """
        if not len(self.coef):
            return ({o: np.zeros(len(x)) for o in orders},
                    np.full(len(x), -np.inf))
        arg = (np.multiply.outer(self.xrate, x)
               + np.multiply.outer(self.trate, t))
        s = np.max(arg.real + self.log_coef[:, None], axis=0)
        terms = self.coef[:, None] * np.exp(arg - s)
        sums = self._weights(orders).T @ terms
        if self.real:
            sums = sums.real
        return dict(zip(orders, sums)), s

    def tile_jets(self, xs: np.ndarray, ts: np.ndarray, x_tiles: list,
                  t_tiles: list, orders: list[tuple[int, int]],
                  abs_sum: bool = False):
        """Scaled derivative sums on each tile of the sorted tensor grid xs
        by ts, cut by the slice lists x_tiles and t_tiles.

        Yields (xsl, tsl, jets, s, total) per tile: jets[(i, l)] of shape
        (tile nx, tile nt) scaled by exp(-s), s the log of the largest term
        at the tile centre, and, if ``abs_sum`` is set, sum_j |term_j| on
        the same scale.
        """
        if not len(self.coef):
            for xsl in x_tiles:
                for tsl in t_tiles:
                    yield (xsl, tsl, {o: np.zeros((xsl.stop - xsl.start,
                                                   tsl.stop - tsl.start))
                                      for o in orders}, -np.inf, None)
            return
        weights = self._weights(orders)

        def x_side(xsl):
            xc = 0.5 * (xs[xsl][0] + xs[xsl][-1])
            dx = xs[xsl] - xc
            mag = np.exp(np.multiply.outer(dx, self.xrate.real)) \
                if abs_sum else None
            return xsl, xc, np.exp(np.multiply.outer(dx, self.xrate)), mag

        def t_side(tsl):
            tc = 0.5 * (ts[tsl][0] + ts[tsl][-1])
            dt = ts[tsl] - tc
            et = np.exp(np.multiply.outer(self.trate, dt))
            mag = np.exp(np.multiply.outer(self.trate.real, dt)) \
                if abs_sum else None
            # the derivative weights ride on the t side; the right operand
            # of one real GEMM over 2 * terms: rows (Re, -Im) for f, and for
            # g the row pair (w, i w) as reals, whose product columns are
            # (Re, Im) of each complex sum
            if self.real:
                w = (weights[:, :, None] * et[:, None, :]).reshape(
                    len(et), -1)
                right = np.concatenate((w.real, -w.imag))
            else:
                w = (weights[:, None, :, None]
                     * np.array([1, 1j])[:, None, None]) * et[:, None, None, :]
                right = w.view(float).reshape(2 * len(et), -1)
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
            s = float(np.max(centre.real + self.log_coef))
            coef = self.coef * np.exp(centre - s)
            left = left * coef
            if self.real:
                sums = np.concatenate((left.real, left.imag), axis=1) @ right
            else:
                sums = (left.view(float) @ right).view(complex)
            sums = sums.reshape(len(left), len(orders), -1)
            jets = {o: sums[:, k] for k, o in enumerate(orders)}
            total = (xmag * np.abs(coef)) @ tmag if abs_sum else None
            yield xsl, tsl, jets, s, total


_ALL_ORDERS = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]
_NAMES = {(0, 0): "psi", (1, 0): "psi_x", (2, 0): "psi_xx",
          (3, 0): "psi_xxx", (0, 1): "psi_t"}


def _check_orders(orders: list[tuple[int, int]]) -> None:
    """Raise ValueError unless every order is one of _NAMES and comes with
    the lower orders that the Leibniz recursion in _ratio_jets reads."""
    for o in orders:
        if not isinstance(o, tuple) or o not in _NAMES:
            raise ValueError(f"unknown derivative order {o!r}; "
                             f"known orders are {list(_NAMES)}")
    for i, l in orders:
        for need in [(k, 0) for k in range(i)] + [(0, 0)] * l:
            if need not in orders:
                raise ValueError(f"derivative order {(i, l)} needs order "
                                 f"{need} in the same request")


def _ratio_jets(fj: dict, gj: dict, r, out: dict) -> None:
    """psi and its derivatives from scaled jets of f and g and the scale
    ratio r = exp(s_g - s_f), by Leibniz on g = psi * f solved for the
    highest derivative; written into the arrays ``out`` holds by name."""
    inv = 1 / fj[(0, 0)]
    psi = np.multiply(r * gj[(0, 0)], inv, out=out["psi"])
    if "psi_x" in out:
        psi_x = np.multiply(r * gj[(1, 0)] - psi * fj[(1, 0)], inv,
                            out=out["psi_x"])
    if "psi_xx" in out:
        psi_xx = np.multiply(r * gj[(2, 0)] - 2 * psi_x * fj[(1, 0)]
                             - psi * fj[(2, 0)], inv, out=out["psi_xx"])
    if "psi_xxx" in out:
        np.multiply(r * gj[(3, 0)] - 3 * psi_xx * fj[(1, 0)]
                    - 3 * psi_x * fj[(2, 0)] - psi * fj[(3, 0)], inv,
                    out=out["psi_xxx"])
    if "psi_t" in out:
        np.multiply(r * gj[(0, 1)] - psi * fj[(0, 1)], inv, out=out["psi_t"])


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


class CompiledSolution:
    """Per-(SolitonSet, Medium) compiled evaluator of the exact field."""

    def __init__(self, sset: SolitonSet, medium: Medium) -> None:
        self.n = len(sset)
        p = sset.p
        a0 = sset.a0
        om = np.array([dispersion(pk, medium) for pk in p], dtype=complex)
        c = medium.lam / 8
        self._f = _ExponentialSum(*_cauchy_binet_terms(p, c, 0), p, a0, om,
                                  real=True)
        self._g = _ExponentialSum(*_cauchy_binet_terms(p, c, 1), p, a0, om)

    def psi(self, x, t, check_degenerate: bool = True) -> np.ndarray:
        """Field values on broadcastable real arrays x, t."""
        out = self.derivatives(x, t, orders=[(0, 0)],
                               check_degenerate=check_degenerate)
        return out["psi"]

    def degenerate_mask(self, x, t) -> np.ndarray:
        """True where f cancels past double precision (unreliable point)."""
        return self._evaluate(x, t, [])["degenerate"]

    def derivatives(self, x, t, orders: list[tuple[int, int]] = _ALL_ORDERS,
                    check_degenerate: bool = True) -> dict:
        """psi and its requested derivatives as arrays keyed by name.

        Keys: 'psi', 'psi_x', 'psi_xx', 'psi_xxx', 'psi_t' (as requested).
        Each order must come with the lower orders its recursion reads:
        (i, 0) with every (k, 0), k < i, and (0, 1) with (0, 0); ValueError
        names an unknown or missing order before any evaluation.
        Raises DegeneratePointError if any point cancels past precision and
        ``check_degenerate`` is set; pass False to get NaN there plus a
        'degenerate' boolean mask instead.
        """
        _check_orders(orders)
        out = self._evaluate(x, t, orders)
        bad = out["degenerate"]
        if np.any(bad):
            if check_degenerate:
                raise DegeneratePointError(
                    "determinant cancellation beyond double precision at "
                    f"{int(np.count_nonzero(bad))} point(s)")
            for key in out:
                if key != "degenerate":
                    out[key] = np.where(bad, np.nan + 0j, out[key])
        return out

    def _evaluate(self, x, t, orders: list[tuple[int, int]]) -> dict:
        """Named jets for ``orders`` (f's cancellation mask alone when
        empty) on broadcastable x, t: tiled on tensor grids, else per
        point."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast(x, t).shape
        axes = _tensor_axes(x, t, shape)
        with _ONE_BLAS_THREAD:
            if axes is None or not np.prod(shape):
                xf, tf = (np.broadcast_to(v, shape).ravel() for v in (x, t))
                return {k: v.reshape(shape)
                        for k, v in self._pointwise(xf, tf, orders).items()}
            xs, ts, flip = axes
            return {k: v.T if flip else v.reshape(shape)
                    for k, v in self._tiled(xs, ts, orders).items()}

    def _pointwise(self, x: np.ndarray, t: np.ndarray,
                   orders: list[tuple[int, int]]) -> dict:
        """Per-point scaled evaluation of flat point arrays, in blocks of at
        most BLOCK_ELEMS terms by points."""
        names = [_NAMES[o] for o in orders]
        out = {key: np.empty(len(x), dtype=complex) for key in names}
        out["degenerate"] = np.empty(len(x), dtype=bool)
        block = max(1, BLOCK_ELEMS
                    // max(len(self._f.coef), len(self._g.coef)))
        for lo in range(0, len(x), block):
            sl = slice(lo, lo + block)
            fj, sf = self._f.scaled_jets(x[sl], t[sl], orders or [(0, 0)])
            out["degenerate"][sl] = np.abs(fj[(0, 0)]) < CANCEL_TOL
            if orders:
                gj, sg = self._g.scaled_jets(x[sl], t[sl], orders)
                with np.errstate(invalid="ignore", divide="ignore"):
                    _ratio_jets(fj, gj, np.exp(sg - sf),
                                {key: out[key][sl] for key in names})
        return out

    def _tile_slices(self, xs: np.ndarray, ts: np.ndarray
                     ) -> tuple[list, list]:
        """Tiles of the sorted axes xs and ts, cut by the slopes of the log
        scale: the largest |Re G| and |Re H| of any term."""
        sums = (self._f, self._g)
        return (list(_tiles(xs, max(np.abs(s.xrate.real).max(initial=0)
                                    for s in sums))),
                list(_tiles(ts, max(np.abs(s.trate.real).max(initial=0)
                                    for s in sums))))

    def _tiled(self, xs: np.ndarray, ts: np.ndarray,
               orders: list[tuple[int, int]]) -> dict:
        """Tiled separable evaluation on the sorted tensor grid xs by ts.

        A point passes the cancellation screen when |f| >= 2 CANCEL_TOL *
        sum_j |term_j|; since no single term exceeds that sum, such a point
        is not degenerate.  Points failing the screen are evaluated again
        per point, which decides their mask exactly.
        """
        shape = (len(xs), len(ts))
        names = [_NAMES[o] for o in orders]
        out = {key: np.empty(shape, dtype=complex) for key in names}
        suspect = np.zeros(shape, dtype=bool)
        x_tiles, t_tiles = self._tile_slices(xs, ts)
        f_tiles = self._f.tile_jets(xs, ts, x_tiles, t_tiles,
                                    orders or [(0, 0)], abs_sum=True)
        g_tiles = (self._g.tile_jets(xs, ts, x_tiles, t_tiles, orders)
                   if orders else repeat(None))
        for (xsl, tsl, fj, sf, total), g in zip(f_tiles, g_tiles):
            # the factor 2 covers the rounding of either path
            suspect[xsl, tsl] = np.abs(fj[(0, 0)]) < 2 * CANCEL_TOL * total
            if g is not None:
                _, _, gj, sg, _ = g
                with np.errstate(invalid="ignore", divide="ignore"):
                    _ratio_jets(fj, gj, np.exp(sg - sf),
                                {key: out[key][xsl, tsl] for key in names})
        out["degenerate"] = np.zeros(shape, dtype=bool)
        ix, it = np.nonzero(suspect)
        if len(ix):
            for key, v in self._pointwise(xs[ix], ts[it], orders).items():
                out[key][ix, it] = v
        return out


@lru_cache(maxsize=64)
def compiled(sset: SolitonSet, medium: Medium) -> CompiledSolution:
    """Memoized compilation; SolitonSet and Medium are frozen and hashable."""
    return CompiledSolution(sset, medium)
