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
The resulting evaluator is

  * exact (same analytic object as the dense solve),
  * stable everywhere after factoring out the largest exponent per point,
    while the dense solve loses all accuracy where cond(M) blows up, and
  * trivially differentiable: every term is a pure exponential, so each
    x- or t-derivative just multiplies term j by G_j or -H_j.

This module is the evaluation engine behind grid fields, analytic
derivatives, and therefore all residual checks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .core import Medium, SolitonSet, dispersion
from .errors import DegeneratePointError

#: |f|/max-term below which the determinant cancels past double precision
CANCEL_TOL = 1e-12


def _cauchy_binet_terms(p: np.ndarray, coupling: float, excess: int
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monomials and coefficients of f (``excess`` 0) or g (``excess`` 1).

    Returns boolean membership rows a (set S, variables z) and b (set T,
    variables w), one per pair with |S| = |T| + excess, and the complex
    coefficients c^|T| det(A[S,T])^2 (bordered by ones when excess is 1).
    """
    n = len(p)
    members = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    size = members.sum(axis=1)
    # squared Vandermonde factor of each subset
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    pairs = members[:, :, None] & members[:, None, :] & upper
    vdm = np.prod(np.where(pairs, (p[None, :] - p[:, None]) ** 2, 1),
                  axis=(1, 2))
    s_idx, t_idx = np.nonzero(size[:, None] == size[None, :] + excess)
    a = members[s_idx]
    b = members[t_idx]
    cross = a[:, :, None] & b[:, None, :]
    cauchy_sq = (1 / (p[:, None] + p.conj()[None, :])) ** 2
    coef = (coupling ** size[t_idx] * vdm[s_idx] * vdm[t_idx].conj()
            * np.prod(np.where(cross, cauchy_sq, 1), axis=(1, 2)))
    return a, b, coef


class _ExponentialSum:
    """Finite sum  sum_j Gamma_j exp(G_j x - ... )  with scaled evaluation."""

    def __init__(self, a: np.ndarray, b: np.ndarray, gamma: np.ndarray,
                 p: np.ndarray, a0: np.ndarray, om: np.ndarray) -> None:
        coef = (gamma
                * np.prod(np.where(a, a0 ** 2, 1), axis=1)
                * np.prod(np.where(b, a0.conj() ** 2, 1), axis=1))
        # a repeated p makes a Vandermonde factor, hence the term, exactly 0
        keep = coef != 0
        self.empty = not keep.any()
        if self.empty:
            return
        a, b = a[keep], b[keep]
        self.coef = coef[keep]
        self.xrate = 2 * (a @ p + b @ p.conj())
        self.trate = -2 * (a @ om + b @ om.conj())
        self.log_coef = np.log(np.abs(self.coef))

    def scaled_jets(self, x: np.ndarray, t: np.ndarray,
                    orders: list[tuple[int, int]]) -> tuple[dict, np.ndarray]:
        """Per-point scaled derivative sums and the log scale factor s.

        Returns jets[(i, l)] = exp(-s) * d^i/dx^i d^l/dt^l of the sum.
        """
        if self.empty:
            shape = np.broadcast(x, t).shape
            return ({o: np.zeros(shape, dtype=complex) for o in orders},
                    np.full(shape, -np.inf))
        arg = (np.multiply.outer(self.xrate, x)
               + np.multiply.outer(self.trate, t))
        s = np.max(arg.real + self.log_coef.reshape(
            (-1,) + (1,) * (arg.ndim - 1)), axis=0)
        terms = self.coef.reshape((-1,) + (1,) * (arg.ndim - 1)) \
            * np.exp(arg - s)
        jets = {}
        for (i, l) in orders:
            mult = (self.xrate ** i * self.trate ** l).reshape(
                (-1,) + (1,) * (arg.ndim - 1))
            jets[(i, l)] = np.sum(mult * terms, axis=0)
        return jets, s


_ALL_ORDERS = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 1)]


class CompiledSolution:
    """Per-(SolitonSet, Medium) compiled evaluator of the exact field."""

    def __init__(self, sset: SolitonSet, medium: Medium) -> None:
        self.n = len(sset)
        p = sset.p
        a0 = sset.a0
        om = np.array([dispersion(pk, medium) for pk in p], dtype=complex)
        c = medium.lam / 8
        self._f = _ExponentialSum(*_cauchy_binet_terms(p, c, 0), p, a0, om)
        self._g = _ExponentialSum(*_cauchy_binet_terms(p, c, 1), p, a0, om)

    def psi(self, x, t, check_degenerate: bool = True) -> np.ndarray:
        """Field values on broadcastable real arrays x, t."""
        out = self.derivatives(x, t, orders=[(0, 0)],
                               check_degenerate=check_degenerate)
        return out["psi"]

    def degenerate_mask(self, x, t) -> np.ndarray:
        """True where f cancels past double precision (unreliable point)."""
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        fj, _ = self._f.scaled_jets(x, t, [(0, 0)])
        return np.abs(fj[(0, 0)]) < CANCEL_TOL

    def derivatives(self, x, t, orders: list[tuple[int, int]] = _ALL_ORDERS,
                    check_degenerate: bool = True) -> dict:
        """psi and its requested derivatives as arrays keyed by name.

        Keys: 'psi', 'psi_x', 'psi_xx', 'psi_xxx', 'psi_t' (as requested).
        Raises DegeneratePointError if any point cancels past precision and
        ``check_degenerate`` is set; pass False to get NaN there plus a
        'degenerate' boolean mask instead.
        """
        x = np.asarray(x, dtype=float)
        t = np.asarray(t, dtype=float)
        shape = np.broadcast(x, t).shape
        if self.n == 0:
            out = {_name(o): np.zeros(shape, dtype=complex) for o in orders}
            out["degenerate"] = np.zeros(shape, dtype=bool)
            return out
        fj, sf = self._f.scaled_jets(x, t, orders)
        gj, sg = self._g.scaled_jets(x, t, orders)
        f0 = fj[(0, 0)]
        bad = np.abs(f0) < CANCEL_TOL
        if check_degenerate and np.any(bad):
            raise DegeneratePointError(
                "determinant cancellation beyond double precision at "
                f"{int(np.count_nonzero(bad))} point(s)")
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.exp(sg - sf)
            out = {}
            psi = r * gj[(0, 0)] / f0
            out["psi"] = psi
            # Leibniz on g = psi * f, solved for the highest derivative
            if (1, 0) in orders:
                out["psi_x"] = (r * gj[(1, 0)] - psi * fj[(1, 0)]) / f0
            if (2, 0) in orders:
                out["psi_xx"] = (r * gj[(2, 0)] - 2 * out["psi_x"] * fj[(1, 0)]
                                 - psi * fj[(2, 0)]) / f0
            if (3, 0) in orders:
                out["psi_xxx"] = (r * gj[(3, 0)] - 3 * out["psi_xx"] * fj[(1, 0)]
                                  - 3 * out["psi_x"] * fj[(2, 0)]
                                  - psi * fj[(3, 0)]) / f0
            if (0, 1) in orders:
                out["psi_t"] = (r * gj[(0, 1)] - psi * fj[(0, 1)]) / f0
        if np.any(bad):
            for key in out:
                out[key] = np.where(bad, np.nan + 0j, out[key])
        out["degenerate"] = bad
        return out


def _name(order: tuple[int, int]) -> str:
    return {(0, 0): "psi", (1, 0): "psi_x", (2, 0): "psi_xx",
            (3, 0): "psi_xxx", (0, 1): "psi_t"}[order]


@lru_cache(maxsize=64)
def compiled(sset: SolitonSet, medium: Medium) -> CompiledSolution:
    """Memoized compilation; SolitonSet and Medium are frozen and hashable."""
    return CompiledSolution(sset, medium)
