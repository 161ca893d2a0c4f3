"""Adaptive Gauss-Legendre quadrature for piecewise-smooth integrands, and
the Legendre operators that turn values at a panel's nodes into series."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import NoConvergence


@dataclass(frozen=True)
class QuadratureConfig:
    nodes_per_panel: int = 32
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14  # floor for integrands that are essentially zero
    max_depth: int = 12

    def __post_init__(self):
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")
        if self.nodes_per_panel < 2:
            raise ValueError("need at least 2 nodes per panel")


DEFAULT_CONFIG = QuadratureConfig()


@lru_cache(maxsize=32)
def gauss_legendre(n):
    """Nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel(f, a, b, n):
    """Fixed n-node Gauss-Legendre estimate of the integral of f over [a, b].

    a and b are scalars, or arrays of one shape S holding one panel each.
    f maps a 1-D array of parameters, the nodes of every panel in turn, to
    an array whose first axis matches it; trailing axes (e.g. vector
    components) are integrated componentwise.  The result has shape S plus
    those trailing axes.
    """
    x, w = gauss_legendre(n)
    a = np.asarray(a, dtype=float)
    half = 0.5 * (b - a)
    ts = (0.5 * (a + b))[..., None] + half[..., None] * x
    vals = np.asarray(f(ts.ravel()), dtype=float)
    tail = vals.shape[1:]
    sums = w @ vals.reshape((-1, n, vals[0].size))
    return (half.reshape(-1, 1) * sums).reshape(a.shape + tail)


def integrate(f, a, b, quad=DEFAULT_CONFIG, leaves=None):
    """Adaptive panel-halving integral of f over [a, b], or over each
    interval [a[k], b[k]] when a and b are 1-D arrays.

    The rule runs level by level.  At each level the two halves of every
    panel still open, on all intervals, are estimated in one panel call, so
    f sees the nodes of the open panels interval by interval, each
    interval's panels in increasing order.  A panel is accepted when its
    halves' sum agrees with it to within max(rel_tol * scale, abs_tol) in
    every component; a panel still open at max_depth raises NoConvergence.

    When leaves is a list, the accepted panels are appended to it as
    (lo, hi) pairs, interval by interval and each in increasing order; the
    integral is the sum of the nodes_per_panel-point rule over exactly
    those panels, added in the order of the halving tree.  If level 0
    accepts all, as for a polygon, its halves are the leaves, in order.
    """
    scalar = np.ndim(a) == 0
    lo = np.atleast_1d(np.asarray(a, dtype=float))
    hi = np.atleast_1d(np.asarray(b, dtype=float))
    owner = np.flatnonzero(lo != hi)   # the interval of each open panel
    if not len(owner):
        probe = np.asarray(f(lo[:1]), dtype=float)
        total = np.zeros(lo.shape + probe.shape[1:])
        return total[0] if scalar else total
    n = quad.nodes_per_panel
    a, b = lo[owner], hi[owner]
    whole = panel(f, a, b, n)
    levels = []   # per level: owner, a, m, b, accepted, value
    for depth in range(quad.max_depth + 1):
        m = 0.5 * (a + b)
        left, right = (np.column_stack([a, m]).ravel(),
                       np.column_stack([m, b]).ravel())
        halves = panel(f, left, right, n)
        refined = halves[0::2] + halves[1::2]
        flat = (len(a), -1)
        err = np.abs(whole - refined).reshape(flat).max(axis=1)
        scale = np.maximum(np.abs(refined).reshape(flat).max(axis=1),
                           np.abs(whole).reshape(flat).max(axis=1))
        ok = err <= np.maximum(quad.rel_tol * scale, quad.abs_tol)
        levels.append((owner, a, m, b, ok, refined))
        if ok.all():
            break
        if depth == quad.max_depth:
            k = int(np.argmin(ok))
            raise NoConvergence(
                f"quadrature did not converge on [{float(a[k])}, "
                f"{float(b[k])}] (error {err[k]:.3e}, scale {scale[k]:.3e})")
        owner = np.repeat(owner[~ok], 2)
        a, b = (np.column_stack([a[~ok], m[~ok]]).ravel(),
                np.column_stack([m[~ok], b[~ok]]).ravel())
        whole = halves[np.repeat(~ok, 2)]
    # a refined panel's value is its halves' values added, deepest first
    value = levels[-1][-1]
    for _, _, _, _, ok, refined in reversed(levels[:-1]):
        refined[~ok] = value[0::2] + value[1::2]
        value = refined
    total = np.zeros(lo.shape + value.shape[1:])
    total[levels[0][0]] = value
    if leaves is not None and len(levels) > 1:
        owner, a, m, b = (np.concatenate([lv[j][lv[4]] for lv in levels])
                          for j in range(4))
        order = np.lexsort((a, owner))
        ends = np.column_stack([a, m, b])[order]
        left, right = ends[:, :2].ravel(), ends[:, 1:].ravel()
    if leaves is not None:
        leaves += zip(left.tolist(), right.tolist())
    return total[0] if scalar else total


@lru_cache(maxsize=32)
def legendre_operators(n):
    """Matrices acting on the values of a function at the n Gauss nodes.

    Returns (L, M, C): L (n x n) gives the Legendre coefficients of the
    interpolant; M ((n+1) x n) the coefficients of its integral from -1;
    C (n x n) the values of that integral at the nodes (the cumulative
    integration matrix).  All act on [-1, 1]; scale by half the panel
    length for a panel.
    """
    x, w = gauss_legendre(n)
    V = legendre.legvander(x, n - 1)
    L = (V * w[:, None]).T * (np.arange(n) + 0.5)[:, None]
    M = legendre.legint(L, lbnd=-1)
    C = legendre.legvander(x, n) @ M
    for op in (L, M, C):
        op.flags.writeable = False
    return L, M, C
