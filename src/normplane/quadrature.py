"""Adaptive Gauss-Legendre quadrature for piecewise-smooth integrands, and
the Legendre operators that turn values at a panel's nodes into series.

integrate chooses panels by chopping Legendre series (Trefethen,
Approximation Theory and Approximation Practice, 2013; Aurentz and
Trefethen, "Chopping a Chebyshev series", ACM TOMS, 2017): a panel is
sampled at twice the nodes a leaf keeps, and one whose series has decayed
before the leaf's last coefficients is accepted as it is; any other is
halved."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre

from .errors import NoConvergence


# the chop test reads a panel's series from degree nodes_per_panel - _TAIL
# up, so a leaf's last _TAIL coefficients too: two, so that an integrand
# odd or even about the panel's middle cannot pass on a vanishing
# coefficient of the other parity
_TAIL = 2


def _is(value, kind):
    """Whether value is a number of kind (numbers.Real or Integral); a bool
    is not one."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass(frozen=True)
class QuadratureConfig:
    nodes_per_panel: int = 32
    rel_tol: float = 1e-10
    abs_tol: float = 1e-14  # floor for integrands that are essentially zero
    max_depth: int = 12

    def __post_init__(self):
        # NaN fails every comparison; the tail must leave a panel's series
        # a head to accept
        n, rel, floor, depth = (self.nodes_per_panel, self.rel_tol,
                                self.abs_tol, self.max_depth)
        for name, ok, what in (
                ("nodes_per_panel", _is(n, numbers.Integral) and n > _TAIL,
                 f"an integer > {_TAIL}"),
                ("rel_tol", _is(rel, numbers.Real) and 0 < rel < math.inf,
                 "positive and finite"),
                ("abs_tol", _is(floor, numbers.Real)
                 and 0 <= floor < math.inf, "non-negative and finite"),
                ("max_depth", _is(depth, numbers.Integral) and depth >= 0,
                 "a non-negative integer")):
            if not ok:
                raise ValueError(
                    f"{name} must be {what}, got {getattr(self, name)!r}")


DEFAULT_CONFIG = QuadratureConfig()


@lru_cache(maxsize=32)
def gauss_legendre(n):
    """Nodes and weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


def panel(f, a, b, n):
    """Fixed n-node Gauss-Legendre estimate of the integral of f over [a, b],
    and the values of f at the nodes.

    a and b are scalars, or arrays of one shape S holding one panel each.
    f maps a 1-D array of parameters, the nodes of every panel in turn, to
    an array whose first axis matches it; trailing axes (e.g. vector
    components) are integrated componentwise.  The sums have shape S plus
    those trailing axes; the values are f's, shape (S's size, n, C) with
    the trailing axes flattened to C.
    """
    x, w = gauss_legendre(n)
    a = np.asarray(a, dtype=float)
    half = 0.5 * (b - a)
    ts = (0.5 * (a + b))[..., None] + half[..., None] * x
    vals = np.asarray(f(ts.ravel()), dtype=float)
    tail = vals.shape[1:]
    vals = vals.reshape((-1, n, vals[0].size))
    sums = w @ vals
    return (half.reshape(-1, 1) * sums).reshape(a.shape + tail), vals


def _chop(vals, quad):
    """The chop test of panels with values vals (P, 2n, C) at 2n Gauss
    nodes, n = nodes_per_panel: the largest Legendre coefficient of each
    panel's interpolant from degree n - _TAIL up, over all components; the
    largest value, its scale; and whether the first is at most
    max(rel_tol * scale, abs_tol)."""
    n = quad.nodes_per_panel
    tail = legendre_operators(2 * n)[0][n - _TAIL:]
    err = np.abs(tail @ vals).reshape(len(vals), -1).max(axis=1)
    scale = np.abs(vals).reshape(len(vals), -1).max(axis=1)
    return err, scale, err <= np.maximum(quad.rel_tol * scale, quad.abs_tol)


def integrate(f, a, b, quad=DEFAULT_CONFIG, leaves=None):
    """Adaptive Gauss-Legendre integral of f over [a, b], or over each
    interval [a[k], b[k]] when a and b are 1-D arrays, on panels chosen by
    the decay of f's Legendre series.

    The rule runs level by level.  Each level is one panel call with
    2 nodes_per_panel nodes on every panel still open, on all intervals,
    so f sees the nodes of the open panels interval by interval, each
    interval's panels in increasing order.  A panel is accepted when its
    interpolant's Legendre coefficients from degree nodes_per_panel - 2 up
    are at most max(rel_tol * scale, abs_tol) in every component, scale
    being f's largest magnitude there (see _chop): a series of degree
    below nodes_per_panel - 2 then holds f at twice the nodes a leaf reads
    it on, so a feature between those nodes is sampled too.  An accepted
    panel's sum is its value, and any other is halved.  A panel still open
    at max_depth raises NoConvergence.

    When leaves is a list and some interval is not empty, the accepted
    panels are appended to it as one (k, 2) array of (lo, hi) rows,
    interval by interval and each in increasing order; the integral is the
    sum of the 2 nodes_per_panel-point rule over exactly those panels,
    added in the order of the halving tree.  If level 0 accepts all, as
    for a polygon, the intervals are the leaves.
    """
    scalar = np.ndim(a) == 0
    lo = np.atleast_1d(np.asarray(a, dtype=float))
    hi = np.atleast_1d(np.asarray(b, dtype=float))
    owner = np.flatnonzero(lo != hi)   # the interval of each open panel
    if not len(owner):
        probe = np.asarray(f(lo[:1]), dtype=float)
        total = np.zeros(lo.shape + probe.shape[1:])
        return total[0] if scalar else total
    a, b = lo[owner], hi[owner]
    levels = []   # per level: owner, a, b, accepted, value
    for depth in range(quad.max_depth + 1):
        value, vals = panel(f, a, b, 2 * quad.nodes_per_panel)
        err, scale, ok = _chop(vals, quad)
        levels.append((owner, a, b, ok, value))
        if ok.all():
            break
        if depth == quad.max_depth:
            k = int(np.argmin(ok))
            raise NoConvergence(
                f"quadrature did not converge on [{float(a[k])}, "
                f"{float(b[k])}] (error {err[k]:.3e}, scale {scale[k]:.3e})")
        m = 0.5 * (a + b)
        owner = np.repeat(owner[~ok], 2)
        a, b = (np.column_stack([a[~ok], m[~ok]]).ravel(),
                np.column_stack([m[~ok], b[~ok]]).ravel())
    # a halved panel's value is its halves' values added, deepest first
    value = levels[-1][-1]
    for _, _, _, ok, sums in reversed(levels[:-1]):
        sums[~ok] = value[0::2] + value[1::2]
        value = sums
    total = np.zeros(lo.shape + value.shape[1:])
    total[levels[0][0]] = value
    if leaves is not None:
        if len(levels) > 1:   # else a, b are level 0's panels, in order
            owner, a, b = (np.concatenate([lv[j][lv[3]] for lv in levels])
                           for j in range(3))
            order = np.lexsort((a, owner))
            a, b = a[order], b[order]
        leaves.append(np.column_stack([a, b]))
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
