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

    f maps an array of parameters to an array whose first axis matches the
    input; trailing axes (e.g. vector components) are integrated
    componentwise.
    """
    x, w = gauss_legendre(n)
    ts = 0.5 * (a + b) + 0.5 * (b - a) * x
    vals = np.asarray(f(ts), dtype=float)
    return 0.5 * (b - a) * np.tensordot(w, vals, axes=(0, 0))


def _adapt(f, a, b, whole, quad, depth, leaves):
    m = 0.5 * (a + b)
    left = panel(f, a, m, quad.nodes_per_panel)
    right = panel(f, m, b, quad.nodes_per_panel)
    refined = left + right
    err = np.max(np.abs(whole - refined))
    scale = max(np.max(np.abs(refined)), np.max(np.abs(whole)))
    if err <= max(quad.rel_tol * scale, quad.abs_tol):
        if leaves is not None:
            leaves += [(a, m), (m, b)]
        return refined
    if depth >= quad.max_depth:
        raise NoConvergence(
            f"quadrature did not converge on [{a}, {b}] "
            f"(error {err:.3e}, scale {scale:.3e})")
    return (_adapt(f, a, m, left, quad, depth + 1, leaves)
            + _adapt(f, m, b, right, quad, depth + 1, leaves))


def integrate(f, a, b, quad=DEFAULT_CONFIG, leaves=None):
    """Adaptive panel-halving integral of f over [a, b].

    When leaves is a list, the accepted panels are appended to it as
    (lo, hi) pairs in increasing order; the integral is the sum of the
    nodes_per_panel-point rule over exactly those panels.
    """
    if a == b:
        probe = np.asarray(f(np.array([a])), dtype=float)
        return np.zeros(probe.shape[1:])[()] if probe.ndim > 1 else 0.0
    whole = panel(f, a, b, quad.nodes_per_panel)
    return _adapt(f, a, b, whole, quad, 0, leaves)


def integrate_piecewise(f, partition, quad=DEFAULT_CONFIG):
    """Integrate over consecutive intervals of a partition, summing results.

    The partition is the increasing sequence of breakpoints; the integrand
    must be smooth in the interior of each interval.
    """
    partition = np.asarray(partition, dtype=float)
    total = None
    for a, b in zip(partition[:-1], partition[1:]):
        part = integrate(f, a, b, quad)
        total = part if total is None else total + part
    return total


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
