"""Trigonometric modes on one frame of a ball, and the Gram forms that
make a curve's ledger a function of its mode coefficients.

The modes are 1, cos(k pi (t - t0) / T), sin(k pi (t - t0) / T),
k = 1..kmax.  A curve with mode coefficients c has radius B c at the
frame's nodes, so its dual length is linear in c and its mixed areas are
bilinear: every term of its isoperimetric ledger is a small form in c.
"""

from __future__ import annotations

import weakref
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ball import norm2
from .curve import (AdmissibleCurve, NodeTable, bbox_diameter, closure_tol,
                    convexity_sign)
from .inequalities import ledger_terms, minkowski_terms
from .quadrature import DEFAULT_CONFIG


class Gram(NamedTuple):
    """A Modes' ledger forms: G[j, k] is the symmetrised mixed area
    A(gamma_j, gamma_k) of modes j and k, each a curve from the origin;
    samples[:, k] and knots[k] are mode k's radius_samples and knots, read
    from row k of Modes.table."""

    G: np.ndarray
    samples: np.ndarray
    knots: np.ndarray


def per_ball(C, M):
    """C @ M, C of shape (rows, [balls,] m) and M ([balls,] m, X): each
    ball's rows times its matrix, in one product per ball."""
    return (C.swapaxes(0, -2) @ M).swapaxes(0, -2)


def _padded(arrays, axis):
    """The arrays stacked, each padded along axis by repeating its last
    entry, which leaves min, max and bounding boxes unchanged."""
    n = max(a.shape[axis] for a in arrays)
    return np.stack([np.take(a, np.minimum(np.arange(n), a.shape[axis] - 1),
                             axis) for a in arrays])


class Forms:
    """A curve's ledger as forms in its mode coefficients: every term is
    linear or quadratic in them, so the methods take a batch C of shape
    (rows, 2 kmax + 1) and read the Gram forms, never a node table.  A
    ModeStack's arrays carry a leading ball axis, and its C has shape
    (rows, balls, 2 kmax + 1): the same code runs on both."""

    def dual_lengths(self, C):
        """L* of each row."""
        return per_ball(C, self.duals[..., None])[..., 0]

    def areas(self, C1, C2=None):
        """The mixed area A(c1, c2) of each pair of rows, A(c1) alone."""
        return np.sum(per_ball(C1, self.gram.G) * (C1 if C2 is None else C2),
                      axis=-1)

    def diameters(self, C):
        """AdmissibleCurve.diameter of each row: the bounding-box
        diagonal of its knots."""
        knots = self.gram.knots
        points = per_ball(C, knots.reshape(knots.shape[:-2] + (-1,)))
        return bbox_diameter(points.reshape(points.shape[:-1]
                                            + knots.shape[-2:]))

    def closed(self, C):
        """Whether each row passes AdmissibleCurve's closure check, against
        the ball's diameter (a ModeStack's holds each of its balls')."""
        gap = norm2(per_ball(C, self.gaps))
        return gap <= closure_tol(gap, self, lambda: self.diameters(C))

    def radius_samples(self, C):
        """Each row's radius at every node and panel end of the frame, the
        NodeTable.radius_samples that is_convex reads."""
        return per_ball(C, self.gram.samples.swapaxes(-1, -2))

    def convexity(self, C):
        """is_convex's sign of each row, read at its radius_samples."""
        return convexity_sign(self.radius_samples(C))

    def ledger(self, C):
        """The fields of iso_ledger, and the Minkowski gap and its scale,
        for each row.

        The WC radius (r(t) - r(t + T)) / 2 is the odd-k part of c; the
        CWMS radius (r(t) + r(t + T) - w) / 2 the even part less w / 2 on
        the constant mode.  The three areas are one Gram product over the
        rows of C, odd and even together.  Convexity is not checked here
        (convexity()).
        """
        A_U = self.area
        L = self.dual_lengths(C)
        odd = C * self.odd
        even = C - odd
        even[..., 0] -= 0.5 * L / A_U
        # joined on the row axis and split back: one product per ball,
        # where stacked on an axis of their own they would take three
        A, A_odd, A_even = self.areas(np.concatenate([C, odd, even])).reshape(
            (3,) + L.shape)
        led = ledger_terms(L, np.broadcast_to(A_U, L.shape), A, 0.5 * A_odd,
                           A_even)
        led["minkowski_gap"], led["minkowski_scale"] = minkowski_terms(
            L, A_U, A)
        return led


class Modes(Forms):
    """The modes 1, cos(k pi (t - t0) / T), sin(...), k = 1..kmax, on one
    Frame of a ball chosen for all of them: their values at the nodes,
    closure gaps and dual lengths, and the ball's diameter; convex curves
    are lifted on the Gram forms' radius samples.  Holds no reference to
    the ball, which keys the cache weakly.
    """

    def __init__(self, ball, kmax):
        self.t_start, self.diameter = ball.t_start, ball.diameter
        self.freq = np.arange(1, kmax + 1) * np.pi / ball.T
        frame = self.frame = ball.frame(DEFAULT_CONFIG,
                                        lambda idx, t: self.values(t))
        self.area = frame.area
        self.nodes = self.values(frame.t)
        table = self.table()
        self.gaps, self.duals = table.gap, table.dual_length
        # g @ closer are the k = 1 coefficients that cancel a closure gap g
        self.closer = -np.linalg.inv(self.gaps[1:3])
        # under t -> t + T mode k picks up (-1)^k
        self.odd = (np.arange(2 * kmax + 1) + 1) // 2 % 2 == 1

    def values(self, t):
        """The modes at parameters t, shape t.shape + (2 kmax + 1,)."""
        phase = np.multiply.outer(np.asarray(t, dtype=float)
                                  - self.t_start, self.freq)
        out = np.empty(phase.shape[:-1] + (2 * len(self.freq) + 1,))
        out[..., 0] = 1.0
        out[..., 1::2] = np.cos(phase)
        out[..., 2::2] = np.sin(phase)
        return out

    def curve(self, ball, c, basepoint):
        """The closed curve on ball with mode coefficients c."""
        return AdmissibleCurve(
            ball, NodeTable(self.frame, self.nodes @ c, basepoint), basepoint)

    def table(self):
        """The modes' NodeTable, a row per mode from the origin (not kept)."""
        rows = np.ascontiguousarray(np.moveaxis(self.nodes, -1, 0))
        return NodeTable(self.frame, rows, np.zeros((len(rows), 2)))

    @cached_property
    def gram(self):
        """The Gram forms, from Modes.table with mixed_area's sums."""
        table, f = self.table(), self.frame
        gx, gy = np.moveaxis(table.gamma, -1, 0)
        wdu = f.weights[..., None] * f.du
        # Q[j, k] = 1/2 sum of w [gamma_j, r_k u'] over the nodes
        Q = 0.5 * (np.einsum("jpn,pn,pnk->jk", gx, wdu[..., 1], self.nodes)
                   - np.einsum("jpn,pn,pnk->jk", gy, wdu[..., 0], self.nodes))
        return Gram(G=0.5 * (Q + Q.T), samples=table.radius_samples().T,
                    knots=table.knots())


class ModeStack(Forms):
    """The Modes of several balls, their arrays stacked on a ball axis and
    the ragged ones padded."""

    def __init__(self, balls, kmax):
        self.members = [modes_of(ball, kmax) for ball in balls]
        for name in ("gaps", "closer", "duals", "area", "diameter"):
            setattr(self, name, np.stack([getattr(m, name)
                                          for m in self.members]))
        self.odd = self.members[0].odd

    @cached_property
    def gram(self):
        """The members' G, samples and knots, padded along their nodes."""
        grams = [m.gram for m in self.members]
        return Gram(*(_padded(a, axis)
                      for a, axis in zip(zip(*grams), (0, 0, 1))))


_MODES = weakref.WeakKeyDictionary()   # ball -> {kmax: Modes}


def modes_of(ball, kmax):
    """The Modes of ball up to kmax, built on first use and cached while
    the ball lives."""
    cached = _MODES.setdefault(ball, {})
    if kmax not in cached:
        cached[kmax] = Modes(ball, kmax)
    return cached[kmax]
