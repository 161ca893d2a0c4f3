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

from .curve import (AdmissibleCurve, NodeTable, NodeValues, bbox_diameter,
                    closure_tol, convexity_sign)
from .inequalities import ledger_terms, minkowski_terms
from .quadrature import DEFAULT_CONFIG


class Gram(NamedTuple):
    """A Modes' ledger forms: G[j, k] is the symmetrised mixed area
    A(gamma_j, gamma_k) of modes j and k, each mode's node-table curve from
    the origin; samples[:, k] is mode k's radius at the nodes and both ends
    of each panel, as NodeTable.radius_samples reads them; knots[k] is mode
    k's curve at every panel start and node, as NodeTable.knots lists
    them."""

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

    def closed(self, ball, C):
        """Whether each row passes AdmissibleCurve's closure check on ball
        (a ModeStack passes itself: its diameter holds its balls')."""
        gap = np.linalg.norm(per_ball(C, self.gaps), axis=-1)
        return gap <= closure_tol(gap, ball, lambda: self.diameters(C))

    def convexity(self, C):
        """is_convex's sign of each row, read at the same nodes and panel
        ends."""
        return convexity_sign(per_ball(C, self.gram.samples.swapaxes(-1, -2)))

    def ledger(self, C):
        """The fields of iso_ledger, and the Minkowski gap and its scale,
        for each row.

        The WC radius (r(t) - r(t + T)) / 2 is the odd-k part of c; the
        CWMS radius (r(t) + r(t + T) - w) / 2 the even part less w / 2 on
        the constant mode.  Convexity is not checked here (convexity()).
        """
        A_U = self.area
        L = self.dual_lengths(C)
        A = self.areas(C)
        odd = C * self.odd
        even = C - odd
        even[..., 0] -= 0.5 * L / A_U
        led = ledger_terms(L, np.broadcast_to(A_U, L.shape), A,
                           0.5 * self.areas(odd), self.areas(even))
        led["minkowski_gap"], led["minkowski_scale"] = minkowski_terms(
            L, A_U, A)
        return led


class Modes(Forms):
    """The modes 1, cos(k pi (t - t0) / T), sin(...), k = 1..kmax, on one
    Frame of a ball chosen for all of them: their values at the nodes and
    on the lift grid, closure gaps and dual lengths.  Holds no reference
    to the ball, which keys the cache weakly.
    """

    def __init__(self, ball, kmax):
        self.t_start = ball.t_start
        self.freq = np.arange(1, kmax + 1) * np.pi / ball.T
        frame = self.frame = ball.frame(DEFAULT_CONFIG,
                                        lambda idx, t: self.values(t))
        self.area = frame.area
        self.nodes = self.values(frame.t)
        self.gaps = np.einsum("pk,pkm,pkd->md", frame.weights, self.nodes,
                              frame.du)
        # g @ closer are the k = 1 coefficients that cancel a closure gap g
        self.closer = -np.linalg.inv(self.gaps[1:3])
        self.duals = frame.integral(self.nodes * frame.cross[..., None])
        # the modes on the lift grid, 200 points a piece, a column a point
        self.grid = self.values(np.concatenate(
            [np.linspace(p.t0, p.t1, 200) for p in ball.pieces])).T
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
        return AdmissibleCurve(ball, NodeValues(self.frame, self.nodes @ c),
                               basepoint)

    @cached_property
    def gram(self):
        """The Gram forms, built on first use from each mode's node table
        from the origin with the same sums as mixed_area."""
        frame, m = self.frame, self.nodes.shape[-1]
        P = len(frame.lo)
        knots = np.empty((m, P + frame.t.size, 2))
        samples = np.empty((P * (frame.n + 2), m))
        for k in range(m):
            table = NodeTable(frame, self.nodes[..., k], np.zeros(2))
            knots[k] = table.knots()
            samples[:, k] = table.radius_samples()
        # Q[j, k] = 1/2 sum of w [gamma_j, r_k u'] over the nodes, gamma_j
        # the knots after the panel starts
        gamma = knots[:, P:].reshape((m,) + frame.du.shape)
        wdu = frame.weights[..., None] * frame.du
        Q = 0.5 * (np.einsum("jpn,pn,pnk->jk", gamma[..., 0], wdu[..., 1],
                             self.nodes)
                   - np.einsum("jpn,pn,pnk->jk", gamma[..., 1], wdu[..., 0],
                               self.nodes))
        return Gram(G=0.5 * (Q + Q.T), samples=samples, knots=knots)


class ModeStack(Forms):
    """The Modes of several balls, their arrays stacked on a ball axis and
    the ragged ones padded.  gram is read from the members on every use
    and restacked when one of theirs is replaced."""

    def __init__(self, balls, kmax):
        self.members = [modes_of(ball, kmax) for ball in balls]
        for name in ("gaps", "closer", "duals", "area"):
            setattr(self, name, np.stack([getattr(m, name)
                                          for m in self.members]))
        self.diameter = np.array([ball.diameter for ball in balls])
        self.grid = _padded([m.grid for m in self.members], -1)
        self.odd = self.members[0].odd
        self._grams = [None] * len(balls)

    @property
    def gram(self):
        grams = [m.gram for m in self.members]
        if any(g is not h for g, h in zip(grams, self._grams)):
            # G, samples and knots, padded along their nodes
            self._grams, self._gram = grams, Gram(*(
                _padded(a, axis) for a, axis in zip(zip(*grams), (0, 0, 1))))
        return self._gram


_MODES = weakref.WeakKeyDictionary()   # ball -> {kmax: Modes}


def modes_of(ball, kmax):
    """The Modes of ball up to kmax, built on first use and cached while
    the ball lives."""
    cached = _MODES.setdefault(ball, {})
    if kmax not in cached:
        cached[kmax] = Modes(ball, kmax)
    return cached[kmax]
