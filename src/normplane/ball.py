"""Piecewise-smooth origin-symmetric unit balls and their dual points.

A ball boundary is an ordered, contiguous list of pieces over a parameter
range [t_start, t_start + 2T].  Each piece is either a strictly convex
smooth arc, held as its point, velocity and acceleration callables, or a
straight segment.  Piece i + n must be the antipodal copy of piece i, so
u(t + T) = -u(t); build_ball can derive that half from the first.
"""

from __future__ import annotations

import math
import weakref
from functools import cached_property, lru_cache

import numpy as np

from . import expressions as ex
from .errors import (DegenerateDual, DegeneratePiece, DomainError, NotClosed,
                     NotConvex, NotSymmetric, UnknownBuiltin, ValidationError)
from .quadrature import DEFAULT_CONFIG, gauss_legendre, integrate


def cross2(a, b):
    """z-component of the cross product of planar vectors (last axis = 2)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def norm2(v):
    """|v| on a last axis of 2, bit for bit np.linalg.norm(v, axis=-1)."""
    return np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2)


def following(a):
    """a[i + 1] at every i, cyclically along the first axis: the values of
    np.roll(a, -1, axis=0) at a fraction of its cost."""
    return np.concatenate([a[1:], a[:1]])


def _interval(t0, t1):
    if not t0 < t1:
        raise ValidationError(f"piece interval [{t0}, {t1}] is empty")
    return float(t0), float(t1)


def _stacked(fx, fy):
    return lambda t: np.stack([fx(t), fy(t)], axis=-1)


class Piece:
    """One boundary piece: a smooth arc given by its point, velocity and
    acceleration callables (straight pieces are Segments)."""

    kind = "arc"

    def __init__(self, point, velocity, accel, t0, t1):
        self.t0, self.t1 = _interval(t0, t1)
        self.point, self.velocity, self.accel = point, velocity, accel

    @classmethod
    def arc(cls, x_expr, y_expr, t0, t1):
        """The arc (x_expr, y_expr) with its two derivatives, each
        compiled once per text (expressions.compiled)."""
        fns = [[ex.compiled(e, k) for k in range(3)] for e in (x_expr, y_expr)]
        return cls(*map(_stacked, *fns), t0, t1)

    @staticmethod
    def segment(p0, p1, t0, t1):
        return Segment(p0, p1, t0, t1)

    def _affine(self, c, shift):
        """The piece c * u(t - shift) on [t0 + shift, t1 + shift]; nothing
        is parsed or compiled again."""
        return Piece(*(lambda t, f=f: c * f(np.subtract(t, shift))
                       for f in (self.point, self.velocity, self.accel)),
                     self.t0 + shift, self.t1 + shift)

    def negated_shifted(self, shift):
        """The antipodal copy: u_new(t) = -u(t - shift) on [t0+shift, t1+shift]."""
        return self._affine(-1.0, shift)

    def scaled(self, c):
        return self._affine(float(c), 0.0)


class Segment(Piece):
    """A straight piece from p0 to p1: p0 + (t - t0) * slope."""

    kind = "segment"

    def __init__(self, p0, p1, t0, t1):
        self.t0, self.t1 = _interval(t0, t1)
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        self.slope = (self.p1 - self.p0) / (self.t1 - self.t0)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self.p0 + self.slope * (t[..., None] - self.t0)

    def velocity(self, t):
        out = np.empty(np.shape(t) + (2,))
        out[...] = self.slope
        return out

    def accel(self, t):
        return np.zeros(np.shape(t) + (2,))

    def negated_shifted(self, shift):
        return Segment(-self.p0, -self.p1, self.t0 + shift, self.t1 + shift)

    def scaled(self, c):
        return Segment(c * self.p0, c * self.p1, self.t0, self.t1)


# frames a ball keeps; the oldest is dropped first
_FRAME_CACHE = 64


class Frame:
    """u, u' and [u, u'] at the Gauss-Legendre nodes of a panel layout.

    ends holds the panel ends of the first half period, increasing from
    breaks[0] to breaks[n_half] and holding every break.  The panels between
    consecutive ends, then the same shifted by T, tile one period in
    increasing order, each inside one piece, so panel p + P/2 is panel p
    shifted by T.  weights holds the quadrature weight of every node, so the
    integral over the period of a function with values v at the nodes t is
    integral(v).  Values are gathered per panel, u_lo and area on first use.
    """

    def __init__(self, ball, ends, n):
        x, w = gauss_legendre(n)
        self._ball = weakref.ref(ball)   # the ball caches its frames
        self.ends, self.n = ends, n
        lo, hi = (np.concatenate([e, e + ball.T])
                  for e in (ends[:-1], ends[1:]))
        self.lo, self.mid, self.half = lo, 0.5 * (lo + hi), 0.5 * (hi - lo)
        self.t = self.mid[:, None] + self.half[:, None] * x
        self.weights = self.half[:, None] * w
        # a midpoint lies inside its piece, so no reduction or clip is needed
        self.piece = ball.breaks.searchsorted(self.mid, side="right") - 1
        # the panels of piece i are first[i] .. first[i + 1] - 1
        self.first = self.piece.searchsorted(np.arange(ball.n_pieces + 1))
        self.u, self.du = ball.evaluate(self.piece[:, None], self.t,
                                        first=self.first)
        self.cross = cross2(self.u, self.du)

    @cached_property
    def u_lo(self):
        """u at each panel's left end."""
        return self._ball().evaluate(self.piece, self.lo, 0, self.first)[0]

    @cached_property
    def area(self):
        """The area of the ball, 1/2 the integral of [u, u']."""
        return 0.5 * float(self.integral(self.cross))

    def mixed_area(self, g, r):
        """1/2 the integral of [g, r u'], g (..., P, n, 2) and r (..., P, n)
        given at the nodes: one value per leading index."""
        du = self.du
        return 0.5 * self.integral(g[..., 0] * (r * du[..., 1])
                                   - g[..., 1] * (r * du[..., 0]))

    def integral(self, values):
        """The quadrature sum over the trailing (P, n) axes of values at the
        nodes: one dot product with the weights per leading index."""
        w = self.weights.ravel()
        return (values.reshape(values.shape[:-2] + (1, w.size)) @ w)[..., 0]

    def locate(self, t):
        """Panel index and position in [-1, 1] of each reduced parameter."""
        p = np.clip(np.searchsorted(self.lo, t, side="right") - 1,
                    0, len(self.lo) - 1)
        return p, (t - self.mid[p]) / self.half[p]


class UnitBall:
    """A validated smooth-by-parts symmetric unit ball.

    Piece i runs over [t0[i], t1[i]].  A segment is held as rows: p0[i] +
    slope[i] (t - t0[i]) runs from p0[i] to p1[i].  arcs maps the index of
    every arc to its Piece; the rows of an arc are zero.  The pieces are
    validated on construction, each value finite: a segment at its ends, on
    its rows when all pieces are segments; use :func:`build_ball`.
    """

    def __init__(self, t0, t1, p0, p1, arcs):
        m = len(t0)
        if m % 2 != 0:
            raise NotSymmetric(f"piece count {m} is odd")
        prev = np.concatenate([t0[:1], t1[:-1]])
        bad = np.abs(t0 - prev) > 1e-12 * np.maximum(1.0, np.abs(prev))
        if bad.any():
            raise ValidationError(
                f"pieces are not contiguous at t={prev[np.argmax(bad)]}")
        self.t0, self.t1, self.p0, self.p1 = t0, t1, p0, p1
        self.slope = (p1 - p0) / (t1 - t0)[:, None]
        self.arcs = arcs
        self.n_pieces = m
        self.n_half = m // 2
        self.breaks = np.concatenate([t0[:1], t1])
        self.T = float(0.5 * (self.breaks[-1] - self.breaks[0]))
        self.t_start = float(self.breaks[0])
        self._frames = {}       # (ends bytes, nodes) -> Frame

        # a segment's ends decide its checks (u' and [u, u'] are constant,
        # |u| and |u(t) + u(t + T)| convex); arcs add the Gauss nodes
        n, T = self.n_half, self.T
        if arcs:
            x = gauss_legendre(DEFAULT_CONFIG.nodes_per_panel)[0]
            ts = np.column_stack([t0, 0.5 * (t0 + t1)[:, None]
                                  + 0.5 * (t1 - t0)[:, None] * x, t1])
            u, du, ddu = self.evaluate(np.arange(m)[:, None], ts, 2,
                                       np.arange(m + 1))
            seg = ~np.isin(np.arange(m), list(arcs))
            u[seg, -1] = p1[seg]    # the vertex, not its rounded copy
            bent = ~seg & (cross2(du, ddu).min(axis=1) <= 0)
            finite = np.isfinite(np.concatenate([u, du, ddu], -1)).all(-1)
        else:   # the rows are the values at the ends
            u, du, bent = (np.concatenate([p0, p1], axis=1).reshape(m, 2, 2),
                           self.slope[:, None], False)
            finite = np.isfinite(u).all(axis=-1)
        if not finite.all():    # NaN fails every comparison below
            i, j = np.unravel_index(finite.argmin(), finite.shape)
            t = ts[i, j] if arcs else (t0, t1)[j][i]
            raise DomainError(f"ball piece {i} is not finite at t={t:.17g}")

        self.diameter = 2.0 * float(norm2(u).max())
        if self.diameter == 0:
            raise ValidationError("degenerate ball")
        eps_reg = tol_geom = self.eps_reg = 1e-9 * self.diameter

        slow = norm2(du).min(axis=1) < eps_reg
        inward = cross2(u, du).min(axis=1) <= eps_reg
        faulty = slow | inward | bent
        if faulty.any():
            i = int(np.argmax(faulty))
            where = f"[{t0[i]}, {t1[i]}]"
            if slow[i]:
                raise DegeneratePiece(f"u' vanishes on piece {where}")
            if inward[i]:
                raise NotConvex(
                    f"[u, u'] is not strictly positive on piece {where}"
                    " (origin not strictly inside or wrong orientation)")
            raise NotConvex(
                f"[u', u''] changes sign or vanishes on arc {where}")

        # closure: each piece ends where the next starts, the last where
        # the first does; the largest gap is reported
        d = u[:, -1] - following(u[:, 0])
        x, y = d[:, 0], d[:, 1]
        gap2 = x * x + y * y
        i = int(gap2.argmax())
        gap = math.sqrt(gap2[i])
        if gap > tol_geom:
            where = "" if i == m - 1 else f" at t={t1[i]}"
            raise NotClosed(f"boundary gap {gap:.3e}{where} exceeds tolerance")

        # antipodal pairing: intervals and values
        tol_t = 1e-9 * max(1.0, T)
        shifted = ((np.abs(t0[n:] - t0[:n] - T) > tol_t)
                   | (np.abs(t1[n:] - t1[:n] - T) > tol_t))
        mismatch = norm2(u[:n] + u[n:]).max(axis=1)
        unpaired = shifted | (mismatch > tol_geom)
        if unpaired.any():
            i = int(np.argmax(unpaired))
            if shifted[i]:
                raise NotSymmetric(
                    f"piece {i + n} interval is not piece {i} shifted by T")
            raise NotSymmetric(
                f"u(t+T) != -u(t) on piece {i} (error {mismatch[i]:.3e})")

        # convexity across vertices: left/right tangents must turn left
        vl = np.concatenate([du[-1:, -1], du[:-1, -1]])
        vr = du[:, 0]
        turn = cross2(vl, vr)
        right = turn < -eps_reg * np.maximum(1.0, norm2(vl) * norm2(vr))
        if right.any():
            raise NotConvex(
                f"right turn at vertex t={t0[int(np.argmax(right))]}")

    def evaluate(self, idx, t, order=1, first=None):
        """[u, u', u''][:order + 1] at parameters t on the pieces idx, an
        index array that broadcasts against t: segments in one gather by
        coordinate, then each arc on its parameters, rows first[i] ..
        first[i + 1] - 1 if first is given (idx sorted), else a mask."""
        s = t - self.t0.take(idx)
        p0, slope = self.p0.take(idx, axis=0), self.slope.take(idx, axis=0)
        u, du = np.empty(s.shape + (2,)), np.empty(s.shape + (2,))
        for j in (0, 1):
            du[..., j] = slope[..., j]
            u[..., j] = p0[..., j] + du[..., j] * s
        out = [u, du, np.zeros(u.shape) if order == 2 else None][:order + 1]
        for i, p in self.arcs.items():
            on = idx == i if first is None else slice(first[i], first[i + 1])
            ti = t[on]
            for values, fn in zip(out, (p.point, p.velocity, p.accel)):
                values[on] = fn(ti)
        return out

    @cached_property
    def pieces(self):
        """The pieces as Piece objects; segments are made from their rows."""
        return tuple(self.arcs[i] if i in self.arcs
                     else Segment(self.p0[i], self.p1[i], self.t0[i],
                                  self.t1[i])
                     for i in range(self.n_pieces))

    # -- parameter bookkeeping ----------------------------------------------

    def reduce(self, t):
        """Map parameters into [t_start, t_start + 2T)."""
        t = np.asarray(t, dtype=float)
        return self.t_start + np.mod(t - self.t_start, 2 * self.T)

    def piece_index(self, t):
        """Index of the piece containing t (right piece at a vertex)."""
        t = self.reduce(t)
        idx = np.searchsorted(self.breaks, t, side="right") - 1
        return np.clip(idx, 0, self.n_pieces - 1)

    def _at(self, t, order):
        """The values of evaluate at parameters t of any shape, on the
        right piece at a vertex."""
        t = self.reduce(t)
        ts = np.atleast_1d(t)
        out = self.evaluate(self.piece_index(ts), ts, order)
        return [v.reshape(t.shape + (2,)) for v in out]

    def point(self, t):
        return self._at(t, 0)[0]

    def velocity(self, t):
        return self._at(t, 1)[1]

    def accel(self, t):
        return self._at(t, 2)[2]

    def dual(self, t):
        """Dual-ball point v(t) = u'(t) / [u(t), u'(t)]."""
        u, du = self._at(t, 1)
        denom = cross2(u, du)
        if (np.abs(denom) < self.eps_reg).any():
            raise DegenerateDual("[u, u'] vanishes")
        return du / np.asarray(denom)[..., None]

    def frame(self, quad, radius):
        """The Frame of the panels the adaptive rule of quad accepts for
        r u'.

        radius(idx, t) gives r at parameters t on the pieces idx, an index
        array of t's shape, sorted, so each piece's parameters are a slice.
        It may return trailing axes, several radii at once, and the panels
        then resolve all of them.  Piece i and its antipode i + n share one
        panel layout, chosen on both radii at once.  Frames are cached by
        layout, so curves whose panels agree share one Frame object.
        """
        n, T = self.n_half, self.T
        starts = self.breaks[:n + 1]
        arcs = [i for i in self.arcs if i < n]

        def f(s):
            # the nodes of the open panels come in increasing order, so the
            # nodes on each piece form one slice
            cut = s.searchsorted(starts)
            idx = np.arange(n).repeat(cut[1:] - cut[:-1])
            du = self.slope.take(idx, axis=0)
            for i in arcs:
                if cut[i] < cut[i + 1]:
                    du[cut[i]:cut[i + 1]] = self.arcs[i].velocity(
                        s[cut[i]:cut[i + 1]])
            r = radius(idx, s), radius(idx + n, s + T)
            # one product per half and coordinate: a length-2 broadcast is slow
            out = np.empty(r[0].shape + (2, 2))
            for h, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
                np.multiply(r[h].T, du[:, j], out=out[..., h, j].T)
            return out

        leaves = []
        integrate(f, starts[:-1], starts[1:], quad, leaves=leaves)
        # the panels tile the half period: each starts where the last ends
        [panels] = leaves
        return self._frame_of(np.append(panels[:, 0], panels[-1, 1]),
                              quad.nodes_per_panel)

    def common_frame(self, f1, f2):
        """The Frame of the coarsest panels that refine both frames': the
        union of their ends, which both hold every break, at the larger of
        their node counts.  A curve whose radius is a number on every
        segment has a 3-node frame, so a curve of quad's rule is never read
        on fewer nodes than its own."""
        if f1 is f2:
            return f1
        return self._frame_of(np.union1d(f1.ends, f2.ends), max(f1.n, f2.n))

    def _frame_of(self, ends, n):
        """The cached Frame of first-half panel ends, n nodes a panel,
        keyed by the bytes of ends."""
        key = ends.tobytes(), n
        frame = self._frames.get(key)
        if frame is None:
            if len(self._frames) >= _FRAME_CACHE:
                del self._frames[next(iter(self._frames))]
            ends.flags.writeable = False    # the frame's key
            frame = self._frames[key] = Frame(self, ends, n)
        return frame

    @property
    def area(self):
        """Enclosed area, A(U) = 1/2 * integral of [u, u'], with r = 1."""
        return self.frame(DEFAULT_CONFIG,
                          lambda idx, t: np.ones(idx.shape)).area

    def scaled(self, c):
        """The ball scaled by a positive factor about the origin."""
        if c <= 0:
            raise ValidationError("scale factor must be positive")
        return UnitBall(self.t0, self.t1, c * self.p0, c * self.p1,
                        {i: p.scaled(c) for i, p in self.arcs.items()})


def build_ball(pieces, auto_symmetrize=False):
    """Validate pieces and assemble a UnitBall.

    pieces is the list of Pieces in order, or a polygon's (m, 2) array of
    vertices, whose edge j from vertex j to vertex j + 1 is a segment on
    [j, j + 1].  With auto_symmetrize, the given pieces cover only the
    first half period and their antipodal copies are appended
    automatically.
    """
    if not isinstance(pieces, np.ndarray):
        pieces = list(pieces)
    if not len(pieces):
        raise ValidationError("no pieces")
    if isinstance(pieces, np.ndarray):
        p0 = np.array(pieces, dtype=float)
        t0 = np.arange(len(p0), dtype=float)
        t1, p1, arcs = t0 + 1.0, following(p0), {}
    else:
        t0, t1 = np.array([(p.t0, p.t1) for p in pieces]).T
        arcs = {i: p for i, p in enumerate(pieces) if p.kind != "segment"}
        p0, p1 = np.zeros((2, len(pieces), 2))
        for i, p in enumerate(pieces):
            if i not in arcs:
                p0[i], p1[i] = p.p0, p.p1
    if auto_symmetrize:
        span, k = float(t1[-1] - t0[0]), len(t0)
        arcs.update([(i + k, p.negated_shifted(span))
                     for i, p in arcs.items()])
        t0 = np.concatenate([t0, t0 + span])
        t1 = np.concatenate([t1, t1 + span])
        p0, p1 = np.concatenate([p0, -p0]), np.concatenate([p1, -p1])
    return UnitBall(t0, t1, p0, p1, arcs)


# ---------------------------------------------------------------------------
# Builtins
# ---------------------------------------------------------------------------

def _euclidean():
    return build_ball([Piece.arc("cos(pi/2*t)", "sin(pi/2*t)", i, i + 1)
                       for i in range(2)], auto_symmetrize=True)


def _square():
    return build_ball(np.array([(1, -1), (1, 1), (-1, 1), (-1, -1)]))


def _regular_2k_gon(k):
    if k < 2:
        raise ValidationError("regular_2k_gon needs k >= 2")
    ang = [np.pi * j / k for j in range(2 * k)]
    return build_ball(np.array([(np.cos(a), np.sin(a)) for a in ang]))


def _mixed_example():
    return build_ball([Piece.segment((1, 0), (0, 1), 0, 1),
                       Piece.arc("cos(pi/2*t)", "sin(pi/2*t)", 1, 2)],
                      auto_symmetrize=True)


# name -> (factory, its integer parameters with their defaults)
_BUILTINS = {
    "euclidean": (_euclidean, {}),
    "square": (_square, {}),
    "regular_2k_gon": (_regular_2k_gon, {"k": 3}),
    "mixed_example21": (_mixed_example, {}),
}


def builtin_ball(name, **params):
    """One of the shipped balls: euclidean, square, regular_2k_gon(k),
    mixed_example21.

    Each is built once per process: every call with the same name and
    parameters returns the same UnitBall.
    """
    try:
        _, defaults = _BUILTINS[name]
    except (KeyError, TypeError):
        raise UnknownBuiltin(name) from None
    for key, value in params.items():
        if key not in defaults:
            raise ValidationError(
                f"builtin {name!r} has no parameter {key!r}")
        if not (isinstance(value, (int, np.integer))
                or isinstance(value, float) and value.is_integer()):
            raise ValidationError(
                f"builtin parameter {key!r} must be an integer, "
                f"got {value!r}")
    params = {key: int(value) for key, value in {**defaults,
                                                  **params}.items()}
    return _built(name, tuple(params.items()))


@lru_cache(maxsize=16)
def _built(name, params):
    return _BUILTINS[name][0](**dict(params))
