"""Admissible curves: closed curves with gamma'(t) = r(t) u'(t) per piece.

A curve is stored as its ball, a per-piece curvature-radius function and a
basepoint.  Its numbers come from one node table, built at construction:
the radius and the points at the Gauss-Legendre nodes of the panels that
the adaptive rule accepts for r u'.  The rule is the curve's
QuadratureConfig quad, or quad at 3 nodes a panel when the radius is a
number on every piece of a ball of segments: r u' is then constant on
every panel, which every Gauss rule integrates exactly.  Points between
nodes come from each panel's Legendre series of the integral of r u'.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial import legendre

from . import expressions as ex
from .ball import norm2
from .errors import (DomainError, MismatchedBalls, NotAdmissible, NotClosed,
                     ValidationError)
from .quadrature import DEFAULT_CONFIG, gauss_legendre, legendre_operators

# parameters per block when evaluating panel series, bounding the memory
# of the (parameters x degree) basis
_BLOCK = 512


def _coerce_radius(obj):
    """Turn an Expr, text, number, or callable into a vectorized callable."""
    if callable(obj) and not isinstance(obj, ex.Expr):
        return obj
    if isinstance(obj, numbers.Real):
        c = float(obj)
        return lambda t: np.full(np.shape(t), c)
    return ex.compiled(obj, 0)


def _sampler(i, fn):
    """fn on piece i, raising DomainError where it leaves its domain."""
    def sample(t):
        r = np.asarray(fn(t), dtype=float)
        if r.shape != t.shape:
            r = np.broadcast_to(r, t.shape)
        if not np.isfinite(r).all():
            where = t[~np.isfinite(r)][0]
            raise DomainError(
                f"radius of piece {i} is not finite at t={where:.17g}")
        return r
    return sample


def _number(r):
    """r as a float if it is a finite number, or text or an Expr without t
    whose compiled function is finite, the value sampling gives; else
    None."""
    if isinstance(r, (str, ex.Expr)):
        r = ex.constant_value(r)
    if isinstance(r, numbers.Real) and np.isfinite(r):
        return float(r)
    return None


def _per_piece(radii, m):
    """The constants of m pieces (zero where a callable is) and the
    callables by piece; a finite float array is taken whole, and text or
    an Expr without t is a constant.  A constant that is not finite stays
    a callable, raising DomainError if sampled."""
    if getattr(radii, "dtype", None) == float and radii.shape == (m,):
        if np.isfinite(radii).all():
            return radii.copy(), {}
    if callable(radii) or isinstance(radii, (ex.Expr, str, numbers.Real)):
        radii = [radii] * m
    if len(radii) != m:
        raise ValueError(
            f"need one radius per ball piece ({m}), got {len(radii)}")
    values = [_number(r) for r in radii]
    fns = {i: _coerce_radius(r) for i, (r, c) in enumerate(zip(radii, values))
           if c is None}
    const = np.array([0.0 if c is None else c for c in values])
    return const, fns


@lru_cache(maxsize=8)
def _exact_rule(quad):
    """quad at the fewest nodes a panel it accepts: the rule of a radius
    that is a number on every segment, where r u' is constant."""
    return replace(quad, nodes_per_panel=3)


class NodeTable:
    """Radius rows r, shape (..., P, n), and points gamma at the nodes of
    one Frame, each row a curve from its basepoint, shape (..., 2).

    g = r u' is formed once; its panel sums give start, gamma at each
    panel's left end, and gap, the displacement over one period.  Between
    nodes, r and gamma are the panels' Legendre series.  Each row equals
    its one-row table bit for bit.
    """

    def __init__(self, frame, r, basepoint):
        self.frame, self.r = frame, r
        basepoint = np.asarray(basepoint, dtype=float)
        g = self.g = np.empty(r.shape + (2,))   # one product per coordinate
        for j in (0, 1):
            np.multiply(r, frame.du[..., j], out=g[..., j])
        base = basepoint[..., None, :]
        ends = base + np.einsum("pk,...pkd->...pd", frame.weights,
                                g).cumsum(axis=-2)
        self.start = np.concatenate([base, ends[..., :-1, :]], axis=-2)
        self.gap = ends[..., -1, :] - basepoint

    @cached_property
    def dual_length(self):
        """L*, the integral of r [u, u'] over the period."""
        return self.frame.integral(self.r * self.frame.cross)

    @cached_property
    def area(self):
        """A(gamma), the curve's mixed area with itself."""
        return self.frame.mixed_area(self.gamma, self.r)

    @cached_property
    def gamma(self):
        """gamma at the nodes, shape (..., P, n, 2)."""
        f = self.frame
        return self.start[..., None, :] + f.half[:, None, None] * (
            legendre_operators(f.n)[2] @ self.g)

    @cached_property
    def _gamma_coef(self):
        """Legendre coefficients of gamma per panel, (..., P, n + 1, 2)."""
        f = self.frame
        coef = f.half[:, None, None] * (legendre_operators(f.n)[1] @ self.g)
        coef[..., 0, :] += self.start
        return coef

    @cached_property
    def _r_coef(self):
        """Legendre coefficients of r per panel, shape (..., P, n)."""
        return self.r @ legendre_operators(self.frame.n)[0].T

    def _series(self, coef, t, basis=None):
        """Sum over k of coef[..., p, k] P_k(x) at reduced parameters t
        (1-D), shape (..., len(t)) + coef's axes after k.  The row axes go
        behind k, so one panel search and one basis per block serve every
        row; the copy keeps each panel's coefficients contiguous for the
        gather by panel.  basis, if given, is the panel index and the
        Legendre basis of t, read in place of locate and legvander."""
        rows = self.r.ndim - 2
        coef = np.ascontiguousarray(
            np.moveaxis(coef, range(rows), range(2, 2 + rows)))
        out = np.empty(t.shape + coef.shape[2:])
        for s in range(0, len(t), _BLOCK):
            if basis is None:
                p, x = self.frame.locate(t[s:s + _BLOCK])
                V = legendre.legvander(x, coef.shape[1] - 1)
            else:
                p, V = (a[s:s + _BLOCK] for a in basis)
            out[s:s + _BLOCK] = np.einsum("mk,mk...->m...", V, coef[p])
        return np.moveaxis(out, 0, rows)

    def points(self, t):
        """gamma at reduced parameters t (1-D), shape (..., len(t), 2)."""
        return self._series(self._gamma_coef, t)

    def drawn(self, count):
        """gamma at the first count parameters of the ball's drawing grid,
        shape (..., count, 2): points(grid.reduced[:count]) bit for bit,
        read through the frame's cached drawing_basis."""
        t, p, V = self.frame.drawing_basis
        return self._series(self._gamma_coef, t[:count],
                            (p[:count], V[:count]))

    def radius(self, t):
        """r at reduced parameters t (1-D), shape (..., len(t))."""
        return self._series(self._r_coef, t)

    def radius_on(self, frame):
        """r at the nodes of frame, a refinement of the table's own."""
        return self.r if frame is self.frame else self.radius(
            frame.t.ravel()).reshape(frame.t.shape)

    def gamma_on(self, frame):
        """gamma at the nodes of frame, a refinement of the table's own."""
        return self.gamma if frame is self.frame else self.points(
            frame.t.ravel()).reshape(frame.t.shape + (2,))

    def knots(self):
        """gamma at every panel start, then at every node, (..., N, 2)."""
        return np.concatenate([self.start, self.gamma.reshape(
            self.start.shape[:-2] + (-1, 2))], axis=-2)

    def radius_samples(self):
        """r along the period, (..., N): each panel's left end, its nodes
        and its right end, the ends from the panel's Legendre series."""
        c = self._r_coef
        lo, hi = c @ (-1.0) ** np.arange(c.shape[-1]), c.sum(axis=-1)
        return np.concatenate([lo[..., None], self.r, hi[..., None]],
                              axis=-1).reshape(c.shape[:-2] + (-1,))

    def _sample_ts(self):
        """The parameters of radius_samples."""
        f = self.frame
        return np.column_stack([f.lo, f.t, f.lo + 2.0 * f.half]).ravel()


def bbox_diameter(points):
    """Diagonal of the bounding box of each set of points, shape
    (..., N, 2), by coordinate: reducing over N past the pairs is slow."""
    dx, dy = (np.ptp(points[..., j], axis=-1) for j in (0, 1))
    return np.sqrt(dx * dx + dy * dy)


def closure_tol(gap, ball, diameters, rel=1e-8):
    """The tolerance of each gap: rel (1e-8 for closure) of the larger of
    the ball's diameter and its curve's.  diameters() gives the curves'
    diameters and is called only when some gap exceeds rel of the ball's."""
    tol = rel * ball.diameter
    if np.less_equal(gap, tol).all():
        return tol
    return rel * np.maximum(diameters(), ball.diameter)


def convexity_sign(r):
    """Per row of radius samples r: +1 or -1 when it keeps that sign,
    0 when it takes both beyond 1e-10 of its largest magnitude (an all-zero
    row, a point curve, counts as +1)."""
    lo, hi = r.min(axis=-1), r.max(axis=-1)
    eps = 1e-10 * np.maximum(-lo, hi)
    pos, neg = hi > eps, lo < -eps
    return np.where(pos & neg, 0, np.where(pos | ~neg, 1, -1))


class AdmissibleCurve:
    """A closed curve subordinate to a ball's piece partition.

    radii is one radius per ball piece, or a single one for all pieces: an
    Expr, expression text, a constant, or a vectorized callable.  A 1-D
    float array holds one constant per piece, and text or an Expr without
    t is the number it evaluates to.  A one-row NodeTable on a frame of
    quad, from basepoint, is taken as the curve's table; its radius between
    nodes is the table's series.  quad is the quadrature rule of every
    number the curve reports, except when its radius is a number on every
    piece and its ball has no arcs: then r u' is constant on every panel,
    and its numbers come from quad at 3 nodes a panel, which integrates
    that exactly.  Curves derived from it keep quad and its frame.
    """

    def __init__(self, ball, radii, basepoint, quad=DEFAULT_CONFIG,
                 check_closure=True):
        self.ball = ball
        self.basepoint = np.asarray(basepoint, dtype=float)
        self.quad = quad
        # the radius on each piece: a constant, or a callable in _fns; a
        # table-backed curve has neither (_fns is None)
        if isinstance(radii, NodeTable):
            self._fns, self._table = None, radii
        else:
            self._const, self._fns = _per_piece(radii, ball.n_pieces)
            self._table = self._tabulate()

        self.closure_gap = self._table.gap
        self.closure_residual = float(norm2(self.closure_gap))

        if check_closure:
            tol = closure_tol(self.closure_residual, ball,
                              lambda: self.diameter)
            if self.closure_residual > tol:
                raise NotClosed(
                    f"curve does not close: residual "
                    f"{self.closure_residual:.3e} > {tol:.3e}")

    @cached_property
    def radii(self):
        """The radius of each piece as a vectorized callable."""
        if self._fns is None:
            return [self._read] * self.ball.n_pieces
        return [self._fns.get(i) or _coerce_radius(c)
                for i, c in enumerate(self._const.tolist())]

    def _read(self, t):
        """The table's radius series at parameters t of any shape."""
        return self._table.radius(np.ravel(t)).reshape(np.shape(t))

    def _radius_at(self, idx, t, first=None):
        """r at parameters t on the pieces idx, taken as UnitBall.evaluate
        takes them: the constants in one gather by piece, then each callable
        through its sampler on its own piece's parameters."""
        r = np.empty(np.shape(t))
        r[...] = self._const.take(idx)
        for i, fn in self._fns.items():
            on = idx == i if first is None else slice(first[i], first[i + 1])
            ti = t[on]
            if ti.size:
                r[on] = _sampler(i, fn)(ti)
        return r

    def _tabulate(self):
        """The NodeTable on the panels that the curve's rule accepts for
        the radii: quad, or its 3-node rule for numbers on segments."""
        pieces = np.arange(self.ball.n_pieces + 1)
        exact = not (self._fns or self.ball.arcs)

        def sliced(idx, t):     # the frame's idx is sorted
            return self._radius_at(idx, t, idx.searchsorted(pieces))
        frame = self.ball.frame(_exact_rule(self.quad) if exact
                                else self.quad, sliced)
        return NodeTable(frame, self._radius_at(frame.piece[:, None], frame.t,
                                                frame.first), self.basepoint)

    def table(self):
        """The curve's NodeTable."""
        return self._table

    # -- evaluation ---------------------------------------------------------

    def radius(self, t):
        """Curvature radius r(t), vectorized (right piece at vertices)."""
        if self._fns is None:
            return self._read(self.ball.reduce(t))
        flat = self.ball.reduce(np.ravel(t))
        return self._radius_at(self.ball.piece_index(flat),
                               flat).reshape(np.shape(t))

    def point(self, t):
        """gamma(t) = basepoint + integral of r u' from the start, read
        from the node table."""
        t = self.ball.reduce(t)
        return self._table.points(t.ravel()).reshape(t.shape + (2,))

    @cached_property
    def diameter(self):
        """Diagonal of the bounding box of the node table's points."""
        return float(bbox_diameter(self.table().knots()))

    @property
    def length_scale(self):
        """The length that the curve's closure, decomposition, width and
        symmetry tolerances are relative to."""
        return max(self.diameter, self.ball.diameter)

    # -- algebra ------------------------------------------------------------

    def _derived(self, frame, r, basepoint):
        """A curve on the same ball with radius r at the nodes of frame."""
        return AdmissibleCurve(self.ball, NodeTable(frame, r, basepoint),
                               basepoint, quad=self.quad, check_closure=False)

    def translated(self, v):
        table = self.table()
        return self._derived(table.frame, table.r,
                             self.basepoint + np.asarray(v, float))

    def radius_scaled(self, c, basepoint=None):
        """The curve with radius c*r (displacements scale by c)."""
        table = self.table()
        return self._derived(table.frame, c * table.r,
                             self.basepoint if basepoint is None
                             else basepoint)


def common_tables(c1, c2):
    """(frame, t1, t2): the two curves' node tables and the Frame both
    are read on, UnitBall.common_frame of theirs.  The curves must share a
    ball and a quadrature rule."""
    if c1.ball is not c2.ball:
        raise MismatchedBalls("curves live on different balls")
    if c1.quad != c2.quad:
        raise ValueError("curves must share a quadrature rule")
    t1, t2 = c1.table(), c2.table()
    return c1.ball.common_frame(t1.frame, t2.frame), t1, t2


def pointwise_sum(c1, c2):
    """The curve t -> c1(t) + c2(t); radii add, basepoints add."""
    frame, t1, t2 = common_tables(c1, c2)
    return c1._derived(frame, t1.radius_on(frame) + t2.radius_on(frame),
                       c1.basepoint + c2.basepoint)


def curve_from_radius(ball, radius, basepoint=(0.0, 0.0),
                      quad=DEFAULT_CONFIG):
    """Build a closed admissible curve from its curvature-radius function.

    radius is a single item or a per-piece list; each item may be an Expr,
    expression text, a constant, or a vectorized callable.
    """
    return AdmissibleCurve(ball, radius, basepoint, quad=quad)


def curve_from_explicit(ball, pieces, quad=DEFAULT_CONFIG):
    """Recover a curve from explicit per-piece coordinate expressions.

    pieces is one (x_expr, y_expr) pair per ball piece.  The radius is
    extracted by projecting gamma' on u'; if gamma' is not parallel to u'
    within 1e-8 (relative), the curve is rejected.
    """
    if len(pieces) != ball.n_pieces:
        raise ValidationError(f"need one explicit (x, y) pair per ball "
                              f"piece ({ball.n_pieces}), got {len(pieces)}")
    radii = []
    x, _ = gauss_legendre(quad.nodes_per_panel)
    for bp, (x_expr, y_expr) in zip(ball.pieces, pieces):
        dx, dy = ex.compiled(x_expr, 1), ex.compiled(y_expr, 1)

        def r_fn(t, dx=dx, dy=dy, bp=bp):
            g = np.stack([dx(t), dy(t)], axis=-1)
            du = bp.velocity(t)
            return np.sum(g * du, axis=-1) / np.sum(du * du, axis=-1)

        ts = 0.5 * (bp.t0 + bp.t1) + 0.5 * (bp.t1 - bp.t0) * x
        g = np.stack([dx(ts), dy(ts)], axis=-1)
        du = bp.velocity(ts)
        r = r_fn(ts)
        resid = norm2(g - r[:, None] * du)
        speed = norm2(g)
        scale = max(float(speed.max()), 1e-300)
        if (resid > 1e-8 * (speed + 1e-12 * scale)).any():
            worst = float(ts[np.argmax(resid / (speed + 1e-12 * scale))])
            raise NotAdmissible(
                f"gamma' is not parallel to u' near t={worst:.6g}")
        radii.append(r_fn)

    t0 = np.array(ball.pieces[0].t0)
    basepoint = np.array([float(ex.compiled(e, 0)(t0)) for e in pieces[0]])
    return AdmissibleCurve(ball, radii, basepoint, quad=quad)


# ---------------------------------------------------------------------------
# Convexity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexityResult:
    convex: bool
    sign: int            # +1 or -1 when convex, 0 otherwise
    witness: float | None  # a parameter near a sign flip when not convex


def is_convex(curve):
    """Classify by the sign pattern of the curvature radius at the nodes
    and panel ends of the curve's node table."""
    r = curve.table().radius_samples()
    sign = int(convexity_sign(r))
    if sign:
        return ConvexityResult(True, sign, None)
    flip = int(np.argmax(np.abs(np.diff(np.sign(r)))))
    return ConvexityResult(False, 0, float(curve.table()._sample_ts()[flip]))


def convexifying_shift(curve):
    """Smallest K >= 0 (at the table's nodes and panel ends) with
    min r + K >= 0."""
    return float(max(0.0, -curve.table().radius_samples().min()))


def shifted_by_ball(curve, K):
    """The curve gamma + K u (radius r + K)."""
    table = curve.table()
    # the first panel starts at t0
    base = curve.basepoint + K * table.frame.u_lo[0]
    return curve._derived(table.frame, table.r + K, base)
