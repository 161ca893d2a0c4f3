"""Scalar measures of admissible curves: dual length, mixed and signed
areas, mean width, support values, and the width/symmetry predicates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ball import cross2
from .errors import MismatchedBalls
from .quadrature import gauss_legendre


def dual_length(curve, config=None):
    """L*(gamma) = integral of r(t) [u(t), u'(t)] dt over one period."""
    table = curve.table(config)
    return float(table.frame.integral(table.r * table.frame.cross))


def mixed_area(c1, c2, config=None):
    """A(c1, c2) = 1/2 * integral of [c1(t), c2'(t)] dt.

    A weighted sum over c2's nodes when the two curves share a frame;
    otherwise over the nodes of the coarsest panels refining both, where
    c1's points and c2's radius come from their panel series.
    """
    if c1.ball is not c2.ball:
        raise MismatchedBalls("curves live on different balls")
    config = config or c1.quad
    t1, t2 = c1.table(config), c2.table(config)
    if t1.frame is t2.frame:
        frame, g1, r2 = t2.frame, t1.gamma, t2.r
    else:
        frame = c1.ball.common_frame(t1.frame, t2.frame)
        ts = frame.t.ravel()
        g1 = t1.points(ts).reshape(frame.t.shape + (2,))
        r2 = t2.radius(ts).reshape(frame.t.shape)
    return 0.5 * float(frame.integral(cross2(g1, r2[..., None] * frame.du)))


def signed_area(curve, config=None):
    """A(gamma) = A(gamma, gamma); the enclosed area for convex curves."""
    return mixed_area(curve, curve, config)


def mean_width(curve, config=None):
    """w = L*(gamma) / A(U)."""
    return dual_length(curve, config) / curve.ball.area


def support_value(curve, t):
    """[gamma(t), v(t)] - the support functional at the dual point."""
    g = curve.point(t)
    v = curve.ball.dual(t)
    return cross2(g, v)


def _interior_params(ball, per_piece=48):
    """Strictly interior quadrature nodes of every piece (duals defined)."""
    x, _ = gauss_legendre(per_piece)
    chunks = []
    for p in ball.pieces:
        chunks.append(0.5 * (p.t0 + p.t1) + 0.5 * (p.t1 - p.t0) * x)
    return np.concatenate(chunks)


def width_profile(curve, ts=None, per_piece=48):
    """(params, widths) with width(t) = [gamma,v](t) + [gamma,v](t+T)."""
    if ts is None:
        ts = _interior_params(curve.ball, per_piece)
    w = support_value(curve, ts) + support_value(curve, ts + curve.ball.T)
    return ts, w


@dataclass(frozen=True)
class WidthCheck:
    constant: bool
    value: float | None      # the constant width when constant
    witness: float | None    # a parameter of maximal deviation otherwise


def is_constant_width(curve, tol=None, per_piece=48):
    """Test whether the width profile is constant (within tol * scale)."""
    return _width_check(curve, *width_profile(curve, per_piece=per_piece),
                        tol)


def _width_check(curve, ts, w, tol=None):
    scale = max(curve.diameter, curve.ball.diameter)
    if tol is None:
        tol = 1e-8
    spread = float(np.max(w) - np.min(w))
    if spread < tol * scale:
        return WidthCheck(True, float(np.mean(w)), None)
    mean = np.mean(w)
    return WidthCheck(False, None, float(ts[np.argmax(np.abs(w - mean))]))


def is_symmetric(curve, tol=None, per_piece=48):
    """Symmetry about the midpoint-curve mean.

    The curve is first re-centered by the mean of its midpoint curve
    (gamma(t) + gamma(t+T)) / 2, so symmetry about any center counts.
    """
    ts = _interior_params(curve.ball, per_piece)
    g = curve.point(ts)
    gT = curve.point(ts + curve.ball.T)
    mid = 0.5 * (g + gT)
    center = mid.mean(axis=0)
    dev = float(np.max(np.linalg.norm(g + gT - 2 * center, axis=-1)))
    scale = max(curve.diameter, curve.ball.diameter)
    if tol is None:
        tol = 1e-8
    return dev < tol * scale


def shoelace_area(points):
    """Signed polygon area of an ordered point list (shoelace formula)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygonal_area(curve, n_points=100_000):
    """Shoelace area of a dense polygonal sampling; quadrature cross-check."""
    ts = np.linspace(curve.ball.t_start,
                     curve.ball.t_start + 2 * curve.ball.T,
                     n_points, endpoint=False)
    return shoelace_area(curve.point(ts))


@dataclass
class MeasureReport:
    dual_length: float
    signed_area: float
    mean_width: float
    is_symmetric: bool
    is_constant_width: bool
    width_constant: float | None = None
    width_profile_min: float | None = None
    width_profile_max: float | None = None

    def to_dict(self):
        return {
            "dual_length": self.dual_length,
            "signed_area": self.signed_area,
            "mean_width": self.mean_width,
            "is_symmetric": self.is_symmetric,
            "is_constant_width": self.is_constant_width,
            "width_constant": self.width_constant,
            "width_profile_min": self.width_profile_min,
            "width_profile_max": self.width_profile_max,
        }


def measure_report(curve, config=None):
    """Compute all scalar measures of a curve in one go."""
    L = dual_length(curve, config)
    A = signed_area(curve, config)
    w = L / curve.ball.area
    ts, profile = width_profile(curve)
    cw = _width_check(curve, ts, profile)
    return MeasureReport(
        dual_length=L,
        signed_area=A,
        mean_width=w,
        is_symmetric=is_symmetric(curve),
        is_constant_width=cw.constant,
        width_constant=cw.value,
        width_profile_min=float(np.min(profile)),
        width_profile_max=float(np.max(profile)),
    )
