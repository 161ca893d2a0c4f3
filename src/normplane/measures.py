"""Scalar measures of admissible curves: dual length, mixed and signed
areas, mean width, support values, and the width/symmetry predicates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ball import cross2
from .errors import MismatchedBalls


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
    frame = c1.ball.common_frame(t1.frame, t2.frame)
    g1, r2 = t1.gamma_on(frame), t2.radius_on(frame)
    return 0.5 * float(frame.integral(cross2(g1, r2[..., None] * frame.du)))


def signed_area(curve, config=None):
    """A(gamma) = A(gamma, gamma); the enclosed area for convex curves."""
    return mixed_area(curve, curve, config)


def mean_width(curve, config=None):
    """w = L*(gamma) / A(U), both summed on the table for config."""
    return dual_length(curve, config) / curve.table(config).frame.area


def support_value(curve, t, config=None):
    """[gamma(t), v(t)] - the support functional at the dual point."""
    g = curve.point(t, config)
    v = curve.ball.dual(t)
    return cross2(g, v)


def width_profile(curve, ts=None, per_piece=48, config=None):
    """(params, widths) with width(t) = [gamma,v](t) + [gamma,v](t+T)."""
    if ts is None:
        ts = curve.sample_params(per_piece, endpoints=False)
    w = (support_value(curve, ts, config)
         + support_value(curve, ts + curve.ball.T, config))
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


def is_symmetric(curve, tol=None, per_piece=48, config=None):
    """Symmetry about the midpoint-curve mean.

    The curve is first re-centered by the mean of its midpoint curve
    (gamma(t) + gamma(t+T)) / 2, so symmetry about any center counts.
    """
    ts = curve.sample_params(per_piece, endpoints=False)
    g = curve.point(ts, config)
    gT = curve.point(ts + curve.ball.T, config)
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
    """Compute all scalar measures of a curve in one go, every one read
    from its node table for config (default: the curve's own)."""
    L = dual_length(curve, config)
    ts, profile = width_profile(curve, config=config)
    cw = _width_check(curve, ts, profile)
    return MeasureReport(
        dual_length=L,
        signed_area=signed_area(curve, config),
        mean_width=L / curve.table(config).frame.area,
        is_symmetric=is_symmetric(curve, config=config),
        is_constant_width=cw.constant,
        width_constant=cw.value,
        width_profile_min=float(np.min(profile)),
        width_profile_max=float(np.max(profile)),
    )
