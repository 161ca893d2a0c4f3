"""Scalar measures of admissible curves: dual length, mixed and signed
areas, mean width, support values, and the width/symmetry predicates."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .ball import cross2, following
from .errors import MismatchedBalls


def dual_length(curve):
    """L*(gamma) = integral of r(t) [u(t), u'(t)] dt over one period."""
    return curve.table().dual_length


def mixed_area(c1, c2):
    """A(c1, c2) = 1/2 * integral of [c1(t), c2'(t)] dt.

    A weighted sum over c2's nodes when the two curves share a frame;
    otherwise over the nodes of the coarsest panels refining both, where
    c1's points and c2's radius come from their panel series.  The two
    curves must share a ball and a quadrature rule.
    """
    if c1.ball is not c2.ball:
        raise MismatchedBalls("curves live on different balls")
    if c1.quad != c2.quad:
        raise ValueError("curves must share a quadrature rule")
    t1, t2 = c1.table(), c2.table()
    frame = c1.ball.common_frame(t1.frame, t2.frame)
    return frame.mixed_area(t1.gamma_on(frame), t2.radius_on(frame))


def signed_area(curve):
    """A(gamma) = A(gamma, gamma); the enclosed area for convex curves."""
    return curve.table().area


def mean_width(curve):
    """w = L*(gamma) / A(U), both summed on the curve's node table."""
    return dual_length(curve) / curve.table().frame.area


def support_value(curve, t):
    """[gamma(t), v(t)] - the support functional at the dual point."""
    return cross2(curve.point(t), curve.ball.dual(t))


def _antipodal_points(curve):
    """(ts, gamma(ts)) for ts the 48 Gauss nodes per piece stacked over
    themselves shifted by T, shape (2, m): gamma is read once."""
    ts = curve.sample_params(48)
    ts = np.stack([ts, ts + curve.ball.T])
    return ts, curve.point(ts)


def _widths(curve, ts, points):
    """[gamma,v](t) + [gamma,v](t+T) from _antipodal_points, with the dual
    points at both rows of ts read in one call."""
    s = cross2(points, curve.ball.dual(ts))
    return s[0] + s[1]


def width_profile(curve):
    """(params, widths) with width(t) = [gamma,v](t) + [gamma,v](t+T), at
    48 Gauss nodes per piece."""
    ts, points = _antipodal_points(curve)
    return ts[0], _widths(curve, ts, points)


@dataclass(frozen=True)
class WidthCheck:
    constant: bool
    value: float | None      # the constant width when constant
    witness: float | None    # a parameter of maximal deviation otherwise


def is_constant_width(curve):
    """Test whether the width profile is constant (within 1e-8 * scale)."""
    return _width_check(curve, *width_profile(curve))


def _width_check(curve, ts, w):
    scale = curve.length_scale
    spread = float(np.max(w) - np.min(w))
    if spread < 1e-8 * scale:
        return WidthCheck(True, float(np.mean(w)), None)
    mean = np.mean(w)
    return WidthCheck(False, None, float(ts[np.argmax(np.abs(w - mean))]))


def is_symmetric(curve):
    """Symmetry about the midpoint-curve mean (within 1e-8 * scale).

    The curve is first re-centered by the mean of its midpoint curve
    (gamma(t) + gamma(t+T)) / 2, so symmetry about any center counts.
    """
    return _symmetric(curve, *_antipodal_points(curve)[1])


def _symmetric(curve, g, gT):
    mid = 0.5 * (g + gT)
    center = mid.mean(axis=0)
    dev = float(np.max(np.linalg.norm(g + gT - 2 * center, axis=-1)))
    scale = curve.length_scale
    return dev < 1e-8 * scale


def shoelace_area(points):
    """Signed polygon area of an ordered point list (shoelace formula)."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * float((x * following(y) - following(x) * y).sum())


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
        return asdict(self)


def measure_report(curve):
    """Compute all scalar measures of a curve in one go, every one read
    from its node table; the width profile and the symmetry test share
    one reading of gamma at ts and ts + T together."""
    L = dual_length(curve)
    ts, points = _antipodal_points(curve)
    profile = _widths(curve, ts, points)
    cw = _width_check(curve, ts[0], profile)
    return MeasureReport(
        dual_length=L,
        signed_area=signed_area(curve),
        mean_width=L / curve.table().frame.area,
        is_symmetric=_symmetric(curve, *points),
        is_constant_width=cw.constant,
        width_constant=cw.value,
        width_profile_min=float(np.min(profile)),
        width_profile_max=float(np.max(profile)),
    )
