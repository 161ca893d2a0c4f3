"""Wigner caustic and constant-width-measure-set projections.

Every admissible curve splits as

    gamma = WC(gamma) + CWMS(gamma) + (w/2) u

where WC is the midpoint curve (gamma(t) + gamma(t+T)) / 2 (a T-periodic
loop, traversed twice over one full period), CWMS is the symmetric part
(gamma(t) - gamma(t+T) - w u(t)) / 2, and w is the mean width.  Both are
admissible curves whose radii, (r(t) -+ r(t+T)) / 2 (minus w / 2 for
CWMS), are formed from the curve's own node table as the two rows of one
NodeTable on its frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ball import norm2
from .curve import NodeTable, closure_tol
from .errors import DecompositionResidual
from .measures import dual_length, mean_width


def _split(table, w):
    """The WC and CWMS radius rows R = [(r - r(t+T)) / 2,
    (r + r(t+T) - w) / 2] at the nodes of the table's frame, shape
    (2, P, n), and the points that start their first panels, shape (2, 2).
    Panel p + P/2 is panel p shifted by T, so r(t + T) is r with its halves
    swapped, and gamma(t0 + T) starts the first panel of the second half."""
    r, start, h = table.r, table.start, len(table.r) // 2
    rT = np.concatenate([r[h:], r[:h]])
    R = 0.5 * np.stack([r - rT, r + rT - w])
    base = 0.5 * np.array([start[0] + start[h],
                           start[0] - start[h] - w * table.frame.u_lo[0]])
    return R, base


def _part(curve, R, base, row):
    """Row row of the split (0 WC, 1 CWMS) as a curve on curve's frame."""
    return curve._derived(curve.table().frame, R[row], base[row])


def wigner_caustic(curve):
    """The midpoint curve, with radius (r(t) - r(t+T)) / 2."""
    return _part(curve, *_split(curve.table(), mean_width(curve)), 0)


def cwms(curve):
    """The constant width measure set, radius (r(t) + r(t+T) - w) / 2."""
    return _part(curve, *_split(curve.table(), mean_width(curve)), 1)


@dataclass
class DecompositionResult:
    """The numbers of the split.  wc and cwms, the two parts as curves on
    the parent's frame, are built from the stacked radius rows on first
    access."""

    dual_length: float
    mean_width: float
    residual: float          # max pointwise reconstruction error
    wc_area_raw: float       # signed area over the full period (loop twice)
    wc_area: float           # once-around area of the T-periodic loop
    cwms_area: float
    # (curve, R, base) of _split
    rows: tuple = field(repr=False, compare=False)

    @cached_property
    def wc(self):
        return _part(*self.rows, 0)

    @cached_property
    def cwms(self):
        return _part(*self.rows, 1)

    def to_dict(self):
        return {
            "mean_width": self.mean_width,
            "residual": self.residual,
            "wc_area": self.wc_area,
            "wc_area_raw": self.wc_area_raw,
            "cwms_area": self.cwms_area,
        }


def decompose(curve):
    """Split a curve into WC + CWMS + (w/2) u and verify the identity.

    Both parts are the rows of one NodeTable over the radius rows of
    _split; their areas are summed a row at a time by Frame.mixed_area.
    The identity is checked at every knot of the curve's table, against
    1e-9 of the ball's diameter, and of the curve's only when the residual
    exceeds that.  No curve is built: wc and cwms are made on first access.

    The Wigner caustic is T-periodic, so its signed area over the full
    parameter period counts the loop twice; wc_area reports the
    once-around value (raw / 2), which is the convention entering the
    isoperimetric identity with coefficient 2.
    """
    table = curve.table()
    f = table.frame
    w = mean_width(curve)
    R, base = _split(table, w)
    parts = NodeTable(f, R, base)

    # the identity at every panel start and node of the table
    start, gamma = parts.start, parts.gamma
    d = np.concatenate([
        table.start - (start[0] + start[1] + 0.5 * w * f.u_lo),
        (table.gamma - (gamma[0] + gamma[1] + 0.5 * w * f.u)).reshape(-1, 2)])
    residual = float(norm2(d).max())
    tol = closure_tol(residual, curve.ball, lambda: curve.diameter, 1e-9)
    if residual > tol:
        raise DecompositionResidual(
            f"reconstruction residual {residual:.3e} exceeds {tol:.3e}; "
            "this indicates an internal bug")

    raw = f.mixed_area(gamma[0], R[0])
    return DecompositionResult(
        dual_length=dual_length(curve),
        mean_width=w,
        residual=residual,
        wc_area_raw=raw,
        wc_area=0.5 * raw,
        cwms_area=f.mixed_area(gamma[1], R[1]),
        rows=(curve, R, base),
    )
