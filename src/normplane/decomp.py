"""Wigner caustic and constant-width-measure-set projections.

Every admissible curve splits as

    gamma = WC(gamma) + CWMS(gamma) + (w/2) u

where WC is the midpoint curve (gamma(t) + gamma(t+T)) / 2 (a T-periodic
loop, traversed twice over one full period), CWMS is the symmetric part
(gamma(t) - gamma(t+T) - w u(t)) / 2, and w is the mean width.  Both are
admissible curves whose radii, (r(t) -+ r(t+T)) / 2 (minus w / 2 for
CWMS), are formed from the curve's own node table: with the curve's own
radius they are the three rows of one NodeTable on its frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ball import norm2
from .curve import NodeTable, closure_tol
from .errors import DecompositionResidual
from .measures import dual_length, mean_width


def _split(curve):
    """The NodeTable over the radius rows [r, (r - r(t+T)) / 2,
    (r + r(t+T) - w) / 2] of gamma, WC and CWMS at the nodes of the
    curve's frame, each from the point that starts its first panel, and w.
    Panel p + P/2 is panel p shifted by T, so r(t + T) is r with its halves
    swapped, and gamma(t0 + T) starts the first panel of the second half."""
    own, w = curve.table(), mean_width(curve)
    r, start, h = own.r, own.start, len(own.r) // 2
    rT = np.concatenate([r[h:], r[:h]])
    R = np.stack([r, 0.5 * (r - rT), 0.5 * (r + rT - w)])
    base = np.array([start[0], 0.5 * (start[0] + start[h]),
                     0.5 * (start[0] - start[h] - w * own.frame.u_lo[0])])
    return NodeTable(own.frame, R, base), w


def _part(curve, table, row):
    """Row row of the split table (1 WC, 2 CWMS) as a curve on its frame."""
    return curve._derived(table.frame, table.r[row], table.start[row, 0])


def wigner_caustic(curve):
    """The midpoint curve, with radius (r(t) - r(t+T)) / 2."""
    return _part(curve, _split(curve)[0], 1)


def cwms(curve):
    """The constant width measure set, radius (r(t) + r(t+T) - w) / 2."""
    return _part(curve, _split(curve)[0], 2)


@dataclass
class DecompositionResult:
    """The numbers of the split.  table is the NodeTable over the rows
    [gamma, WC, CWMS] of curve; wc and cwms, its rows 1 and 2 as curves on
    the curve's frame, are built on first access."""

    dual_length: float
    mean_width: float
    residual: float          # max pointwise reconstruction error
    wc_area_raw: float       # signed area over the full period (loop twice)
    wc_area: float           # once-around area of the T-periodic loop
    cwms_area: float
    curve: object = field(repr=False, compare=False)
    table: NodeTable = field(repr=False, compare=False)

    @cached_property
    def wc(self):
        return _part(self.curve, self.table, 1)

    @cached_property
    def cwms(self):
        return _part(self.curve, self.table, 2)

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

    The curve and its parts are the rows [gamma, WC, CWMS] of the one
    NodeTable of _split; both part areas come from one Frame.mixed_area
    over rows 1 and 2.  The identity, row 0 against rows 1 + 2, is checked
    at every panel start and node, against 1e-9 of the ball's diameter, and
    of the curve's only when the residual exceeds that.  No curve is built:
    wc and cwms are made on first access.

    The Wigner caustic is T-periodic, so its signed area over the full
    parameter period counts the loop twice; wc_area reports the
    once-around value (raw / 2), which is the convention entering the
    isoperimetric identity with coefficient 2.
    """
    table, w = _split(curve)
    f = table.frame
    start, gamma = table.start, table.gamma
    d = np.concatenate([
        start[0] - (start[1] + start[2] + 0.5 * w * f.u_lo),
        (gamma[0] - (gamma[1] + gamma[2] + 0.5 * w * f.u)).reshape(-1, 2)])
    residual = float(norm2(d).max())
    tol = closure_tol(residual, curve.ball, lambda: curve.diameter, 1e-9)
    if residual > tol:
        raise DecompositionResidual(
            f"reconstruction residual {residual:.3e} exceeds {tol:.3e}; "
            "this indicates an internal bug")

    raw, cwms_area = f.mixed_area(gamma[1:], table.r[1:]).tolist()
    return DecompositionResult(
        dual_length=dual_length(curve),
        mean_width=w,
        residual=residual,
        wc_area_raw=raw,
        wc_area=0.5 * raw,
        cwms_area=cwms_area,
        curve=curve,
        table=table,
    )
