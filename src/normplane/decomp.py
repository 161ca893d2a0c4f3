"""Wigner caustic and constant-width-measure-set projections.

Every admissible curve splits as

    gamma = WC(gamma) + CWMS(gamma) + (w/2) u

where WC is the midpoint curve (gamma(t) + gamma(t+T)) / 2 (a T-periodic
loop, traversed twice over one full period), CWMS is the symmetric part
(gamma(t) - gamma(t+T) - w u(t)) / 2, and w is the mean width.  Both are
admissible curves whose radius tables, (r(t) -+ r(t+T)) / 2 (minus w / 2
for CWMS), are formed from the curve's own node table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curve import AdmissibleCurve
from .errors import DecompositionResidual
from .measures import dual_length, mean_width, signed_area


def _antipodal(values):
    """Node values at t + T: panel p + P/2 of a frame is panel p shifted
    by T."""
    return np.roll(values, len(values) // 2, axis=0)


def wigner_caustic(curve):
    """The midpoint curve, with radius (r(t) - r(t+T)) / 2."""
    table = curve.table()
    r = 0.5 * (table.r - _antipodal(table.r))
    # gamma(t0) and gamma(t0 + T) start the first panels of the two halves
    base = 0.5 * (table.start[0] + _antipodal(table.start)[0])
    return curve._derived(table.frame, r, base)


def cwms(curve):
    """The constant width measure set, radius (r(t) + r(t+T) - w) / 2."""
    table = curve.table()
    w = mean_width(curve)
    r = 0.5 * (table.r + _antipodal(table.r) - w)
    # the first panel starts at t0
    base = 0.5 * (table.start[0] - _antipodal(table.start)[0]
                  - w * table.frame.u_lo[0])
    return curve._derived(table.frame, r, base)


@dataclass
class DecompositionResult:
    wc: AdmissibleCurve
    cwms: AdmissibleCurve
    dual_length: float
    mean_width: float
    residual: float          # max pointwise reconstruction error
    wc_area_raw: float       # signed area over the full period (loop twice)
    wc_area: float           # once-around area of the T-periodic loop
    cwms_area: float

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

    The Wigner caustic is T-periodic, so its signed area over the full
    parameter period counts the loop twice; wc_area reports the
    once-around value (raw / 2), which is the convention entering the
    isoperimetric identity with coefficient 2.  Every term reads the
    curve's node table.
    """
    table = curve.table()
    w = mean_width(curve)
    wc_curve = wigner_caustic(curve)
    cw_curve = cwms(curve)

    # the identity at every panel start and node of the table
    u = np.concatenate([table.frame.u_lo, table.frame.u.reshape(-1, 2)])
    recon = wc_curve.table().knots() + cw_curve.table().knots() + 0.5 * w * u
    residual = float(np.max(np.linalg.norm(table.knots() - recon, axis=-1)))
    tol = 1e-9 * curve.length_scale
    if residual > tol:
        raise DecompositionResidual(
            f"reconstruction residual {residual:.3e} exceeds {tol:.3e}; "
            "this indicates an internal bug")

    raw = signed_area(wc_curve)
    return DecompositionResult(
        wc=wc_curve,
        cwms=cw_curve,
        dual_length=dual_length(curve),
        mean_width=w,
        residual=residual,
        wc_area_raw=raw,
        wc_area=0.5 * raw,
        cwms_area=signed_area(cw_curve),
    )
