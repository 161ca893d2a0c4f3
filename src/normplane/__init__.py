"""Geometry of convex curves in normed planes with piecewise-smooth unit
balls: dual length, mixed areas, Wigner caustic / constant-width
decomposition, and isoperimetric inequality verification."""

from .ball import Piece, build_ball, builtin_ball, cross2
from .curve import (AdmissibleCurve, convexifying_shift, curve_from_explicit,
                    curve_from_radius, is_convex, pointwise_sum,
                    shifted_by_ball)
from .decomp import cwms, decompose, wigner_caustic
from .inequalities import (Polygon, circumscribed_parallel_polygon,
                           embed_polygon, iso_ledger, lhuilier_check,
                           minkowski_gap, polygon_ball, symmetrize_polygon)
from .measures import (dual_length, is_constant_width, is_symmetric,
                       mean_width, measure_report, mixed_area, polygonal_area,
                       shoelace_area, signed_area, support_value)
from .quadrature import QuadratureConfig

__all__ = [
    "AdmissibleCurve", "Piece", "Polygon", "QuadratureConfig", "build_ball",
    "builtin_ball", "circumscribed_parallel_polygon", "convexifying_shift",
    "cross2", "curve_from_explicit", "curve_from_radius", "cwms",
    "decompose", "dual_length", "embed_polygon", "is_constant_width",
    "is_convex", "is_symmetric", "iso_ledger", "lhuilier_check",
    "mean_width", "measure_report", "minkowski_gap", "mixed_area",
    "pointwise_sum", "polygon_ball", "polygonal_area", "shifted_by_ball",
    "shoelace_area", "signed_area", "support_value", "symmetrize_polygon",
    "wigner_caustic",
]
