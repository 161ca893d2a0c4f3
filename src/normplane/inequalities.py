"""Isoperimetric identities and inequalities, and the polygonal
Lhuilier-type construction.

The central identity for a convex admissible curve is

    L*^2 / (4 A_U) = A_gamma - 2 A_WC - A_CWMS

with A_WC the once-around area of the Wigner caustic.  Dropping either
correction term weakens it to an inequality whose equality cases are the
symmetric and the constant-width curves; dropping both recovers the
isoperimetric inequality of the normed plane.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from functools import cached_property

import numpy as np

from .ball import build_ball, cross2, following, norm2
from .curve import AdmissibleCurve, is_convex
from .decomp import decompose
from .errors import (DegenerateIntersection, EmbeddingFailed,
                     NotConvexInput, ValidationError)
from .measures import dual_length, shoelace_area, signed_area


def minkowski_terms(L, A_U, A):
    """The Minkowski gap L*^2 - 4 A A(U), non-negative for admissible
    curves, and the scale it is measured against; floats or arrays."""
    return (L * L - 4.0 * A * A_U,
            np.maximum(np.maximum(L * L, 4.0 * np.abs(A) * A_U), 1e-300))


def minkowski_gap(curve):
    """L*(gamma)^2 - 4 A(gamma) A(U), non-negative for admissible curves."""
    return minkowski_terms(dual_length(curve), curve.table().frame.area,
                           signed_area(curve))[0]


@dataclass
class IsoLedger:
    dual_length: float
    ball_area: float
    curve_area: float
    wc_area: float        # once-around Wigner caustic area
    cwms_area: float
    lhs: float            # L*^2 / (4 A_U)
    identity_residual: float
    gap_sym: float        # lhs - (A - A_CWMS); zero for symmetric curves
    gap_cw: float         # lhs - (A - 2 A_WC); zero for constant width
    gap_busemann: float   # lhs - A; zero for multiples of u
    scale: float

    def to_dict(self):
        d = asdict(self)
        del d["scale"]
        return d


def ledger_terms(L, A_U, A, A_WC, A_CWMS):
    """The fields of IsoLedger from L*, A(U), A(gamma), A_WC and A_CWMS,
    floats or arrays of one shape."""
    lhs = L * L / (4.0 * A_U)
    return {
        "dual_length": L, "ball_area": A_U, "curve_area": A,
        "wc_area": A_WC, "cwms_area": A_CWMS, "lhs": lhs,
        "identity_residual": lhs - (A - 2.0 * A_WC - A_CWMS),
        "gap_sym": lhs - (A - A_CWMS),
        "gap_cw": lhs - (A - 2.0 * A_WC),
        "gap_busemann": lhs - A,
        "scale": np.maximum(np.maximum(np.abs(lhs), np.abs(A)), 1e-300),
    }


def iso_ledger(curve):
    """All terms of the isoperimetric identity and its weakened gaps.

    Every term, A(U) included, is read from the curve's node table, and
    L* from decompose, which sums it for the mean width.
    """
    conv = is_convex(curve)
    if not (conv.convex and conv.sign >= 0):
        raise NotConvexInput(
            "the isoperimetric identity requires a positively oriented "
            f"convex curve (witness t={conv.witness})")
    dec = decompose(curve)
    return IsoLedger(**ledger_terms(
        dec.dual_length, curve.table().frame.area, signed_area(curve),
        dec.wc_area, dec.cwms_area))


# ---------------------------------------------------------------------------
# Polygons and the Lhuilier construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Polygon:
    """Strictly convex polygon, counterclockwise vertices.

    unit_normals, when given, are the outward unit normals of the edges
    (edge i runs from vertex i to vertex i + 1) that the vertices were
    computed from.  Such a polygon is convex by construction, and its
    vertices are not checked again: next to a nearly flat vertex or a very
    short edge they cannot resolve the turn.
    """

    vertices: np.ndarray
    unit_normals: np.ndarray | None = field(default=None, repr=False,
                                            compare=False)

    def __post_init__(self):
        verts = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValidationError("polygon needs at least 3 vertices")
        finite = np.isfinite(verts).all(axis=-1)   # NaN passes the CCW test
        if not finite.all():
            raise ValidationError(f"vertex {finite.argmin()} is not finite")
        if self.unit_normals is not None:
            return
        turns = cross2(self.edges, following(self.edges))
        if (turns <= 0).any():
            raise ValidationError(
                "vertices are not in strictly convex CCW position")

    def __eq__(self, other):
        if not isinstance(other, Polygon):
            return NotImplemented
        return np.array_equal(self.vertices, other.vertices)

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.vertices + 0.0).tobytes())

    @cached_property
    def edges(self):
        return following(self.vertices) - self.vertices

    @cached_property
    def normals(self):
        """Unit outward normals, one per edge."""
        if self.unit_normals is not None:
            return self.unit_normals
        e = self.edges
        n = e[:, ::-1] * (1.0, -1.0)
        return n / norm2(n)[:, None]

    @property
    def area(self):
        return shoelace_area(self.vertices)

    def scaled(self, c):
        return Polygon(c * self.vertices,
                       self.unit_normals if c > 0 else None)


def _tangent_polygon(normals):
    """Intersection of halfplanes <n_i, x> <= 1 over angle-sorted normals;
    an error names edges by their index in normals.

    Every halfplane boundary is tangent to the unit circle, so consecutive
    boundary lines meet in exactly the polygon's vertices.
    """
    angles = np.arctan2(normals[:, 1], normals[:, 0])
    order = angles.argsort()
    normals = normals[order]
    angles = angles[order]
    # neighbouring normals must span less than a half turn
    wide = np.pi - 1e-12
    if (angles[0] + 2 * np.pi - angles[-1] >= wide
            or (angles[1:] - angles[:-1] >= wide).any()):
        raise DegenerateIntersection(
            "normals leave a half-plane uncovered; intersection is unbounded")
    nxt = following(normals)
    det = cross2(normals, nxt)
    flat = np.abs(det) < 1e-14
    if flat.any():
        i = int(np.argmax(flat))
        raise DegenerateIntersection(
            f"parallel consecutive normals: edges {order[i]} and "
            f"{order[(i + 1) % len(order)]} (|det| {abs(det[i]):.1e})")
    # n1.x = 1 and n2.x = 1 meet on the bisector of the unit normals, at
    # (n1 + n2) / (1 + n1.n2), which stays accurate for nearly parallel
    # normals; Cramer's rule does for normals more than a right angle apart
    dot = normals[:, 0] * nxt[:, 0] + normals[:, 1] * nxt[:, 1]
    verts = (normals + nxt) / (1.0 + dot)[:, None]
    if (dot < 0).any():
        cramer = (nxt - normals)[:, ::-1] * (1.0, -1.0) / det[:, None]
        verts = np.where((dot >= 0)[:, None], verts, cramer)
    # the edge from vertex i to vertex i + 1 lies on line i + 1
    return Polygon(verts, unit_normals=nxt)


def _dedupe_normals(normals, tol=1e-12):
    """The normals and their negatives, one kept per run of directions
    less than tol apart (each within tol of the one before it), the first
    of each run.  Runs are found among line directions, on a half turn, so
    the result holds -n exactly for every n in it."""
    theta = np.arctan2(normals[:, 1], normals[:, 0])
    line = np.mod(theta, np.pi)
    order = line.argsort()
    line = line[order]
    keep = np.concatenate([[True], line[1:] - line[:-1] > tol])
    # the last run may wrap around onto the first
    if keep.sum() > 1 and line[0] + np.pi - line[keep][-1] <= tol:
        keep[0] = False
    upper = (theta >= 0) & (theta < np.pi)
    half = np.where(upper[:, None], normals, -normals)[order[keep]]
    return np.concatenate([half, -half])


def circumscribed_parallel_polygon(K):
    """K1: circumscribed about the unit circle, sides parallel to K's."""
    return _tangent_polygon(K.normals)


def symmetrize_polygon(K1):
    """K1 intersected with -K1: the tangent polygon over normals +-n_i.

    It is made a unit ball, whose checks resolve lengths down to 1e-9 of
    its diameter, so a side shorter than twice that raises
    DegenerateIntersection.
    """
    K1_0 = _tangent_polygon(_dedupe_normals(K1.normals))
    sides = norm2(K1_0.edges)
    diameter = 2.0 * norm2(K1_0.vertices).max()
    short = sides < 2e-9 * diameter
    if short.any():
        i = int(np.argmax(short))
        raise DegenerateIntersection(
            f"side {i} of K1^0 is {sides[i]:.1e} long, below the resolution "
            f"of a ball of diameter {diameter:.1e}")
    return K1_0


def polygon_ball(P):
    """A symmetric polygon as a unit ball, one unit parameter per edge."""
    if len(P.vertices) % 2 != 0:
        raise ValidationError("polygonal ball needs an even vertex count")
    return build_ball(P.vertices)


@dataclass
class LhuilierReport:
    K: Polygon
    K1: Polygon
    K1_0: Polygon
    dual_length: float
    area_K: float
    area_K1_0: float
    gap: float            # L*^2 / (4 A(K1_0)) - A(K)
    equality: bool        # K is a constant multiple of K1_0
    scale: float

    def to_dict(self):
        return {
            "K": self.K.vertices.tolist(),
            "K1": self.K1.vertices.tolist(),
            "K1_0": self.K1_0.vertices.tolist(),
            "L_star": self.dual_length,
            "A_K": self.area_K,
            "A_K1_0": self.area_K1_0,
            "gap": self.gap,
            "equality": self.equality,
        }


def embed_polygon(K, ball_poly, ball=None):
    """K as an admissible curve in the normed plane with polygonal ball.

    Each edge of K is matched to the ball edge with the same outward
    normal; the radius on that piece is the length ratio, and ball edges
    with no parallel K edge get radius zero.  Normals are matched by the
    angle between them, which the cross product resolves where the dot
    product rounds to 1; K edges that meet the same ball edge (normals
    closer than the ball's resolution) are merged and their lengths summed.
    """
    if ball is None:
        ball = polygon_ball(ball_poly)
    ball_normals = ball_poly.normals
    m = len(ball_normals)
    # cs[k, j] and cs[k, m + j]: the dot and cross products [b_j, n_k] of
    # K normal k with ball normal j, in one product
    turned = ball_normals[:, ::-1] * (-1.0, 1.0)
    cs = K.normals @ np.concatenate([ball_normals, turned]).T
    match = np.abs(np.arctan2(cs[:, m:], cs[:, :m])).argmin(axis=1)
    unmatched = cs[np.arange(len(match)), match] < 1.0 - 1e-9
    if unmatched.any():
        raise EmbeddingFailed(
            f"edge {int(np.argmax(unmatched))} of K has no parallel ball "
            "edge; the construction guarantees one, so this indicates a bug")
    radii = np.bincount(match, weights=norm2(K.edges)
                        / norm2(ball_poly.edges)[match], minlength=m)
    # the curve starts where the first K edge on the first matched piece
    # does; a run of merged edges may wrap past the end of the list
    first = match == match.min()
    start = int((first & ~np.concatenate([first[-1:], first[:-1]])).argmax())
    return AdmissibleCurve(ball, radii, K.vertices[start])


def lhuilier_check(K):
    """The weak Lhuilier inequality: L*(K)^2 / (4 A(K1^0)) >= A(K)."""
    K1 = circumscribed_parallel_polygon(K)
    K1_0 = symmetrize_polygon(K1)
    ball = polygon_ball(K1_0)
    gamma = embed_polygon(K, K1_0, ball=ball)
    L = dual_length(gamma)
    A_K = K.area
    A_ball = K1_0.area
    # the weak gap is the Busemann one, which reads neither area of the
    # decomposition
    led = ledger_terms(L, A_ball, A_K, 0.0, 0.0)
    # equality iff the radius is the same constant on every piece
    r = gamma.table().r
    lo, hi = r.min(), r.max()
    equality = float(hi - lo) <= 1e-8 * max(float(max(-lo, hi)), 1e-300)
    return LhuilierReport(
        K=K, K1=K1, K1_0=K1_0,
        dual_length=L, area_K=A_K, area_K1_0=A_ball,
        gap=led["gap_busemann"], equality=equality, scale=led["scale"],
    )
