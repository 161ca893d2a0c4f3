import numpy as np
import pytest

from normplane import (Polygon, circumscribed_parallel_polygon,
                       curve_from_radius, embed_polygon, iso_ledger,
                       lhuilier_check, minkowski_gap, polygon_ball,
                       symmetrize_polygon)
from normplane.ball import following
from normplane.corpus import (random_convex_curve, random_convex_polygon,
                              random_symmetric_convex_polygon)
from normplane.errors import (DegenerateIntersection, NotConvexInput,
                              ValidationError)
from normplane.measures import dual_length

from conftest import rect_curve


class TestMinkowskiGap:
    def test_rectangle_closed_form(self, square):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a, b = sorted(rng.uniform(0.2, 3.0, size=2), reverse=True)
            gap = minkowski_gap(rect_curve(square, a, b))
            assert gap == pytest.approx(16 * (a - b) ** 2, rel=1e-9,
                                        abs=1e-10)

    def test_scaled_ball_equality(self, all_balls):
        for ball in all_balls.values():
            base = 1.4 * ball.point(np.array(ball.t_start))
            c = curve_from_radius(ball, 1.4, basepoint=base)
            L = dual_length(c)
            assert abs(minkowski_gap(c)) < 1e-10 * L * L

    def test_nonnegative_on_random_curves(self, all_balls):
        rng = np.random.default_rng(8)
        for ball in all_balls.values():
            c = random_convex_curve(ball, rng)
            L = dual_length(c)
            assert minkowski_gap(c) >= -1e-9 * L * L


class TestIsoLedger:
    def test_example22_identity(self, example22):
        led = iso_ledger(example22)
        assert led.ball_area == pytest.approx(np.pi / 2 + 1, abs=1e-10)
        assert led.lhs == pytest.approx(
            led.dual_length ** 2 / (4 * led.ball_area), rel=1e-14)
        assert abs(led.identity_residual) < 1e-10 * led.lhs

    def test_rectangle_closed_forms(self, rectangle):
        a, b = rectangle.ab
        led = iso_ledger(rectangle)
        assert led.dual_length == pytest.approx(4 * (a + b), rel=1e-12)
        assert led.curve_area == pytest.approx(4 * a * b, rel=1e-12)
        assert led.lhs == pytest.approx((a + b) ** 2, rel=1e-10)
        assert led.wc_area == pytest.approx(0.0, abs=1e-12)
        assert led.cwms_area == pytest.approx(-(a - b) ** 2, rel=1e-10)
        # rectangle is symmetric: gap_sym vanishes, gap_cw = (a-b)^2
        assert abs(led.gap_sym) < 1e-10 * led.scale
        assert led.gap_cw == pytest.approx((a - b) ** 2, rel=1e-9)

    def test_gap_arithmetic(self, example22):
        led = iso_ledger(example22)
        assert led.gap_busemann == pytest.approx(
            led.gap_sym - led.cwms_area, abs=1e-12 * led.scale)
        assert led.gap_cw == pytest.approx(
            led.gap_busemann + 2 * led.wc_area, abs=1e-12 * led.scale)

    def test_rejects_nonconvex(self, euclidean):
        curve = curve_from_radius(euclidean, "cos(3*pi/2*t)")
        with pytest.raises(NotConvexInput):
            iso_ledger(curve)

    def test_rejects_negatively_oriented(self, euclidean):
        curve = curve_from_radius(euclidean, -1.0)
        with pytest.raises(NotConvexInput):
            iso_ledger(curve)


class TestPolygon:
    def test_requires_ccw_convex(self):
        with pytest.raises(ValidationError):
            Polygon([(0, 0), (0, 1), (1, 0)])
        with pytest.raises(ValidationError):
            Polygon([(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_edges_are_computed_once_without_roll(self, monkeypatch):
        v = np.random.default_rng(5).normal(size=(9, 2))
        for a in (v, v[:, 0], v[:1]):
            assert np.array_equal(following(a), np.roll(a, -1, axis=0))

        def no_roll(*args, **kwargs):
            raise AssertionError("np.roll on the Lhuilier path")

        monkeypatch.setattr(np, "roll", no_roll)
        K = random_convex_polygon(np.random.default_rng(6), 7)
        assert K.edges is K.edges
        report = lhuilier_check(K)
        assert report.gap > 0

    def test_equal_vertices_are_equal_polygons(self):
        v = np.array([(0, 0), (2, 0), (0.5, 1.5)])
        P, Q = Polygon(v), Polygon(v.copy())
        assert P == Q and not P != Q
        assert Polygon(v + 0.5) != P
        # -0.0 == 0.0, so their hashes agree too
        assert Polygon(np.where(v == 0, -0.0, v)) == P

    def test_hash_is_consistent_with_equality(self):
        v = np.array([(0, 0), (2, 0), (0.5, 1.5)])
        P = Polygon(v)
        assert hash(P) == hash(Polygon(v.copy()))
        assert hash(Polygon(np.where(v == 0, -0.0, v))) == hash(P)
        assert len({P, Polygon(v.copy()), Polygon(v + 0.5)}) == 2

    def test_polygons_of_different_shapes_are_unequal(self):
        tri = Polygon([(0, 0), (2, 0), (0.5, 1.5)])
        square = Polygon([(1, -1), (1, 1), (-1, 1), (-1, -1)])
        assert tri != square and not tri == square
        assert tri != tri.vertices.tolist()

    def test_area_and_normals(self):
        P = Polygon([(1, -1), (1, 1), (-1, 1), (-1, -1)])
        assert P.area == pytest.approx(4.0)
        np.testing.assert_allclose(
            P.normals, [(1, 0), (0, 1), (-1, 0), (0, -1)], atol=1e-15)

    def test_square_tangent_polygon(self):
        # halfplanes <n, x> <= 1 over the axis normals give [-1,1]^2
        P = Polygon(0.3 * np.array([(1, -1), (1, 1), (-1, 1), (-1, -1)]))
        K1 = circumscribed_parallel_polygon(P)
        assert K1.area == pytest.approx(4.0, abs=1e-12)
        got = set(map(tuple, np.round(K1.vertices, 9)))
        assert got == {(1, -1), (1, 1), (-1, 1), (-1, -1)}

    def test_triangle_tangent_polygon_touches_unit_circle(self):
        P = Polygon([(0, 0), (2, 0), (0.5, 1.5)])
        K1 = circumscribed_parallel_polygon(P)
        # each edge line of K1 is at distance 1 from the origin
        for v, n in zip(K1.vertices, K1.normals):
            assert float(n @ v) == pytest.approx(1.0, abs=1e-12)
        # same normal set, possibly reordered by angle
        got = np.array(sorted(map(tuple, np.round(K1.normals, 9))))
        want = np.array(sorted(map(tuple, np.round(P.normals, 9))))
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_symmetrize_triangle_gives_hexagon(self):
        P = Polygon([(0, 0), (2, 0), (0.5, 1.5)])
        K1 = circumscribed_parallel_polygon(P)
        K1_0 = symmetrize_polygon(K1)
        assert len(K1_0.vertices) == 6
        np.testing.assert_allclose(K1_0.vertices.mean(axis=0), [0, 0],
                                   atol=1e-12)
        assert K1_0.area <= K1.area + 1e-12

    def test_symmetric_input_is_fixed_by_symmetrize(self):
        rng = np.random.default_rng(12)
        K = random_symmetric_convex_polygon(rng, 4)
        K1 = circumscribed_parallel_polygon(K)
        K1_0 = symmetrize_polygon(K1)
        got = np.array(sorted(map(tuple, np.round(K1_0.vertices, 9))))
        want = np.array(sorted(map(tuple, np.round(K1.vertices, 9))))
        np.testing.assert_allclose(got, want, atol=1e-9)


class TestEmbedding:
    def test_embedded_polygon_traces_vertices(self):
        rng = np.random.default_rng(5)
        K = random_convex_polygon(rng, 6)
        K1_0 = symmetrize_polygon(circumscribed_parallel_polygon(K))
        ball = polygon_ball(K1_0)
        gamma = embed_polygon(K, K1_0, ball=ball)
        # every vertex of K lies on the traced curve
        ts = np.linspace(ball.t_start, ball.t_start + 2 * ball.T, 4001)
        pts = gamma.point(ts)
        for v in K.vertices:
            d = np.min(np.linalg.norm(pts - v, axis=-1))
            assert d < 5e-3 * max(1.0, np.max(np.abs(K.vertices)))

    def test_dual_length_is_weighted_perimeter(self):
        # on a polygonal ball the dual length of the embedded polygon is
        # sum of r_j * [u_j, e_j] over matched edges
        rng = np.random.default_rng(6)
        K = random_symmetric_convex_polygon(rng, 3)
        K1_0 = symmetrize_polygon(circumscribed_parallel_polygon(K))
        ball = polygon_ball(K1_0)
        gamma = embed_polygon(K, K1_0, ball=ball)
        L = dual_length(gamma)
        assert L > 0

    def test_dual_length_is_the_perimeter(self):
        # every side of K1^0 is tangent to the unit circle, so [u, u'] is
        # the side's length and r [u, u'] the matched edge's length of K
        rng = np.random.default_rng(31)
        for _ in range(200):
            K = random_convex_polygon(rng, int(rng.integers(5, 49)))
            K1 = circumscribed_parallel_polygon(K)
            gamma = embed_polygon(K, symmetrize_polygon(K1))
            per = float(np.sum(np.linalg.norm(K.edges, axis=-1)))
            assert abs(dual_length(gamma) - per) <= 1e-12 * per
            # the classical Lhuilier inequality, an independent oracle
            assert per * per >= 4.0 * K1.area * K.area


class TestLhuilier:
    def test_random_polygons_nonnegative_gap(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            K = random_convex_polygon(rng, 7)
            rep = lhuilier_check(K)
            assert rep.gap >= -1e-9 * rep.scale

    def test_equality_for_multiple_of_symmetrized_body(self):
        rng = np.random.default_rng(101)
        K0 = random_convex_polygon(rng, 5)
        K1_0 = symmetrize_polygon(circumscribed_parallel_polygon(K0))
        rep = lhuilier_check(K1_0.scaled(1.75))
        assert rep.equality
        assert abs(rep.gap) < 1e-8 * rep.scale

    def test_symmetric_polygon_keeps_k1(self):
        rng = np.random.default_rng(55)
        K = random_symmetric_convex_polygon(rng, 5)
        rep = lhuilier_check(K)
        assert rep.K1_0.area == pytest.approx(rep.K1.area, rel=1e-9)

    def test_report_fields(self):
        P = Polygon([(1, -1), (1, 1), (-1, 1), (-1, -1)])
        rep = lhuilier_check(P)
        d = rep.to_dict()
        assert set(d) >= {"K", "K1", "K1_0", "L_star", "A_K", "A_K1_0",
                          "gap", "equality"}
        # the square is its own K1^0 up to scale: equality case
        assert rep.equality
        assert abs(rep.gap) < 1e-8 * rep.scale


def _near_parallel(eps, roll=0):
    """A pentagon whose edges 1 and 2 have normals eps apart."""
    verts = [[0, 0], [1, 0], [1, 0.5], [1 - 0.5 * np.tan(eps), 1], [0, 1]]
    return Polygon(np.roll(verts, roll, axis=0))


def _distance_to_polygon(p, verts):
    a, b = verts, np.roll(verts, -1, axis=0)
    d = b - a
    dd = np.maximum(np.sum(d * d, axis=-1), 1e-300)
    s = np.clip(np.sum((p - a) * d, axis=-1) / dd, 0.0, 1.0)
    return float(np.min(np.linalg.norm(a + s[:, None] * d - p, axis=-1)))


class TestNearParallelEdges:
    @pytest.mark.parametrize("eps", [1e-4, 1e-7, 1e-9, 1e-10, 1e-11,
                                     1e-12, 1e-13, 1e-15])
    def test_report_or_named_degeneracy(self, eps):
        try:
            rep = lhuilier_check(_near_parallel(eps))
        except DegenerateIntersection as exc:
            assert "edges 1 and 2" in str(exc)
        else:
            assert rep.gap >= -1e-9 * rep.scale

    @pytest.mark.parametrize("eps", [1e-9, 1e-13])
    @pytest.mark.parametrize("roll", [0, -2])
    def test_embedding_traces_the_polygon(self, eps, roll):
        # roll -2 puts the near-parallel pair at edges 4 and 0, across
        # the start of the vertex list
        K = _near_parallel(eps, roll)
        K1_0 = symmetrize_polygon(circumscribed_parallel_polygon(K))
        ball = polygon_ball(K1_0)
        gamma = embed_polygon(K, K1_0, ball=ball)
        corners = gamma.point(np.array([p.t0 for p in ball.pieces]))
        for v in K.vertices:
            assert _distance_to_polygon(v, corners) < 1e-9
        for c in corners:
            assert _distance_to_polygon(c, K.vertices) < 1e-9


def _ellipse_polygon(rng, n, aspect):
    """n jittered points on a randomly placed ellipse of the given aspect
    ratio (aspect 1e6 is a needle)."""
    theta = (np.arange(n) + rng.uniform(0.15, 0.85, n)) * 2 * np.pi / n
    phi = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    pts = np.stack([np.cos(theta), np.sin(theta) / aspect], axis=-1)
    return (pts @ rot.T) * rng.uniform(0.1, 10.0) + rng.uniform(-1, 1, 2)


def _split_edge(rng, verts, eps):
    """verts with one edge bent outward at its midpoint, so that the two
    new edges have normals about eps apart."""
    k = int(rng.integers(len(verts)))
    a, b = verts[k], verts[(k + 1) % len(verts)]
    e = b - a
    bend = 0.25 * np.tan(eps) * np.array([e[1], -e[0]])
    return np.insert(verts, k + 1, 0.5 * (a + b) + bend, axis=0)


def _sweep_cases():
    """(name, vertices, whether a report is due) for needles, polygons with
    many vertices and near-parallel edge pairs.  A needle past aspect 1e4
    may have K1^0 sides below its ball's resolution, and a pair closer than
    1e-13 may meet the 1e-14 floor on the normals' determinant."""
    rng = np.random.default_rng(20261)
    for aspect in 10.0 ** np.arange(0, 6.5, 0.5):
        for n in (3, 4, 5, 8, 17, 48, 96):
            yield (f"needle {aspect:.0e} n={n}",
                   _ellipse_polygon(rng, n, aspect), aspect <= 1e4)
    for n in (200, 350, 500):
        for aspect in (1.0, 30.0, 1e3):
            yield (f"{n}-gon {aspect:.0e}", _ellipse_polygon(rng, n, aspect),
                   True)
    for eps in 10.0 ** np.arange(-15, -3.5, 0.5):
        for n in (4, 7, 20):
            base = _ellipse_polygon(rng, n, rng.uniform(1.0, 3.0))
            yield (f"near-parallel {eps:.0e} n={n}",
                   _split_edge(rng, base, eps), eps >= 1e-13)
        for roll in (0, -2):
            yield (f"near-parallel {eps:.0e} roll={roll}",
                   _near_parallel(eps, roll).vertices, eps >= 1e-13)


def test_near_degenerate_sweep():
    # a report with a non-negative gap and L* the perimeter, or a named
    # degeneracy, never another failure
    for name, verts, due in _sweep_cases():
        K = Polygon(verts)
        try:
            rep = lhuilier_check(K)
        except DegenerateIntersection:
            assert not due, name
            continue
        assert rep.gap >= -1e-9 * rep.scale, name
        per = float(np.sum(np.linalg.norm(K.edges, axis=-1)))
        assert abs(rep.dual_length - per) <= 1e-12 * per, name
