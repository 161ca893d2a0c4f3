import numpy as np
import pytest

from normplane import (Piece, build_ball, builtin_ball,
                       circumscribed_parallel_polygon, cross2, jsonio,
                       mixed_area, signed_area, symmetrize_polygon)
from normplane import ball as ball_module
from normplane import expressions as ex
from normplane.corpus import random_convex_polygon
from normplane.errors import (DegeneratePiece, DomainError, NotClosed,
                              NotConvex, NotSymmetric, UnknownBuiltin,
                              ValidationError)

from conftest import EXAMPLE22_RADII


class TestBuiltins:
    def test_euclidean(self, euclidean):
        assert euclidean.T == pytest.approx(2.0)
        assert euclidean.area == pytest.approx(np.pi, abs=1e-10)
        np.testing.assert_allclose(euclidean.point(np.array(1.0)), [0, 1],
                                   atol=1e-15)

    def test_square(self, square):
        assert square.area == pytest.approx(4.0, abs=1e-12)

    def test_hexagon(self, hexagon):
        assert hexagon.area == pytest.approx(3 * np.sqrt(3) / 2, abs=1e-12)

    def test_mixed(self, mixed):
        assert mixed.T == pytest.approx(2.0)
        assert mixed.area == pytest.approx(np.pi / 2 + 1, abs=1e-10)
        np.testing.assert_allclose(mixed.point(np.array(0.5)), [0.5, 0.5],
                                   atol=1e-15)

    def test_unknown(self):
        with pytest.raises(UnknownBuiltin):
            builtin_ball("pentagon")
        with pytest.raises(UnknownBuiltin):
            builtin_ball(["square"])

    @pytest.mark.parametrize("name, params, named", [
        ("regular_2k_gon", {"k": "x"}, "'k'"),
        ("regular_2k_gon", {"k": [3]}, "'k'"),
        ("regular_2k_gon", {"k": 2.7}, "'k'"),
        ("regular_2k_gon", {"k": float("nan")}, "'k'"),
        ("regular_2k_gon", {"n": 3}, "'n'"),
        ("euclidean", {"k": 3}, "'k'"),
    ])
    def test_bad_parameter(self, name, params, named):
        with pytest.raises(ValidationError, match=named):
            builtin_ball(name, **params)

    @pytest.mark.parametrize("k", [1, ball_module.MAX_GON_K + 1, 1e12,
                                   10 ** 30])
    def test_k_out_of_range_is_rejected_before_building(self, k,
                                                         monkeypatch):
        def built(*args):
            raise AssertionError("regular_2k_gon was built")
        # so a missing bound fails at once, not after 2 k angles
        monkeypatch.setattr(ball_module, "build_ball", built)
        monkeypatch.setattr(ball_module, "range", built, raising=False)
        with pytest.raises(ValidationError,
                           match=f"'k' .* from 2 to {ball_module.MAX_GON_K}"):
            builtin_ball("regular_2k_gon", k=k)

    def test_largest_k(self):
        k = ball_module.MAX_GON_K
        assert len(builtin_ball("regular_2k_gon", k=k).pieces) == 2 * k

    def test_one_ball_per_name_and_parameters(self):
        assert builtin_ball("euclidean") is builtin_ball("euclidean")
        gon = builtin_ball("regular_2k_gon", k=3)
        assert builtin_ball("regular_2k_gon") is gon
        assert builtin_ball("regular_2k_gon", k=3.0) is gon
        assert builtin_ball("regular_2k_gon", k=4) is not gon

    def test_documents_naming_a_builtin_share_its_ball(self):
        # the same curve, translated, on the ball named two ways
        docs = [{"ball": ball, "basepoint": base, "radius": EXAMPLE22_RADII}
                for ball, base in ((("mixed_example21", [2, 1]),
                                    ({"builtin": "mixed_example21"},
                                     [-3.5, 0.25])))]
        c1, c2 = (jsonio.curve_from_doc(doc) for doc in docs)
        assert c1.ball is c2.ball
        assert mixed_area(c1, c2) == pytest.approx(signed_area(c1),
                                                   rel=1e-12)


class TestDualPoint:
    def test_euclidean_dual_is_tangent(self, euclidean):
        ts = np.linspace(0.1, 3.9, 50)
        v = euclidean.dual(ts)
        np.testing.assert_allclose(
            v, np.stack([-np.sin(np.pi / 2 * ts),
                         np.cos(np.pi / 2 * ts)], axis=-1), atol=1e-14)

    def test_mixed_segment_dual(self, mixed):
        # on the first straight segment v = (-1, 1)
        ts = np.linspace(0.05, 0.95, 20)
        np.testing.assert_allclose(mixed.dual(ts),
                                   np.tile([-1.0, 1.0], (20, 1)),
                                   atol=1e-14)

    def test_square_right_side_dual(self, square):
        np.testing.assert_allclose(square.dual(np.array(0.5)), [0, 1],
                                   atol=1e-14)

    def test_dual_constant_on_segments(self, all_balls):
        for ball in all_balls.values():
            for p in ball.pieces:
                if p.kind != "segment":
                    continue
                ts = np.linspace(p.t0, p.t1, 101)[1:-1]
                v = ball.dual(ts)
                assert np.max(np.abs(v - v[0])) < 1e-12

    def test_support_identities_random_t(self, all_balls):
        rng = np.random.default_rng(11)
        for ball in all_balls.values():
            ts = ball.t_start + rng.uniform(0, 2 * ball.T, size=1000)
            u = ball.point(ts)
            du = ball.velocity(ts)
            v = ball.dual(ts)
            np.testing.assert_allclose(cross2(u, v), 1.0, atol=1e-9)
            np.testing.assert_allclose(cross2(v, du), 0.0, atol=1e-9)


class TestInvariants:
    def test_antipodal_symmetry(self, all_balls):
        rng = np.random.default_rng(3)
        for ball in all_balls.values():
            ts = ball.t_start + rng.uniform(0, 2 * ball.T, size=100)
            np.testing.assert_allclose(ball.point(ts + ball.T),
                                       -ball.point(ts), atol=1e-12)

    @pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
    def test_area_scaling(self, mixed, c):
        assert mixed.scaled(c).area == pytest.approx(c ** 2 * mixed.area,
                                                     rel=1e-10)

    def test_auto_symmetrize_matches_full(self, euclidean):
        half = [Piece.arc("cos(pi/2*t)", "sin(pi/2*t)", i, i + 1)
                for i in range(2)]
        ball = build_ball(half, auto_symmetrize=True)
        ts = np.linspace(0, 4, 97)
        np.testing.assert_allclose(ball.point(ts), euclidean.point(ts),
                                   atol=1e-12)


def _assert_same_piece(p, q):
    """p and q agree, to 1e-15 of the scale, in u, u' and u''."""
    assert (p.kind, p.t0, p.t1) == (q.kind, q.t0, q.t1)
    ts = np.linspace(q.t0, q.t1, 257)
    for method in ("point", "velocity", "accel"):
        want = getattr(q, method)(ts)
        np.testing.assert_allclose(getattr(p, method)(ts), want, rtol=0,
                                   atol=1e-15 * np.max(np.abs(want)))


def _quarter(c, t0):
    c = f"{c!r}*"
    return Piece.arc(c + "cos(pi/2*t)", c + "sin(pi/2*t)", t0, t0 + 1)


class TestDerivedPieces:
    # the two builtins whose antipodal half is derived, written out in full
    WRITTEN_OUT = {
        "euclidean": lambda: [_quarter(1.0, i) for i in range(4)],
        "mixed_example21": lambda: [
            Piece.segment((1, 0), (0, 1), 0, 1), _quarter(1.0, 1),
            Piece.segment((-1, 0), (0, -1), 2, 3), _quarter(1.0, 3)],
    }

    @pytest.mark.parametrize("name", sorted(WRITTEN_OUT))
    def test_builtin_matches_its_written_out_pieces(self, name):
        ball = builtin_ball(name)
        want = self.WRITTEN_OUT[name]()
        assert len(ball.pieces) == len(want)
        for p, q in zip(ball.pieces, want):
            _assert_same_piece(p, q)

    def test_arc_copies_match_written_out_arcs(self):
        arc = _quarter(1.0, 0)
        _assert_same_piece(arc.negated_shifted(2.0), _quarter(1.0, 2))
        _assert_same_piece(arc.scaled(1.75), _quarter(1.75, 0))
        _assert_same_piece(arc.scaled(0.5).negated_shifted(2.0),
                           _quarter(0.5, 2))

    def test_only_the_given_half_is_compiled(self, monkeypatch):
        compiled = []
        compile_fn = ex.compile_fn

        def counted(e):
            compiled.append(e)
            return compile_fn(e)

        monkeypatch.setattr(ex, "compile_fn", counted)
        half = [Piece.segment((1, 0), (0, 1), 0, 1), _quarter(1.0, 1)]
        assert len(compiled) == 6   # x, y and their two derivatives
        ball = build_ball(half, auto_symmetrize=True)
        big = ball.scaled(2.0)
        assert big.area == pytest.approx(4 * ball.area, rel=1e-12)
        assert len(compiled) == 6


class TestValidationErrors:
    def test_not_symmetric(self):
        verts = [(1, -1), (1, 1), (-1, 1), (-1.2, -1)]
        pieces = [Piece.segment(verts[i], verts[(i + 1) % 4], i, i + 1)
                  for i in range(4)]
        with pytest.raises(NotSymmetric):
            build_ball(pieces)

    def test_not_closed(self):
        pieces = [
            Piece.segment((1, -1), (1, 1), 0, 1),
            Piece.segment((1, 1), (-1, 1), 1, 2),
            Piece.segment((-1, 1), (-1, -1), 2, 3),
            Piece.segment((-1, -1), (0.9, -1), 3, 4),
        ]
        with pytest.raises((NotClosed, NotSymmetric)):
            build_ball(pieces)

    def test_gap_at_an_inner_vertex(self):
        # each piece must start where the one before it ends, not only the
        # first where the last ends
        pieces = [Piece.segment((1, -1), (1, 1), 0, 1),
                  Piece.segment((1, 1.5), (-1, 1), 1, 2)]
        with pytest.raises(NotClosed) as info:
            build_ball(pieces, auto_symmetrize=True)
        assert str(info.value) == \
            "boundary gap 5.000e-01 at t=1.0 exceeds tolerance"
        arcs = [Piece.arc("cos(pi/2*t)", "sin(pi/2*t)", 0, 1),
                Piece.arc("1.01*cos(pi/2*t)", "1.01*sin(pi/2*t)", 1, 2)]
        with pytest.raises(NotClosed, match=r"at t=1\.0 "):
            build_ball(arcs, auto_symmetrize=True)

    def test_not_convex_clockwise(self):
        verts = [(1, -1), (-1, -1), (-1, 1), (1, 1)]
        pieces = [Piece.segment(verts[i], verts[(i + 1) % 4], i, i + 1)
                  for i in range(4)]
        with pytest.raises(NotConvex):
            build_ball(pieces)

    def test_not_convex_inflection_arc(self):
        # wobbly radius makes the arc lose strict convexity
        half = [Piece.arc("(1+0.4*cos(8*pi*t))*cos(pi/2*t)",
                          "(1+0.4*cos(8*pi*t))*sin(pi/2*t)", 0, 2)]
        with pytest.raises(NotConvex):
            build_ball(half, auto_symmetrize=True)

    def test_non_finite_vertex(self):
        # NaN fails every comparison, so no other check would catch it
        verts = np.array([(1, -1), (1, np.nan), (-1, 1), (-1, -1)])
        with pytest.raises(DomainError) as info:
            build_ball(verts)
        assert str(info.value) == "ball piece 0 is not finite at t=1"
        pieces = [Piece.segment(verts[i], verts[(i + 1) % 4], i, i + 1)
                  for i in range(4)]
        with pytest.raises(DomainError, match="piece 0 .* at t=1$"):
            build_ball(pieces)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_arc_leaving_its_domain(self):
        half = [Piece.arc("cos(pi/2*t)", "sin(pi/2*t)+sqrt(t-0.5)", 0, 1),
                Piece.arc("cos(pi/2*t)", "sin(pi/2*t)", 1, 2)]
        with pytest.raises(DomainError) as info:
            build_ball(half, auto_symmetrize=True)
        assert str(info.value) == "ball piece 0 is not finite at t=0"
        # a derivative that is infinite where the value is finite
        half[0] = Piece.arc("cos(pi/2*t)", "sin(pi/2*t)+sqrt(t)", 0, 1)
        with pytest.raises(DomainError, match="piece 0 .* at t=0$"):
            build_ball(half, auto_symmetrize=True)

    def test_degenerate_piece(self):
        # u'(0) = 0 under the t^2 reparameterization
        half = [Piece.arc("cos(pi/2*t^2)", "sin(pi/2*t^2)", 0, 1),
                Piece.arc("cos(pi/2*t)", "sin(pi/2*t)", 1, 2)]
        with pytest.raises(DegeneratePiece):
            build_ball(half, auto_symmetrize=True)


def test_vertex_evaluation_uses_right_piece(mixed):
    # t=1 is the vertex between the segment and the arc
    v = mixed.velocity(np.array(1.0))
    np.testing.assert_allclose(v, [-np.pi / 2 * np.sin(np.pi / 2),
                                   np.pi / 2 * np.cos(np.pi / 2)],
                               atol=1e-14)


def _segment_fns(s):
    """compile_fn of x and y of p0 + slope * (t - t0), with derivatives."""
    fns = []
    for k in range(2):
        slope = (s.p1[k] - s.p0[k]) / (s.t1 - s.t0)
        e = ex.BinOp("+", ex.Num(float(s.p0[k])),
                     ex.BinOp("*", ex.Num(float(slope)),
                              ex.BinOp("-", ex.Var(), ex.Num(s.t0))))
        de = ex.differentiate(e)
        fns.append([ex.compile_fn(f) for f in (e, de, ex.differentiate(de))])
    return fns


@pytest.mark.parametrize("p0, p1, t0, t1", [
    ((1, 0), (0, 1), 0, 1),
    ((0.3, -1.7), (-2.1, 0.4), 1.25, 2.0),
    ((1e-3, 5.0), (1e-3, -5.0), -3.5, 0.1),
])
def test_segment_matches_its_compiled_expression(p0, p1, t0, t1):
    seg = Piece.segment(p0, p1, t0, t1)
    ts = np.linspace(t0 - 1.0, t1 + 3.0, 37)
    for s in (seg, seg.negated_shifted(2.0), seg.negated_shifted(0.7),
              seg.scaled(1.75), seg.scaled(0.3)):
        assert s.kind == "segment"
        fns = _segment_fns(s)
        for j, method in enumerate((s.point, s.velocity, s.accel)):
            for t in (ts + (s.t0 - t0), np.array(s.t1)):
                want = np.stack([fns[0][j](t), fns[1][j](t)], axis=-1)
                np.testing.assert_array_equal(method(t), want)


def _hexagon_vertices():
    return np.array([(np.cos(a), np.sin(a)) for a in np.pi * np.arange(6) / 3])


class TestArcFreeValidation:
    """A ball of segments only is checked at the ends of its pieces; each
    fault keeps the class and message that sampling the piece interiors
    gave."""

    @pytest.mark.parametrize("pieces, error, message", [
        (np.array([(1, -1), (1, 1), (1, 1), (-1, 1), (-1, -1), (-1, -1)]),
         DegeneratePiece, "u' vanishes on piece [1.0, 2.0]"),
        (np.array([(-1, -1), (-1, 1), (1, 1), (1, -1)]), NotConvex,
         "[u, u'] is not strictly positive on piece [0.0, 1.0] (origin not "
         "strictly inside or wrong orientation)"),
        (np.array([(1, 0), (0.3, 0.3), (0, 1), (-1, 0), (-0.3, -0.3),
                   (0, -1)]), NotConvex, "right turn at vertex t=1.0"),
        (np.concatenate([_hexagon_vertices()[:5],
                         _hexagon_vertices()[5:] + [1e-6, 0]]),
         NotSymmetric, "u(t+T) != -u(t) on piece 1 (error 1.000e-06)"),
        ([Piece.segment((1, -1), (1, 1), 0, 1),
          Piece.segment((1, 1), (-1, 1), 1, 2),
          Piece.segment((-1, 1), (-1, -1), 2, 3),
          Piece.segment((-1, -1), (0.9, -1), 3, 4)],
         NotClosed, "boundary gap 1.000e-01 exceeds tolerance"),
    ], ids=["repeated-vertex", "clockwise", "reflex-vertex",
            "moved-antipode", "gap"])
    def test_fault_class_and_message(self, pieces, error, message):
        with pytest.raises(error) as info:
            build_ball(pieces)
        assert str(info.value) == message

    def test_diameter_is_twice_the_largest_vertex(self):
        rng = np.random.default_rng(17)
        polygons = [builtin_ball("square").p0,
                    builtin_ball("regular_2k_gon", k=5).p0]
        for _ in range(500):
            K = random_convex_polygon(rng, int(rng.integers(3, 49)))
            polygons.append(symmetrize_polygon(
                circumscribed_parallel_polygon(K)).vertices)
        for verts in polygons:
            largest = np.max(np.linalg.norm(verts, axis=-1))
            assert build_ball(verts).diameter == 2 * largest
