"""Segment pieces and constant radii are evaluated in one gather by piece.
Here every value they reach is checked, bit for bit, against a per-piece
reference: each piece's own point and velocity, each radius as its own
callable, called on the parameters of that piece alone."""

import copy
import itertools
import re

import numpy as np
import pytest

from normplane import expressions as ex
from normplane import (AdmissibleCurve, Piece, Polygon, build_ball,
                       builtin_ball, circumscribed_parallel_polygon, cross2,
                       curve_from_radius, dual_length, embed_polygon,
                       lhuilier_check, polygon_ball, signed_area,
                       symmetrize_polygon)
from normplane.ball import Frame
from normplane.corpus import random_convex_polygon
from normplane.curve import NodeTable, _sampler
from normplane.errors import DomainError
from normplane.quadrature import DEFAULT_CONFIG, integrate

from conftest import EXAMPLE22_RADII

BUILTINS = ([("square", {}), ("euclidean", {}), ("mixed_example21", {})]
            + [("regular_2k_gon", {"k": k}) for k in range(2, 9)])


def _constant(c):
    return lambda t: np.full(np.shape(t), c)


# -- the reference ----------------------------------------------------------

def ref_leaves(ball, radii):
    """The panels the adaptive rule accepts for r u' on the first half
    period, the integrand evaluated piece by piece."""
    n, T = ball.n_half, ball.T

    def f(s):
        cut = np.searchsorted(s, ball.breaks[:n + 1])
        out = np.empty((len(s), 2, 2))
        for i in range(n):
            si = s[cut[i]:cut[i + 1]]
            r = np.stack([radii[i](si), radii[i + n](si + T)], axis=-1)
            out[cut[i]:cut[i + 1]] = (r[..., None]
                                      * ball.pieces[i].velocity(si)[:, None])
        return out

    leaves = []
    integrate(f, ball.breaks[:n], ball.breaks[1:n + 1], DEFAULT_CONFIG,
              leaves=leaves)
    [panels] = leaves
    return panels


def ref_frame(ball, frame):
    """u and u' at the frame's nodes and u at its panel starts, one piece
    at a time."""
    u = np.full(frame.t.shape + (2,), np.nan)
    du = np.full(frame.t.shape + (2,), np.nan)
    u_lo = np.full(frame.lo.shape + (2,), np.nan)
    for i, p in enumerate(ball.pieces):
        on = frame.piece == i
        u[on], du[on] = p.point(frame.t[on]), p.velocity(frame.t[on])
        u_lo[on] = p.point(frame.lo[on])
    return u, du, u_lo


def ref_table(curve, radii):
    """The curve's radius at its frame's nodes, piece by piece, and its
    points from those radii and the reference u'."""
    frame = curve.table().frame
    r = np.full(frame.t.shape, np.nan)
    for i, fn in enumerate(radii):
        on = frame.piece == i
        r[on] = _sampler(i, fn)(frame.t[on])
    ref = copy.copy(frame)
    ref.du = ref_frame(curve.ball, frame)[1]
    return r, NodeTable(ref, r, curve.basepoint).gamma


def piece_params(ball, rng):
    """Parameters with the piece each lies on: every piece's start (a
    vertex, where the piece to its right holds) and two interior points,
    also shifted by +-2T."""
    t, idx = [], []
    for j in range(ball.n_pieces):
        t0, t1 = ball.t0[j], ball.t1[j]
        own = np.concatenate([[t0], t0 + (t1 - t0) * rng.uniform(size=2)])
        for shift in (0.0, 2 * ball.T, -2 * ball.T):
            t.append(own + shift)
            idx.append(np.full(3, j))
    return np.concatenate(t), np.concatenate(idx)


def assert_matches_reference(curve, radii, rng):
    """Every gathered value of curve, whose radii as per-piece callables
    are radii, equals the reference bit for bit."""
    ball = curve.ball
    frame = curve.table().frame
    np.testing.assert_array_equal(
        np.column_stack([frame.ends[:-1], frame.ends[1:]]),
        ref_leaves(ball, radii))
    u, du, u_lo = ref_frame(ball, frame)
    np.testing.assert_array_equal(frame.u, u)
    np.testing.assert_array_equal(frame.du, du)
    np.testing.assert_array_equal(frame.u_lo, u_lo)
    np.testing.assert_array_equal(frame.cross, cross2(u, du))
    r, gamma = ref_table(curve, radii)
    np.testing.assert_array_equal(curve.table().r, r)
    np.testing.assert_array_equal(curve.table().gamma, gamma)

    t, idx = piece_params(ball, rng)
    t_red = ball.reduce(t)
    for name in ("point", "velocity", "accel"):
        want = np.empty(t.shape + (2,))
        for j in np.unique(idx):
            on = idx == j
            want[on] = getattr(ball.pieces[j], name)(t_red[on])
        np.testing.assert_array_equal(getattr(ball, name)(t), want)
        np.testing.assert_array_equal(getattr(ball, name)(np.array(t[0])),
                                      want[0])
    want = np.empty(t.shape)
    for j in np.unique(idx):
        on = idx == j
        want[on] = radii[j](t_red[on])
    np.testing.assert_array_equal(curve.radius(t), want)


def assert_same_curve(c1, c2, tol=1e-14):
    """r and gamma at 48 nodes a piece, L* and A of c1 and c2 agree within
    tol of their scale: the largest |r|, the curve's length scale, |L*| and
    the ledger's L*^2 / (4 A(U))."""
    ts = c1.sample_params(48)
    r1, r2 = c1.radius(ts), c2.radius(ts)
    np.testing.assert_allclose(r1, r2, rtol=0, atol=tol * np.abs(r1).max())
    np.testing.assert_allclose(c1.point(ts), c2.point(ts), rtol=0,
                               atol=tol * c1.length_scale)
    L1, L2 = dual_length(c1), dual_length(c2)
    assert abs(L1 - L2) <= tol * abs(L1)
    lhs = L1 * L1 / (4.0 * c1.table().frame.area)
    assert abs(signed_area(c1) - signed_area(c2)) <= tol * lhs


# -- builtin balls: segments, arcs and both in one ball ---------------------

@pytest.mark.parametrize("name, params", BUILTINS,
                         ids=[f"{n}{p.get('k', '')}" for n, p in BUILTINS])
def test_builtin_balls_match_the_per_piece_reference(name, params):
    ball = builtin_ball(name, **params)
    rng = np.random.default_rng(len(name) + params.get("k", 0))
    radii = rng.uniform(0.5, 2.0, size=ball.n_pieces)
    curve = AdmissibleCurve(ball, radii, (0.3, -0.2), check_closure=False)
    assert_matches_reference(curve, [_constant(c) for c in radii], rng)
    # a callable on each first-half piece and a constant on its antipode,
    # so large that it sets the tolerance of the panels they share
    n = ball.n_half
    mixed = [(lambda t, c=c: c + 0.25 * np.sin(150.0 * t))
             for c in radii[:n]]
    mixed += list(1e9 * radii[n:])
    want = mixed[:n] + [_constant(c) for c in mixed[n:]]
    curve = AdmissibleCurve(ball, mixed, (0.3, -0.2), check_closure=False)
    assert_matches_reference(curve, want, rng)


def test_example22_with_numeric_radii_matches_the_reference(example22):
    radii = [1, EXAMPLE22_RADII[1], 4.0, EXAMPLE22_RADII[3]]
    curve = curve_from_radius(example22.ball, radii, basepoint=(2, 1))
    assert_matches_reference(curve, example22.radii,
                             np.random.default_rng(22))
    np.testing.assert_array_equal(curve.table().gamma,
                                  example22.table().gamma)


# -- the balls of the Lhuilier construction ----------------------------------

def test_polygon_balls_match_the_per_piece_reference():
    rng = np.random.default_rng(7)
    for _ in range(300):
        K = random_convex_polygon(rng, int(rng.integers(5, 49)))
        K1_0 = symmetrize_polygon(circumscribed_parallel_polygon(K))
        ball = polygon_ball(K1_0)
        gamma = embed_polygon(K, K1_0, ball=ball)
        radii = gamma.radius(ball.t0)
        assert_matches_reference(gamma, [_constant(c) for c in radii], rng)
        # the same radii as callables take quad's rule, the numbers its
        # 3-node rule, and both give the same curve
        same = AdmissibleCurve(ball, [_constant(c) for c in radii],
                               gamma.basepoint)
        assert gamma.table().frame.n == 3
        assert same.table().frame.n == DEFAULT_CONFIG.nodes_per_panel
        assert_same_curve(gamma, same)


# -- constants that are not finite --------------------------------------------

@pytest.mark.parametrize("radii, message", [
    ([1, np.nan, 1, 1],
     "radius of piece 1 is not finite at t=1.0003474791321139"),
    ([1, 1, np.inf, 1],
     "radius of piece 2 is not finite at t=2.0003474791321141"),
    (np.array([1, 1, np.inf, 1]),
     "radius of piece 2 is not finite at t=2.0003474791321141"),
    # text without t whose value is not finite stays a callable
    ([1, "log(0)", 1, 1],
     "radius of piece 1 is not finite at t=1.0003474791321139"),
    ([1, 1, "sqrt(-1)", 1],
     "radius of piece 2 is not finite at t=2.0003474791321141"),
])
def test_non_finite_constant_radius_names_piece_and_parameter(square, radii,
                                                              message):
    with pytest.raises(DomainError, match=re.escape(message) + "$"):
        curve_from_radius(square, radii)


# -- frames gathered per panel ---------------------------------------------

def _stadium():
    """Two half discs joined by segments: four arcs, two segments."""
    half = [Piece.arc("1+cos(pi/2*t)", "sin(pi/2*t)", 0, 1),
            Piece.segment((1, 1), (-1, 1), 1, 2),
            Piece.arc("-1-sin(pi/2*(t-2))", "cos(pi/2*(t-2))", 2, 3)]
    return build_ball(half, auto_symmetrize=True)


def _polygon_balls(count):
    rng = np.random.default_rng(41)
    for _ in range(count):
        K = random_convex_polygon(rng, int(rng.integers(5, 49)))
        K1_0 = symmetrize_polygon(circumscribed_parallel_polygon(K))
        yield polygon_ball(K1_0), K, K1_0


def assert_frame_matches_per_node(frame, ball):
    """u, u', [u, u'], u_lo and the area gathered per panel equal those of
    evaluate with a piece index per node, bit for bit; u_lo and the area
    are dropped first, if they were read, and built again."""
    idx = np.broadcast_to(frame.piece[:, None], frame.t.shape)
    u, du = ball.evaluate(idx, frame.t)
    np.testing.assert_array_equal(frame.u, u)
    np.testing.assert_array_equal(frame.du, du)
    np.testing.assert_array_equal(frame.cross, cross2(u, du))
    vars(frame).pop("u_lo", None)
    vars(frame).pop("area", None)
    np.testing.assert_array_equal(frame.u_lo,
                                  ball.evaluate(frame.piece, frame.lo, 0)[0])
    assert frame.area == 0.5 * float(frame.integral(cross2(u, du)))


@pytest.mark.parametrize("name, params", BUILTINS,
                         ids=[f"{n}{p.get('k', '')}" for n, p in BUILTINS])
def test_builtin_frames_match_per_node_evaluate(name, params):
    ball = builtin_ball(name, **params)
    wavy = lambda t: 1.0 + 0.25 * np.sin(40.0 * t)   # noqa: E731
    curve = AdmissibleCurve(ball, wavy, (0.0, 0.0), check_closure=False)
    assert_frame_matches_per_node(curve.table().frame, ball)
    assert_frame_matches_per_node(ball.frame(DEFAULT_CONFIG, lambda idx, t:
                                             np.ones(idx.shape)), ball)


def test_four_arc_frames_match_per_node_evaluate_and_reference():
    ball = _stadium()
    assert len(ball.arcs) == 4
    rng = np.random.default_rng(6)
    for radius in ("1+0.3*cos(pi*t)", "2+sin(3*t)", 1.5):
        curve = AdmissibleCurve(ball, radius, (0.0, 0.0),
                                check_closure=False)
        assert_frame_matches_per_node(curve.table().frame, ball)
        assert_matches_reference(curve, curve.radii, rng)


def test_polygon_frames_match_per_node_evaluate():
    for ball, K, K1_0 in _polygon_balls(100):
        frame = embed_polygon(K, K1_0, ball=ball).table().frame
        assert not {"u_lo", "area"} & set(vars(frame))
        assert_frame_matches_per_node(frame, ball)


def test_the_lhuilier_check_reads_no_lazy_part(monkeypatch):
    def unread(self):
        raise AssertionError("the Lhuilier check read a lazy part")

    for cls, name in ((Frame, "u_lo"), (Frame, "area"),
                      (NodeTable, "gamma")):
        monkeypatch.setattr(cls, name, property(unread))
    rng = np.random.default_rng(43)
    for _ in range(20):
        K = random_convex_polygon(rng, int(rng.integers(3, 49)))
        assert lhuilier_check(K).gap >= 0


# -- the panel layout: one array of ends --------------------------------------

def _bump_curve(ball, at):
    """A radius with a narrow bump, 1/1000 of T wide, at t_start + at T."""
    t0, w = ball.t_start + at * ball.T, 1e-3 * ball.T
    return AdmissibleCurve(ball, lambda t: 1.0 + np.exp(-((t - t0) / w) ** 2),
                           (0.0, 0.0), check_closure=False)


def _bump(ball, at):
    """The frame of _bump_curve: it refines the panels there."""
    return _bump_curve(ball, at).table().frame


@pytest.mark.parametrize("name", ["euclidean", "square", "regular_2k_gon",
                                  "mixed_example21"])
@pytest.mark.parametrize("at", [0.1, 0.55])
def test_a_narrow_bump_is_resolved(name, at):
    """The bump falls between the nodes of the panel that holds it, yet the
    rule samples it and the table's series holds it."""
    ball = builtin_ball(name)
    curve = _bump_curve(ball, at)
    t0, w = ball.t_start + at * ball.T, 1e-3 * ball.T
    ts = t0 + np.linspace(-10 * w, 10 * w, 2001)
    np.testing.assert_allclose(curve.table().radius(ts), curve.radius(ts),
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("case", ["euclidean", "square", "regular_2k_gon",
                                  "mixed_example21", "polygon", "example22"])
def test_frames_are_made_cached_and_merged_from_their_ends(case, example22):
    if case == "polygon":
        K = random_convex_polygon(np.random.default_rng(5), 12)
        ball = polygon_ball(symmetrize_polygon(
            circumscribed_parallel_polygon(K)))
    else:
        ball = example22.ball if case == "example22" else builtin_ball(case)
    one, two = (AdmissibleCurve(ball, c, (0.0, 0.0), check_closure=False)
                .table().frame for c in (1.0, 2.0))
    frames = [one, _bump(ball, 0.1), _bump(ball, 0.55)]
    if case == "example22":
        frames.append(example22.table().frame)
    n = ball.n_half
    for f in frames:
        assert (np.diff(f.ends) > 0).all()
        assert f.ends[0] == ball.breaks[0] and f.ends[-1] == ball.breaks[n]
        assert np.isin(ball.breaks[:n + 1], f.ends).all()
        assert ball._frame_of(f.ends.copy(), f.n) is f
    # layouts that agree, as for r and 2r, share one Frame
    np.testing.assert_array_equal(one.ends, two.ends)
    assert one is two
    # the common refinement is the union of the ends
    for f1, f2 in itertools.combinations(frames, 2):
        both = ball.common_frame(f1, f2)
        np.testing.assert_array_equal(both.ends,
                                      np.union1d(f1.ends, f2.ends))
        assert both is ball.common_frame(f2, f1)
    assert len(ball.common_frame(*frames[1:3]).ends) > max(
        len(f.ends) for f in frames[1:3])


# -- many-vertex polygons ---------------------------------------------------

def test_a_400_vertex_ellipse_polygon():
    th = 2 * np.pi * np.arange(400) / 400 + 0.1
    K = Polygon(np.column_stack([2 * np.cos(th) + 0.3, np.sin(th) - 0.2]))
    report = lhuilier_check(K)
    per = float(np.sum(np.linalg.norm(K.edges, axis=-1)))
    assert abs(report.dual_length - per) <= 1e-12 * per
    assert report.gap >= 0
    assert len(report.K1_0.vertices) == 400


# -- radii given as a float array ---------------------------------------------

def test_a_finite_float_array_is_taken_whole(square):
    radii = np.array([1.0, 2.0, 1.0, 2.0])
    curve = curve_from_radius(square, radii)
    assert curve._fns == {}
    np.testing.assert_array_equal(curve._const, radii)
    radii[0] = 5.0
    assert curve._const[0] == 1.0
    radii[0] = 1.0
    # the same radii as a list, and as a float32 array
    want = curve_from_radius(square, radii).table().r
    for same in (radii.tolist(), radii.astype(np.float32)):
        np.testing.assert_array_equal(
            curve_from_radius(square, same).table().r, want)


def test_text_without_t_is_a_number(square):
    # text and an Expr without t are the values their compiled functions
    # give at every parameter, so they take the rule of number radii
    radii = ["1/3", ex.parse("2*sqrt(2)"), "1/3", "2*sqrt(2)"]
    curve = curve_from_radius(square, radii, basepoint=(2.0, -1 / 3))
    assert curve._fns == {}
    ts = np.linspace(0.0, 4.0, 7)
    for c, r in zip(curve._const, radii):
        assert (ex.compiled(r, 0)(ts) == c).all()
    want = curve_from_radius(square, curve._const.tolist(),
                             basepoint=(2.0, -1 / 3))
    assert curve.table().frame is want.table().frame
    assert curve.table().frame.n == 3
    np.testing.assert_array_equal(curve.table().gamma, want.table().gamma)
