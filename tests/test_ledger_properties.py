"""Invariances of the isoperimetric ledger, as Hypothesis properties.

iso_ledger and Modes.ledger build their fields with one formula,
ledger_terms, so comparing the two paths cannot catch a fault in it.  Here
the ledger of a drawn convex curve is compared with the ledger of the same
curve moved or scaled: a translate has the same ledger, and a curve scaled
by c has c times its L*, the same A(U), and c^2 times every area and gap.
A map M of ball and curve together, det M > 0, multiplies L*, A(U) and
every area by det M, and leaves every gap over the ledger's scale
unchanged.

The equality cases are checked on both paths: a symmetric curve has
gap_sym 0 and a constant-width curve gap_cw 0.  On the disc the Gram forms
have Hurwitz's exact values, an oracle independent of both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normplane import (Piece, build_ball, builtin_ball, curve_from_radius,
                       iso_ledger)
from normplane.corpus import (CORPUS_BALL_NAMES,
                              constant_width_convex_coefficients,
                              convex_coefficients,
                              symmetric_convex_coefficients)
from normplane.modes import modes_of

# the power of the scale factor each term picks up; every other term is an
# area or a gap, and picks up its square
POWERS = {"dual_length": 1, "ball_area": 0}

balls = st.sampled_from(CORPUS_BALL_NAMES)
seeds = st.integers(0, 2**32 - 1)
factors = st.floats(0.1, 10.0)
angles = st.floats(0.0, 2 * np.pi)
# M = R(a) diag(s1, s2) R(b), every map with det M > 0
maps = st.builds(
    lambda a, s1, s2, b: rotation(a) @ np.diag([s1, s2]) @ rotation(b),
    angles, st.floats(0.3, 3.0), st.floats(0.3, 3.0), angles)


def rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def drawn_curve(name, seed):
    """A convex corpus curve on the named ball."""
    ball = builtin_ball(name)
    rng = np.random.default_rng(seed)
    modes, c, basepoint = convex_coefficients(ball, rng)
    return modes.curve(ball, c, basepoint)


def mapped_ball(name, M):
    """The named corpus ball mapped by M: a polygon by its vertices, and
    the arcs (cos, sin) of the others by their texts."""
    ball = builtin_ball(name)
    if not ball.arcs:
        return build_ball(ball.p0 @ M.T)
    (a, b), (c, d) = (["(%r)" % float(m) for m in row] for row in M)
    x = f"{a}*cos(pi/2*t)+{b}*sin(pi/2*t)"
    y = f"{c}*cos(pi/2*t)+{d}*sin(pi/2*t)"
    return build_ball([Piece.arc(x, y, p.t0, p.t1) if p.kind == "arc"
                       else Piece.segment(M @ p.p0, M @ p.p1, p.t0, p.t1)
                       for p in ball.pieces[:ball.n_half]],
                      auto_symmetrize=True)


def assert_scaled(got, want, c, tol=1e-12):
    """got is the ledger want of a curve scaled by c.  Areas and gaps are
    measured against the ledger's scale, L* against 2 sqrt(A(U) scale), the
    largest L* that scale admits, and A(U) against itself."""
    scale = np.asarray(want["scale"])
    sizes = {0: np.asarray(want["ball_area"]),
             1: 2.0 * np.sqrt(want["ball_area"] * scale), 2: scale}
    for name, value in want.items():
        p = POWERS.get(name, 2)
        err = np.abs(np.asarray(got[name]) - c ** p * np.asarray(value))
        assert np.all(err <= tol * c ** p * sizes[p]), name


def fields(led):
    return {**led.to_dict(), "scale": led.scale}


@settings(max_examples=50, deadline=None)
@given(name=balls, seed=seeds,
       v=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
def test_translated_curve_has_the_same_ledger(name, seed, v):
    curve = drawn_curve(name, seed)
    assert_scaled(fields(iso_ledger(curve.translated(v))),
                  fields(iso_ledger(curve)), 1.0)


@settings(max_examples=50, deadline=None)
@given(name=balls, seed=seeds, c=factors)
def test_radius_scaled_curve_scales_its_ledger(name, seed, c):
    curve = drawn_curve(name, seed)
    assert_scaled(fields(iso_ledger(curve.radius_scaled(c))),
                  fields(iso_ledger(curve)), c)


@settings(max_examples=50, deadline=None)
@given(name=balls, seeds=st.lists(seeds, min_size=1, max_size=6), c=factors)
def test_gram_ledger_scales_with_the_coefficients(name, seeds, c):
    ball = builtin_ball(name)
    drawn = [convex_coefficients(ball, np.random.default_rng(s))
             for s in seeds]
    modes = drawn[0][0]
    C = np.array([row for _, row, _ in drawn])
    assert_scaled(modes.ledger(c * C), modes.ledger(C), c)


@settings(max_examples=50, deadline=None)
@given(name=balls, seed=seeds, M=maps)
def test_mapped_ball_and_curve_scale_the_ledger_by_det(name, seed, M):
    ball = builtin_ball(name)
    modes, c, basepoint = convex_coefficients(
        ball, np.random.default_rng(seed))
    radius = lambda t: modes.values(t) @ c
    want = fields(iso_ledger(curve_from_radius(ball, radius, basepoint)))
    got = fields(iso_ledger(curve_from_radius(mapped_ball(name, M), radius,
                                              M @ basepoint)))
    det = np.linalg.det(M)
    for field in ("dual_length", "ball_area", "curve_area", "wc_area",
                  "cwms_area", "lhs"):
        err = abs(got[field] - det * want[field])
        assert err <= 1e-12 * det * want["scale"], field
    for field in ("identity_residual", "gap_sym", "gap_cw", "gap_busemann"):
        err = abs(got[field] / got["scale"] - want[field] / want["scale"])
        assert err <= 1e-12, field


def shifted_ledgers(ball, seed, shift):
    """The ledgers of a drawn convex curve with radius r(t) and of the
    curve with radius r(t + shift), both from the same explicit series."""
    modes, c, basepoint = convex_coefficients(
        ball, np.random.default_rng(seed))
    return [fields(iso_ledger(curve_from_radius(
        ball, lambda t, s=s: modes.values(t + s) @ c, basepoint)))
        for s in (shift, 0.0)]


@settings(max_examples=25, deadline=None)
@given(seed=seeds, shift=st.floats(-4.0, 4.0))
def test_shifted_radius_on_the_circle_has_the_same_ledger(seed, shift):
    # r(t + c) u'(t) is r(t + c) u'(t + c) turned by -pi c / 2: the curve
    # rotated, whose ledger on the rotation-invariant circle is the same
    assert_scaled(*shifted_ledgers(builtin_ball("euclidean"), seed, shift),
                  1.0)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, k=st.integers(2, 6), data=st.data())
def test_whole_piece_shift_on_a_regular_polygon_keeps_the_ledger(seed, k,
                                                                 data):
    # a shift by j unit pieces turns the curve by j pi / k, which maps the
    # regular 2k-gon onto itself
    j = data.draw(st.integers(1, 2 * k - 1))
    assert_scaled(*shifted_ledgers(builtin_ball("regular_2k_gon", k=k),
                                   seed, float(j)), 1.0)


@settings(max_examples=50, deadline=None)
@given(name=balls, seed=seeds)
def test_equality_cases_close_their_gaps_on_both_paths(name, seed):
    # a symmetric curve has no WC area and a constant-width curve no CWMS
    # area, so their gaps vanish, in the node-table ledger and in the Gram
    # ledger of the same coefficients alike
    ball = builtin_ball(name)
    for draw, gap in ((symmetric_convex_coefficients, "gap_sym"),
                      (constant_width_convex_coefficients, "gap_cw")):
        modes, c, basepoint = draw(ball, np.random.default_rng(seed))
        led = iso_ledger(modes.curve(ball, c, basepoint))
        assert abs(getattr(led, gap)) <= 1e-12 * led.scale, gap
        gram = modes.ledger(c[None])
        assert abs(gram[gap][0]) <= 1e-12 * gram["scale"][0], gap


@pytest.mark.parametrize("kmax", [4, 8])
def test_disc_gram_forms_are_hurwitz(kmax):
    # on the disc, mode cos(k theta) or sin(k theta) is a radius of
    # curvature with support function r / (1 - k^2), so the modes k != 1
    # are orthogonal, with A = pi for k = 0 and -pi / (2 (k^2 - 1)) else,
    # and only the constant mode has a dual length, 2 pi
    modes = modes_of(builtin_ball("euclidean"), kmax)
    k = np.concatenate([[0], np.repeat(np.arange(2, kmax + 1), 2)])
    keep = np.concatenate([[0], np.arange(3, 2 * kmax + 1)])
    want = np.diag(np.where(k == 0, np.pi, -np.pi / (2.0 * (k * k - 1.0))))
    G = modes.gram.G[np.ix_(keep, keep)]
    assert np.max(np.abs(G - want)) <= 1e-13
    duals = np.zeros(2 * kmax + 1)
    duals[0] = 2 * np.pi
    assert np.max(np.abs(modes.duals - duals)) <= 1e-13
