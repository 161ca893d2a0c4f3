"""The node-table core against an independent nested-quadrature reference,
properties of mixed areas between curves with different panel layouts, and
the reports, checks and derived curves that read a curve's table."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import EXAMPLE22_EXPLICIT, EXAMPLE22_RADII
from normplane import (AdmissibleCurve, QuadratureConfig, builtin_ball,
                       convexifying_shift, cross2, curve_from_radius, cwms,
                       decompose, dual_length, is_convex, iso_ledger,
                       measure_report, mixed_area, pointwise_sum,
                       shifted_by_ball, signed_area, support_value,
                       wigner_caustic)
from normplane.ball import Frame
from normplane.corpus import random_convex_curve, random_convex_polygon
from normplane.curve import NodeTable
from normplane.errors import DomainError
from normplane.expressions import compile_fn
from normplane.inequalities import (Polygon, circumscribed_parallel_polygon,
                                    embed_polygon, lhuilier_check,
                                    polygon_ball, symmetrize_polygon)
from normplane.quadrature import (DEFAULT_CONFIG, gauss_legendre, integrate,
                                  legendre_operators)

ORACLE_BALLS = {
    "euclidean": {}, "square": {}, "regular_2k_gon": {"k": 3},
    "mixed_example21": {}, "regular_2k_gon(5)": {"k": 5},
}


def _ball(name):
    return builtin_ball(name.split("(")[0], **ORACLE_BALLS[name])


# -- the reference: adaptive piece displacements and a 32-node rule from the
# -- piece start to t, with mixed areas integrated adaptively over that -----

def _velocity(curve, i):
    p, r = curve.ball.pieces[i], curve.radii[i]
    return lambda s: r(s)[..., None] * p.velocity(s)


def ref_point(curve, t):
    ball = curve.ball
    t = np.atleast_1d(ball.reduce(t))
    starts = [curve.basepoint]
    for i, p in enumerate(ball.pieces[:-1]):
        starts.append(starts[-1] + integrate(_velocity(curve, i), p.t0, p.t1))
    x, w = gauss_legendre(32)
    out = np.empty(t.shape + (2,))
    idx = ball.piece_index(t)
    for i in np.unique(idx):
        sel = idx == i
        p = ball.pieces[i]
        half = 0.5 * (t[sel] - p.t0)
        nodes = p.t0 + half[:, None] * (x[None, :] + 1.0)
        vals = _velocity(curve, i)(nodes)
        out[sel] = starts[i] + half[:, None] * np.tensordot(vals, w,
                                                            axes=(1, 0))
    return out


def ref_dual_length(curve):
    total = 0.0
    for i, p in enumerate(curve.ball.pieces):
        total += integrate(
            lambda s, i=i, p=p: curve.radii[i](s) * cross2(p.point(s),
                                                           p.velocity(s)),
            p.t0, p.t1)
    return float(total)


def ref_mixed_area(c1, c2):
    total = 0.0
    for i, p in enumerate(c1.ball.pieces):
        total += integrate(
            lambda s, i=i: cross2(ref_point(c1, s), _velocity(c2, i)(s)),
            p.t0, p.t1)
    return 0.5 * float(total)


@pytest.fixture(scope="module", params=list(ORACLE_BALLS))
def curve_pair(request):
    ball = _ball(request.param)
    rng = np.random.default_rng(list(ORACLE_BALLS).index(request.param))
    return random_convex_curve(ball, rng), random_convex_curve(ball, rng)


class TestOracle:
    def test_dual_length(self, curve_pair):
        for c in curve_pair:
            assert dual_length(c) == pytest.approx(ref_dual_length(c),
                                                   rel=1e-12)

    def test_mixed_and_signed_area(self, curve_pair):
        c1, c2 = curve_pair
        assert mixed_area(c1, c2) == pytest.approx(ref_mixed_area(c1, c2),
                                                   rel=1e-12)
        assert signed_area(c1) == pytest.approx(ref_mixed_area(c1, c1),
                                                rel=1e-12)

    def test_point_at_random_parameters(self, curve_pair):
        rng = np.random.default_rng(3)
        for c in curve_pair:
            ts = rng.uniform(-5.0, 15.0, size=200)
            scale = max(c.diameter, float(np.max(np.abs(c.basepoint))))
            np.testing.assert_allclose(c.point(ts), ref_point(c, ts),
                                       rtol=0, atol=1e-12 * scale)


def test_example22_between_nodes(example22):
    """gamma and the radius series at 4096 parameters against Example 2.2's
    closed forms: the panels resolve r u' to its last Legendre
    coefficients, so both hold well below the rule's rel_tol."""
    ts = np.linspace(0.0, 4.0, 4096, endpoint=False)
    piece = ts.astype(int)
    want_gamma, want_r = np.empty((len(ts), 2)), np.empty(len(ts))
    for i, (x, y) in enumerate(EXAMPLE22_EXPLICIT):
        on = piece == i
        want_gamma[on] = np.column_stack([compile_fn(x)(ts[on]),
                                          compile_fn(y)(ts[on])])
        want_r[on] = compile_fn(EXAMPLE22_RADII[i])(ts[on])
    np.testing.assert_allclose(example22.point(ts), want_gamma, rtol=0,
                               atol=1e-13)
    np.testing.assert_allclose(example22.table().radius(ts), want_r, rtol=0,
                               atol=1e-12 * np.abs(want_r).max())


# -- curves whose panel layouts differ ---------------------------------------

def _wavy_curve(ball, k, b, base):
    """Radius 1 + b cos(2 m pi (t - t0) / T) with m = k n (n pieces per half
    period): T-periodic, so it closes, and for k >= 16 the adaptive rule
    splits each piece into more panels than a low-mode curve needs."""
    t0, T, m = ball.t_start, ball.T, k * ball.n_half
    return curve_from_radius(
        ball, lambda t: 1.0 + b * np.cos(2 * m * np.pi * (t - t0) / T),
        basepoint=base)


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(list(ORACLE_BALLS)),
       seed=st.integers(0, 2**32 - 1),
       k=st.integers(16, 40),
       b=st.floats(0.05, 0.9),
       shift=st.tuples(st.floats(-10, 10), st.floats(-10, 10)))
def test_mixed_area_symmetric_and_translation_invariant(name, seed, k, b,
                                                        shift):
    ball = _ball(name)
    rng = np.random.default_rng(seed)
    c1 = random_convex_curve(ball, rng)
    c2 = _wavy_curve(ball, k, b, rng.uniform(-1, 1, size=2))
    assume(c1.table().frame is not c2.table().frame)
    a12 = mixed_area(c1, c2)
    scale = max(abs(signed_area(c1)), abs(signed_area(c2)),
                c1.diameter * c2.diameter)
    assert abs(a12 - mixed_area(c2, c1)) <= 1e-12 * scale
    assert abs(mixed_area(c1.translated(shift), c2) - a12) <= 1e-12 * scale
    assert abs(mixed_area(c1, c2.translated(shift)) - a12) <= 1e-12 * scale


# -- every term reads the table of the curve's own rule ---------------------

COARSE = QuadratureConfig(nodes_per_panel=6, rel_tol=1e-2)


@pytest.fixture(scope="module")
def coarse22(mixed):
    return curve_from_radius(mixed, EXAMPLE22_RADII, basepoint=(2, 1),
                             quad=COARSE)


def test_ledger_terms_share_the_config(coarse22, example22):
    led = iso_ledger(coarse22)
    dec = decompose(coarse22)
    assert led.dual_length == dual_length(coarse22)
    assert led.curve_area == signed_area(coarse22)
    assert led.ball_area == coarse22.table().frame.area
    assert (led.wc_area, led.cwms_area) == (dec.wc_area, dec.cwms_area)
    # the coarse rule moves every term, the correction areas included, and
    # the identity still closes to well below that rule's own error
    fine = iso_ledger(example22)
    assert abs(led.cwms_area - fine.cwms_area) > 1e-10
    assert abs(led.dual_length - fine.dual_length) > 1e-10
    assert abs(led.identity_residual) <= 1e-9 * led.lhs


def test_radius_outside_its_domain_names_piece_and_parameter(euclidean):
    with pytest.raises(DomainError, match=r"piece 0 .*t=0\.00034"):
        curve_from_radius(euclidean, "sqrt(t - 0.5)")


def test_measure_report_reads_the_table_of_its_config(coarse22):
    rep = measure_report(coarse22)
    table = coarse22.table()
    assert rep.mean_width == dual_length(coarse22) / table.frame.area
    assert rep.signed_area == signed_area(coarse22)
    # the width profile samples the coarse table
    ts = coarse22.sample_params(48)
    want = (support_value(coarse22, ts)
            + support_value(coarse22, ts + coarse22.ball.T))
    assert rep.width_profile_min == float(np.min(want))
    assert rep.width_profile_max == float(np.max(want))


def test_curves_of_different_rules_do_not_mix(coarse22, example22):
    assert coarse22.quad != example22.quad
    with pytest.raises(ValueError, match="quadrature rule"):
        mixed_area(coarse22, example22)
    with pytest.raises(ValueError, match="quadrature rule"):
        pointwise_sum(example22, coarse22)
    # derived curves keep their parent's rule
    for derived in (coarse22.translated((1.0, 0.0)),
                    coarse22.radius_scaled(2.0),
                    shifted_by_ball(coarse22, 0.5),
                    wigner_caustic(coarse22), cwms(coarse22)):
        assert derived.quad == COARSE
        assert derived.table().frame is coarse22.table().frame


def test_derived_curves_reuse_the_parents_frame(euclidean, monkeypatch):
    c = random_convex_curve(euclidean, np.random.default_rng(8))
    wavy = _wavy_curve(euclidean, 20, 0.5, (0.0, 0.0))
    frame = c.table().frame

    def no_panel_selection(*args, **kwargs):
        raise AssertionError("a derived curve ran the adaptive rule")

    monkeypatch.setattr("normplane.ball.integrate", no_panel_selection)
    assert c.translated((1.0, -2.0)).table().frame is frame
    assert c.radius_scaled(2.5).table().frame is frame
    assert shifted_by_ball(c, 0.7).table().frame is frame
    assert pointwise_sum(c, c.translated((3.0, 0.0))).table().frame is frame
    # differing frames meet on the coarsest panels that refine both
    total = pointwise_sum(c, wavy)
    assert total.table().frame is euclidean.common_frame(
        frame, wavy.table().frame)
    ts = np.random.default_rng(9).uniform(0.0, 4.0, size=50)
    np.testing.assert_allclose(total.radius(ts),
                               c.radius(ts) + wavy.radius(ts), atol=1e-12)
    np.testing.assert_allclose(total.point(ts), c.point(ts) + wavy.point(ts),
                               atol=1e-12 * total.diameter)


# -- a radius that is a number on every segment: the 3-node rule ------------

def _lhuilier_ball(seed):
    """The polygonal ball K1^0 of a seeded polygon K, and K on it."""
    K = random_convex_polygon(np.random.default_rng(seed), 9)
    K1_0 = symmetrize_polygon(circumscribed_parallel_polygon(K))
    ball = polygon_ball(K1_0)
    return ball, embed_polygon(K, K1_0, ball=ball)


def _as_callables(curve):
    """The curve with each piece's number radius given as a callable."""
    return AdmissibleCurve(curve.ball, [lambda t, c=c: np.full(np.shape(t), c)
                                        for c in curve.radius(curve.ball.t0)],
                           curve.basepoint, quad=curve.quad)


@pytest.mark.parametrize("quad", [DEFAULT_CONFIG, COARSE],
                         ids=["default", "coarse"])
def test_number_radii_on_segments_take_the_3_node_rule(quad):
    gon = builtin_ball("regular_2k_gon", k=5)
    ball, lhuilier = _lhuilier_ball(3)
    curves = [curve_from_radius(builtin_ball("square"), [0.5, 2, 0.5, 2],
                                basepoint=(2, -0.5), quad=quad),
              curve_from_radius(gon, 1.5, quad=quad),
              AdmissibleCurve(ball, lhuilier.radius(ball.t0),
                              lhuilier.basepoint, quad=quad)]
    for curve in curves:
        frame = curve.table().frame
        assert frame.n == 3 and curve.quad == quad
        # derived curves keep the rule and its frame
        for derived in (curve.translated((1.0, 0.0)),
                        curve.radius_scaled(2.0),
                        shifted_by_ball(curve, 0.5),
                        pointwise_sum(curve, curve),
                        wigner_caustic(curve), cwms(curve)):
            assert derived.quad == quad
            assert derived.table().frame is frame
        # the same radii as callables take the curve's own rule
        assert _as_callables(curve).table().frame.n == quad.nodes_per_panel


@pytest.mark.parametrize("quad", [DEFAULT_CONFIG, COARSE],
                         ids=["default", "coarse"])
@pytest.mark.parametrize("name", ["euclidean", "mixed_example21"])
def test_number_radii_on_arcs_take_the_curves_rule(name, quad):
    curve = curve_from_radius(builtin_ball(name), 1.5, quad=quad)
    assert curve.table().frame.n == quad.nodes_per_panel


def test_3_and_32_node_curves_meet_at_32_nodes():
    # mixed areas and sums of a 3-node curve and a 32-node curve agree with
    # those of the same curves built from callables, which share one rule;
    # the bump added on every piece keeps the curve closed (the ball's
    # edges sum to 0) and refines the wavy curve's panels
    ball, gamma = _lhuilier_ball(11)
    same = _as_callables(gamma)
    wavy = AdmissibleCurve(ball, [lambda t, c=c: c + np.exp(
        30.0 * np.cos(2.0 * np.pi * t) - 30.0)
        for c in gamma.radius(ball.t0)], (0.5, -0.25))
    assert gamma.table().frame.n == 3 and wavy.table().frame.n == 32
    assert len(wavy.table().frame.ends) > len(gamma.table().frame.ends)
    scale = max(abs(signed_area(gamma)), abs(signed_area(wavy)),
                gamma.diameter * wavy.diameter)
    for got, want in [(mixed_area(gamma, wavy), mixed_area(same, wavy)),
                      (mixed_area(wavy, gamma), mixed_area(wavy, same))]:
        assert abs(got - want) <= 1e-14 * scale
    total, want = pointwise_sum(gamma, wavy), pointwise_sum(same, wavy)
    frame = total.table().frame
    assert frame.n == 32 and frame is want.table().frame
    # gamma's constants read on the 32 nodes; the callables' curve reads
    # them through its degree-31 series, which rounds to about 4e-14
    r = gamma.radius(frame.t) + wavy.table().radius_on(frame)
    np.testing.assert_allclose(total.table().r, r, rtol=0,
                               atol=1e-14 * np.abs(r).max())
    ts = gamma.sample_params(48)
    np.testing.assert_allclose(total.point(ts), want.point(ts), rtol=0,
                               atol=1e-14 * want.length_scale)
    assert abs(signed_area(total) - signed_area(want)) <= 1e-14 * scale
    assert abs(dual_length(total) - dual_length(want)) <= (
        1e-14 * abs(dual_length(want)))


def _dip(at, depth):
    """A radius below 0 only within sqrt(2 depth) / pi of at + 2 Z."""
    return lambda t: (1 - depth) - np.exp(np.cos(np.pi * (t - at)) - 1)


def test_is_convex_reads_the_panel_ends(euclidean):
    # r < 0 only within 5e-4 of t = 1 and 3, where the frame's panels end
    # (the ball's breaks); every node of the table, on both halves of the
    # period, sees r > 0
    curve = curve_from_radius(euclidean, _dip(1.0, 1e-6))
    assert {1.0, 3.0} <= set(curve.table().frame.lo.tolist())
    assert (curve.table().r > 0).all()
    res = is_convex(curve)
    assert not res.convex and abs(res.witness - 1.0) < 1e-2
    assert convexifying_shift(curve) == pytest.approx(1e-6, rel=1e-6)


def test_is_convex_reads_the_interior_panel_ends(example22):
    # on Example 2.2's frame, whose panels also end at 1.5 and 3.5 inside
    # pieces, r < 0 only within 1.5e-4 of those ends, nearer than any node
    frame = example22.table().frame
    assert {1.5, 3.5} <= set(frame.lo.tolist())
    assert not {1.5, 3.5} & set(example22.ball.breaks.tolist())
    r = _dip(1.5, 1e-7)(frame.t)
    curve = AdmissibleCurve(example22.ball, NodeTable(frame, r, (0.0, 0.0)),
                            (0.0, 0.0), check_closure=False)
    assert (curve.table().r > 0).all()
    res = is_convex(curve)
    assert not res.convex and abs(res.witness - 1.5) < 1e-2
    assert convexifying_shift(curve) == pytest.approx(1e-7, rel=1e-5)


def test_series_are_built_on_first_use(mixed, monkeypatch):
    curve = curve_from_radius(mixed, EXAMPLE22_RADII, basepoint=(2, 1))
    table = curve.table()
    assert not {"_gamma_coef", "_r_coef"} & set(vars(table))
    # the formulas the table held before its series became lazy
    f = table.frame
    L, M, C = legendre_operators(f.n)
    g = table.r[..., None] * f.du
    half = f.half[:, None, None]
    assert np.array_equal(table.gamma, table.start[:, None] + half * (C @ g))
    coef = half * (M @ g)
    coef[:, 0] += table.start
    assert np.array_equal(table._gamma_coef, coef)
    assert np.array_equal(table._r_coef, table.r @ L.T)

    def unread(self):
        raise AssertionError("the Lhuilier check read a Legendre series")

    monkeypatch.setattr(NodeTable, "_gamma_coef", property(unread))
    monkeypatch.setattr(NodeTable, "_r_coef", property(unread))
    report = lhuilier_check(Polygon(np.array([[0, 0], [2, 0], [0, 1.0]])))
    assert report.gap > 0


def test_analyze_sums_each_integral_once(mixed, monkeypatch):
    """normplane analyze (measure_report, then iso_ledger) sums L*, A(U),
    A(gamma), A(WC) and A(CWMS) once each, all on the curve's frame: a
    call over stacked rows counts a sum per row."""
    curve = curve_from_radius(mixed, EXAMPLE22_RADII, basepoint=(2, 1))
    frame = curve.table().frame
    vars(frame).pop("area", None)   # A(U) again, if another curve read it
    summed = []
    integral = Frame.integral

    def counted(self, values):
        summed.extend([self] * int(np.prod(values.shape[:-2])))
        return integral(self, values)

    monkeypatch.setattr(Frame, "integral", counted)
    report = measure_report(curve)
    ledger = iso_ledger(curve)
    assert len(summed) == 5
    assert all(f is frame for f in summed)
    assert ledger.dual_length == report.dual_length == dual_length(curve)
    assert ledger.curve_area == report.signed_area == signed_area(curve)
    assert len(summed) == 5


# -- stacked radius rows: one NodeTable over rows of shape (..., P, n) ------

def _stacked_rows(frame, seed):
    """Radius rows of shape (2, 3, P, n) on frame and their basepoints."""
    rng = np.random.default_rng(seed)
    R = 1.0 + 0.5 * rng.standard_normal((2, 3) + frame.t.shape)
    R[0, 0] = 1.0
    return R, rng.uniform(-2.0, 2.0, size=(2, 3, 2))


@pytest.mark.parametrize("name", ["euclidean", "square", "hexagon", "mixed",
                                  "example22"])
def test_each_row_of_a_stacked_table_is_its_one_row_table(
        name, all_balls, example22):
    """start, gap, gamma, knots, radius_samples, L*, A and the series reads
    points and radius of every row of a stacked table equal those of the
    table of that row alone, bit for bit; on Example 2.2 its own radius is
    one of the rows."""
    curve = (example22 if name == "example22"
             else curve_from_radius(all_balls[name], 1.0))
    frame = curve.table().frame
    R, base = _stacked_rows(frame, 3)
    if name == "example22":
        R[1, 2], base[1, 2] = example22.table().r, example22.basepoint
    stacked = NodeTable(frame, R, base)
    assert stacked.gamma.shape == R.shape + (2,)
    assert stacked.dual_length.shape == stacked.area.shape == (2, 3)
    # more than one block of parameters, some outside the period
    ts = curve.ball.reduce(np.random.default_rng(5).uniform(-3.0, 7.0, 1300))
    points, radius = stacked.points(ts), stacked.radius(ts)
    assert points.shape == (2, 3, 1300, 2) and radius.shape == (2, 3, 1300)
    for i, j in np.ndindex(2, 3):
        one = NodeTable(frame, R[i, j], base[i, j])
        for got, want in [(points[i, j], one.points(ts)),
                          (radius[i, j], one.radius(ts)),
                          (stacked.area[i, j], one.area)]:
            assert np.array_equal(got, want)
        for got, want in [(stacked.start[i, j], one.start),
                          (stacked.gap[i, j], one.gap),
                          (stacked.gamma[i, j], one.gamma),
                          (stacked.knots()[i, j], one.knots()),
                          (stacked.radius_samples()[i, j],
                           one.radius_samples()),
                          (stacked.dual_length[i, j], one.dual_length)]:
            np.testing.assert_array_equal(got, want)
    if name == "example22":
        np.testing.assert_array_equal(stacked.knots()[1, 2],
                                      example22.table().knots())
        assert stacked.dual_length[1, 2] == dual_length(example22)


def test_decomposition_rows_are_the_tables_of_the_curve_and_its_parts(
        all_balls, example22):
    """Rows 0, 1 and 2 of decompose's table are, bit for bit, the tables of
    the curve, of dec.wc and of dec.cwms."""
    rng = np.random.default_rng(17)
    curves = [random_convex_curve(ball, rng) for ball in all_balls.values()]
    for curve in curves + [example22]:
        dec = decompose(curve)
        for row, part in enumerate([curve, dec.wc, dec.cwms]):
            one = part.table()
            assert one.frame is dec.table.frame
            for name in ("r", "start", "gamma"):
                assert np.array_equal(getattr(dec.table, name)[row],
                                      getattr(one, name))
