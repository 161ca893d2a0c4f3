import numpy as np
import pytest

from normplane import (builtin_ball, curve_from_radius, dual_length,
                       is_constant_width, is_symmetric, mean_width,
                       measure_report, mixed_area, pointwise_sum,
                       polygonal_area, shoelace_area, signed_area,
                       support_value, wigner_caustic, cwms)
from normplane.ball import UnitBall
from normplane.curve import AdmissibleCurve
from normplane.corpus import (corpus_balls,
                              random_constant_width_convex_curve,
                              random_convex_curve,
                              random_symmetric_convex_curve)
from normplane.errors import MismatchedBalls
from normplane.measures import MeasureReport, width_profile


def ball_curve(ball, c=1.0):
    return curve_from_radius(ball, c,
                             basepoint=c * ball.point(np.array(ball.t_start)))


class TestDualLength:
    def test_scaled_euclidean(self, euclidean):
        for R in (1.0, 2.5):
            assert dual_length(ball_curve(euclidean, R)) == pytest.approx(
                2 * np.pi * R, rel=1e-10)

    def test_example22(self, example22):
        assert dual_length(example22) == pytest.approx(13.58, abs=0.01)

    def test_rectangle(self, rectangle):
        a, b = rectangle.ab
        assert dual_length(rectangle) == pytest.approx(4 * (a + b),
                                                       rel=1e-12)


class TestMixedArea:
    def test_self_area_euclidean(self, euclidean):
        u = ball_curve(euclidean)
        assert mixed_area(u, u) == pytest.approx(np.pi, rel=1e-10)

    def test_dual_length_is_twice_mixed_with_ball(self, mixed, example22):
        u = ball_curve(mixed)
        assert 2 * mixed_area(u, example22) == pytest.approx(
            dual_length(example22), rel=1e-9)

    def test_symmetry_random_pairs(self, all_balls):
        rng = np.random.default_rng(17)
        for ball in all_balls.values():
            c1 = random_convex_curve(ball, rng)
            c2 = random_convex_curve(ball, rng)
            a12 = mixed_area(c1, c2)
            a21 = mixed_area(c2, c1)
            assert a12 == pytest.approx(a21, rel=1e-9)

    def test_bilinearity(self, euclidean):
        rng = np.random.default_rng(23)
        c1 = random_convex_curve(euclidean, rng)
        c2 = random_convex_curve(euclidean, rng)
        c3 = random_convex_curve(euclidean, rng)
        a, b = 1.7, -0.4
        combo = c1.radius_scaled(a, basepoint=a * c1.basepoint)
        from normplane import pointwise_sum
        combo = pointwise_sum(combo,
                              c2.radius_scaled(b, basepoint=b * c2.basepoint))
        lhs = mixed_area(combo, c3)
        rhs = a * mixed_area(c1, c3) + b * mixed_area(c2, c3)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_mismatched_balls(self, euclidean, square):
        with pytest.raises(MismatchedBalls):
            mixed_area(ball_curve(euclidean), ball_curve(square))

    def test_pointwise_sum_of_mismatched_balls(self, euclidean, square):
        with pytest.raises(MismatchedBalls):
            pointwise_sum(ball_curve(euclidean), ball_curve(square))


class TestSignedArea:
    def test_scaled_euclidean(self, euclidean):
        assert signed_area(ball_curve(euclidean, 2.0)) == pytest.approx(
            4 * np.pi, rel=1e-10)

    def test_rectangle(self, rectangle):
        a, b = rectangle.ab
        assert signed_area(rectangle) == pytest.approx(4 * a * b,
                                                       rel=1e-12)

    def test_example22(self, example22):
        assert signed_area(example22) == pytest.approx(14.79, abs=0.15)

    def test_shoelace_oracle(self, example22, rectangle, euclidean):
        for curve in (example22, rectangle, ball_curve(euclidean, 1.5)):
            quad = signed_area(curve)
            poly = polygonal_area(curve, 100_000)
            assert poly == pytest.approx(quad, rel=1e-6)

    def test_translation_invariance(self, example22):
        rng = np.random.default_rng(9)
        for _ in range(3):
            moved = example22.translated(rng.uniform(-5, 5, size=2))
            assert signed_area(moved) == pytest.approx(
                signed_area(example22), rel=1e-9)
            assert dual_length(moved) == pytest.approx(
                dual_length(example22), rel=1e-9)


class TestMeanWidth:
    def test_scaled_euclidean(self, euclidean):
        assert mean_width(ball_curve(euclidean, 2.0)) == pytest.approx(
            4.0, rel=1e-10)

    def test_rectangle(self, rectangle):
        a, b = rectangle.ab
        assert mean_width(rectangle) == pytest.approx(a + b, rel=1e-12)

    def test_example22(self, example22):
        assert mean_width(example22) == pytest.approx(
            13.58 / (np.pi / 2 + 1), abs=0.01)


class TestSupportValue:
    def test_scaled_ball_support_is_constant(self, euclidean):
        c = ball_curve(euclidean, 2.0)
        ts = np.linspace(0.05, 3.95, 50)
        np.testing.assert_allclose(support_value(c, ts), 2.0, atol=1e-10)

    def test_square_right_side(self, square):
        u = ball_curve(square)
        np.testing.assert_allclose(support_value(u, np.array(0.5)), 1.0,
                                   atol=1e-12)

    def test_antipodal_bracket_identity(self, example22):
        ts = np.linspace(0.05, 1.95, 25)
        a = support_value(example22, ts)
        b = support_value(example22, ts + 2.0)
        # [gamma(t+T), v(t+T)] for a symmetric curve equals [gamma(t), v(t)]
        sym = example22.ball
        from normplane import curve_from_radius
        s = curve_from_radius(sym, 1.3,
                              basepoint=1.3 * sym.point(np.array(0.0)))
        np.testing.assert_allclose(support_value(s, ts),
                                   support_value(s, ts + 2.0), atol=1e-10)
        assert a.shape == b.shape


class TestPredicates:
    def test_scaled_ball_constant_width(self, euclidean):
        res = is_constant_width(ball_curve(euclidean, 2.0))
        assert res.constant
        assert res.value == pytest.approx(4.0, abs=1e-10)

    def test_rectangle_not_constant_width(self, rectangle):
        res = is_constant_width(rectangle)
        assert not res.constant
        assert res.witness is not None

    def test_wigner_caustic_has_zero_width(self, example22):
        res = is_constant_width(wigner_caustic(example22))
        assert res.constant
        assert res.value == pytest.approx(0.0, abs=1e-10)

    def test_constant_width_dual_length_lemma(self, all_balls):
        # the width-profile constant of a constant width curve equals the
        # mean width: L* = c A(U)
        rng = np.random.default_rng(31)
        for ball in all_balls.values():
            curve = random_constant_width_convex_curve(ball, rng)
            res = is_constant_width(curve)
            assert res.constant
            assert dual_length(curve) == pytest.approx(
                res.value * ball.area, rel=1e-9)

    def test_symmetric_predicates(self, example22, rectangle, euclidean):
        assert is_symmetric(ball_curve(euclidean, 0.7))
        assert is_symmetric(rectangle)
        assert not is_symmetric(example22)
        assert is_symmetric(cwms(example22))

    def test_symmetry_allows_offset_center(self, euclidean):
        c = ball_curve(euclidean, 1.2).translated((5.0, -3.0))
        assert is_symmetric(c)


def test_measure_report(example22):
    rep = measure_report(example22)
    assert rep.dual_length == pytest.approx(13.58, abs=0.01)
    assert rep.mean_width == pytest.approx(rep.dual_length
                                           / (np.pi / 2 + 1), rel=1e-12)
    assert not rep.is_symmetric
    assert not rep.is_constant_width
    d = rep.to_dict()
    assert set(d) >= {"dual_length", "signed_area", "mean_width",
                      "is_symmetric", "is_constant_width"}


def test_shoelace_triangle():
    assert shoelace_area([(0, 0), (1, 0), (0, 1)]) == pytest.approx(0.5)
    assert shoelace_area([(0, 0), (0, 1), (1, 0)]) == pytest.approx(-0.5)


def _parent_report(curve):
    """measure_report composed from the public functions, each reading
    gamma on its own."""
    ts, profile = width_profile(curve)
    L = dual_length(curve)
    cw = is_constant_width(curve)
    return MeasureReport(
        dual_length=L,
        signed_area=signed_area(curve),
        mean_width=mean_width(curve),
        is_symmetric=is_symmetric(curve),
        is_constant_width=cw.constant,
        width_constant=cw.value,
        width_profile_min=float(np.min(profile)),
        width_profile_max=float(np.max(profile)),
    )


@pytest.mark.parametrize("which", ["example22", "circle_cos2"])
def test_measure_report_reads_only_the_table(which, example22, euclidean,
                                             monkeypatch):
    curve = example22 if which == "example22" else curve_from_radius(
        euclidean, "1.3+0.4*cos(pi*t)", basepoint=(0.3, -0.2))
    want = _parent_report(curve)
    calls = []
    for cls, name in [(AdmissibleCurve, "point"), (UnitBall, "dual")]:
        def counted(self, t, _f=getattr(cls, name), _name=name):
            calls.append(_name)
            return _f(self, t)
        monkeypatch.setattr(cls, name, counted)
    got = measure_report(curve)
    # gamma and v come from the node table and its frame
    assert calls == []
    assert repr(got) == repr(want)


def test_width_extremes_inside_a_dense_sweep():
    """The extremes of W at the table's nodes against support_value at
    10^5 parameters over half a period: never outside the sweep's range
    beyond roundoff, and within 1e-3 of the largest width inside it."""
    rng = np.random.default_rng(26)
    for make in (random_convex_curve, random_symmetric_convex_curve,
                 random_constant_width_convex_curve):
        for ball in corpus_balls():
            curve = make(ball, rng)
            rep = measure_report(curve)
            ts = np.linspace(ball.t_start, ball.t_start + ball.T, 100_000,
                             endpoint=False)
            w = support_value(curve, ts) + support_value(curve, ts + ball.T)
            lo, hi = rep.width_profile_min, rep.width_profile_max
            assert w.min() - lo <= 1e-12 * curve.length_scale
            assert hi - w.max() <= 1e-12 * curve.length_scale
            assert lo - w.min() <= 1e-3 * w.max()
            assert w.max() - hi <= 1e-3 * w.max()
