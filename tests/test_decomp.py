import numpy as np
import pytest

from conftest import EXAMPLE22_RADII, gauss_params
from normplane import (curve_from_radius, cwms, decompose, dual_length,
                       is_constant_width, is_symmetric, mixed_area,
                       signed_area, wigner_caustic)
from normplane.corpus import (corpus_balls,
                              random_constant_width_convex_curve,
                              random_convex_curve,
                              random_symmetric_convex_curve)


class TestKernels:
    def test_wc_of_scaled_ball_is_a_point(self, euclidean):
        c = curve_from_radius(euclidean, 2.0, basepoint=(2, 0))
        wc = wigner_caustic(c)
        ts = np.linspace(0, 4, 50)
        pts = wc.point(ts)
        assert np.max(np.abs(pts - pts[0])) < 1e-10
        np.testing.assert_allclose(wc.radius(ts), 0.0, atol=1e-12)

    def test_cwms_of_scaled_ball_is_a_point(self, mixed):
        base = 1.5 * mixed.point(np.array(0.0))
        c = curve_from_radius(mixed, 1.5, basepoint=base)
        cw = cwms(c)
        ts = np.linspace(0, 4, 50)
        np.testing.assert_allclose(cw.radius(ts), 0.0, atol=1e-10)
        pts = cw.point(ts)
        assert np.max(np.abs(pts - pts[0])) < 1e-9

    def test_symmetric_curve_has_point_wc(self, rectangle):
        wc = wigner_caustic(rectangle)
        ts = np.linspace(0, 4, 80)
        pts = wc.point(ts)
        assert np.max(np.abs(pts - pts[0])) < 1e-10

    def test_constant_width_curve_has_point_cwms(self, euclidean):
        rng = np.random.default_rng(7)
        c = random_constant_width_convex_curve(euclidean, rng)
        cw = cwms(c)
        ts = np.linspace(0, 4, 80)
        pts = cw.point(ts)
        assert np.max(np.abs(pts - pts[0])) < 1e-8


class TestExampleAreas:
    def test_example22_wc_area(self, example22):
        dec = decompose(example22)
        assert dec.wc_area == pytest.approx(-1.33, abs=0.02)
        assert dec.wc_area_raw == pytest.approx(2 * dec.wc_area, rel=1e-12)

    def test_example22_cwms_area(self, example22):
        dec = decompose(example22)
        assert dec.cwms_area == pytest.approx(-0.48, abs=0.02)

    def test_rectangle_cwms_bowtie_area(self, rectangle):
        # the CWMS of an a x b rectangle is a bowtie of area -(a - b)^2
        a, b = rectangle.ab
        dec = decompose(rectangle)
        assert dec.cwms_area == pytest.approx(-(a - b) ** 2, rel=1e-10)
        assert dec.wc_area == pytest.approx(0.0, abs=1e-12)


class TestDecomposition:
    def test_reconstruction_residual(self, example22, rectangle):
        for curve in (example22, rectangle):
            dec = decompose(curve)
            scale = max(curve.diameter, curve.ball.diameter)
            assert dec.residual <= 1e-9 * scale

    def test_mean_width_matches_measures(self, example22):
        dec = decompose(example22)
        assert dec.mean_width == pytest.approx(
            dual_length(example22) / example22.ball.area, rel=1e-12)

    def test_projections_are_idempotent(self, example22):
        ts = gauss_params(example22.ball, 16)
        wc = wigner_caustic(example22)
        wc2 = wigner_caustic(wc)
        np.testing.assert_allclose(wc2.radius(ts), wc.radius(ts),
                                   atol=1e-12)
        cw = cwms(example22)
        cw2 = cwms(cw)
        np.testing.assert_allclose(cw2.radius(ts), cw.radius(ts),
                                   atol=1e-10)

    def test_stacked_read_equals_three_point_calls(self, all_balls):
        rng = np.random.default_rng(31)
        for ball in all_balls.values():
            curve = random_convex_curve(ball, rng)
            dec = decompose(curve)
            curves = [curve, dec.wc, dec.cwms]
            # more than one block of parameters, some outside the period
            ts = rng.uniform(-3.0, 7.0, size=(40, 15))
            got = dec.table.points(ball.reduce(ts).ravel())
            assert got.shape == (3, 600, 2)
            for g, c in zip(got, curves):
                assert np.array_equal(g.reshape(ts.shape + (2,)),
                                      c.point(ts))

    def test_cross_projections_vanish(self, example22):
        # WC is anti-symmetric material, CWMS symmetric: projecting either
        # through the other kills the radius
        ts = gauss_params(example22.ball, 16)
        np.testing.assert_allclose(
            cwms(wigner_caustic(example22)).radius(ts), 0.0, atol=1e-10)
        np.testing.assert_allclose(
            wigner_caustic(cwms(example22)).radius(ts), 0.0, atol=1e-10)


class TestStackedPass:
    """decompose runs both parts' tables in one stacked pass and builds no
    curve; its numbers and its parts on first access match the curves
    wigner_caustic and cwms build one at a time."""

    @staticmethod
    def check(curve):
        s = curve.length_scale
        dec = decompose(curve)
        wc, cw = wigner_caustic(curve), cwms(curve)
        assert abs(dec.wc_area - 0.5 * signed_area(wc)) <= 1e-13 * s * s
        assert abs(dec.wc_area_raw - signed_area(wc)) <= 1e-13 * s * s
        assert abs(dec.cwms_area - signed_area(cw)) <= 1e-13 * s * s
        # the residual of the identity over the parts' own knots
        table = curve.table()
        u = np.concatenate([table.frame.u_lo, table.frame.u.reshape(-1, 2)])
        recon = (wc.table().knots() + cw.table().knots()
                 + 0.5 * dec.mean_width * u)
        residual = np.max(np.linalg.norm(table.knots() - recon, axis=-1))
        assert abs(dec.residual - residual) <= 1e-13 * s
        ts = np.linspace(-1.0, 9.0, 97)
        for got, want in ((dec.wc, wc), (dec.cwms, cw)):
            assert got.table().frame is table.frame
            assert np.max(np.abs(got.point(ts) - want.point(ts))) \
                <= 1e-13 * s

    def test_matches_the_curves_on_every_builtin_ball(self, all_balls):
        rng = np.random.default_rng(43)
        for ball in all_balls.values():
            self.check(random_convex_curve(ball, rng))

    def test_matches_the_curves_on_example22(self, example22):
        self.check(example22)

    def test_parts_are_built_once_on_first_access(self, example22):
        dec = decompose(example22)
        assert "wc" not in vars(dec) and "cwms" not in vars(dec)
        assert dec.wc is dec.wc and dec.cwms is dec.cwms

    def test_row_0_is_the_signed_area_bit_for_bit(self, mixed):
        """Row 0 of the split table is the curve: its area, summed with
        the parts' rows, is signed_area of the curve's own table to the
        last bit."""
        rng = np.random.default_rng(47)
        example22 = curve_from_radius(mixed, EXAMPLE22_RADII,
                                      basepoint=(2, 1))
        curves = [example22] + [random_convex_curve(ball, rng)
                                for _ in range(100)
                                for ball in corpus_balls()]
        for curve in curves:
            assert decompose(curve).table.area[0] == signed_area(curve)


class TestImageProperties:
    def test_wc_output_is_constant_width_zero(self, all_balls):
        rng = np.random.default_rng(13)
        for ball in all_balls.values():
            curve = random_convex_curve(ball, rng)
            wc = wigner_caustic(curve)
            res = is_constant_width(wc)
            assert res.constant
            assert res.value == pytest.approx(0.0, abs=1e-9)
            assert abs(dual_length(wc)) < 1e-9 * max(1.0, curve.diameter)

    def test_cwms_output_is_symmetric_zero_dual(self, all_balls):
        rng = np.random.default_rng(19)
        for ball in all_balls.values():
            curve = random_convex_curve(ball, rng)
            cw = cwms(curve)
            assert is_symmetric(cw)
            assert abs(dual_length(cw)) < 1e-9 * max(1.0, curve.diameter)

    def test_components_are_orthogonal(self, all_balls):
        rng = np.random.default_rng(29)
        for ball in all_balls.values():
            dec = decompose(random_convex_curve(ball, rng))
            m = mixed_area(dec.wc, dec.cwms)
            scale = max(abs(dec.wc_area), abs(dec.cwms_area), 1e-6)
            assert abs(m) < 1e-9 * max(scale, 1.0)


class TestSignCorollary:
    def test_component_areas_nonpositive(self, all_balls):
        rng = np.random.default_rng(37)
        for ball in all_balls.values():
            for _ in range(3):
                curve = random_convex_curve(ball, rng)
                dec = decompose(curve)
                scale = abs(signed_area(curve))
                assert dec.wc_area <= 1e-9 * scale
                assert dec.cwms_area <= 1e-9 * scale

    def test_equality_cases(self, all_balls):
        rng = np.random.default_rng(41)
        for ball in all_balls.values():
            sym = random_symmetric_convex_curve(ball, rng)
            assert decompose(sym).wc_area == pytest.approx(0.0, abs=1e-10)
            cw = random_constant_width_convex_curve(ball, rng)
            assert decompose(cw).cwms_area == pytest.approx(0.0, abs=1e-10)
