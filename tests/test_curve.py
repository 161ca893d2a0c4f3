import re

import numpy as np
import pytest

from normplane import expressions as ex
from normplane import (AdmissibleCurve, builtin_ball, convexifying_shift,
                       curve_from_explicit, curve_from_radius, is_convex,
                       jsonio, pointwise_sum, shifted_by_ball)
from normplane.errors import DomainError, NotAdmissible, NotClosed

from conftest import EXAMPLE22_EXPLICIT, EXAMPLE22_RADII, gauss_params


class TestFromRadius:
    def test_unit_radius_reproduces_ball(self, euclidean):
        c = curve_from_radius(euclidean, 1.0, basepoint=(1, 0))
        ts = np.linspace(0, 4, 200)
        np.testing.assert_allclose(c.point(ts), euclidean.point(ts),
                                   atol=1e-12)

    def test_constant_radius_is_scaled_ball(self, mixed):
        c = 2.5
        base = c * mixed.point(np.array(0.0))
        curve = curve_from_radius(mixed, c, basepoint=base)
        ts = np.linspace(0, 4, 100)
        np.testing.assert_allclose(curve.point(ts), c * mixed.point(ts),
                                   atol=1e-10)

    @pytest.mark.parametrize("radii", [
        np.array([1, 2, 1, 2]), [np.float32(1), 2, 1, 2],
        [np.int64(1), np.float64(2), 1, 2]])
    def test_numpy_scalar_radii_are_constants(self, square, radii):
        want = AdmissibleCurve(square, [1.0, 2.0, 1.0, 2.0], (2, -1))
        got = AdmissibleCurve(square, radii, (2, -1))
        ts = np.linspace(0, 4, 9)
        assert np.array_equal(got.radius(ts), want.radius(ts))
        assert np.array_equal(got.point(ts), want.point(ts))
        scalar = AdmissibleCurve(square, np.float32(2), (2, -1))
        assert np.array_equal(scalar.radius(ts), np.full(9, 2.0))

    def test_example22_matches_explicit_points(self, example22):
        want = {
            0.5: (1.5, 1.5),
            1.5: (16 * np.cos(0.75 * np.pi)
                  / np.sqrt(15 * np.cos(0.75 * np.pi) ** 2 + 1) + 1,
                  np.sin(0.75 * np.pi)
                  / np.sqrt(15 * np.cos(0.75 * np.pi) ** 2 + 1) + 1),
            2.5: (-1.0, -1.0),
            3.5: (np.cos(1.75 * np.pi)
                  / np.sqrt(15 * np.sin(1.75 * np.pi) ** 2 + 1) + 1,
                  16 * np.sin(1.75 * np.pi)
                  / np.sqrt(15 * np.sin(1.75 * np.pi) ** 2 + 1) + 1),
        }
        for t, p in want.items():
            np.testing.assert_allclose(example22.point(np.array(t)), p,
                                       atol=1e-8)

    def test_example22_endpoints(self, example22):
        np.testing.assert_allclose(example22.point(np.array(0.0)), [2, 1],
                                   atol=1e-12)
        np.testing.assert_allclose(example22.point(np.array(3.0)), [1, -3],
                                   atol=1e-10)

    def test_radius_outside_its_domain_raises(self, euclidean):
        # no node falls on t = 0.5, so the curve builds; r(0.5) is 0 * inf
        curve = curve_from_radius(euclidean, "1+0*log(abs(t-0.5))",
                                  basepoint=(1, 0))
        with pytest.raises(DomainError, match=re.escape(
                "radius of piece 0 is not finite at t=0.5") + "$"):
            curve.radius([0.25, 0.5])

    def test_non_closing_radius_raises(self, euclidean):
        # an anti-periodic first mode has nonzero displacement integral
        with pytest.raises(NotClosed):
            curve_from_radius(euclidean, "1+0.5*cos(pi/2*t)")


class TestFromExplicit:
    def test_example22_radius_recovery(self, mixed, example22):
        curve = curve_from_explicit(mixed, EXAMPLE22_EXPLICIT)
        ts = gauss_params(curve.ball, 32)
        np.testing.assert_allclose(curve.radius(ts), example22.radius(ts),
                                   atol=1e-9)
        np.testing.assert_allclose(curve.basepoint, [2, 1], atol=1e-12)

    def test_scaled_ball_curve(self, mixed):
        pieces = [(f"3*({x})", f"3*({y})")
                  for x, y in [("1-t", "t"),
                               ("cos(pi/2*t)", "sin(pi/2*t)"),
                               ("t-3", "2-t"),
                               ("cos(pi/2*t)", "sin(pi/2*t)")]]
        curve = curve_from_explicit(mixed, pieces)
        ts = gauss_params(curve.ball, 16)
        np.testing.assert_allclose(curve.radius(ts), 3.0, atol=1e-10)

    def test_second_load_compiles_nothing(self, mixed, monkeypatch):
        # the mixed fixture has built the ball and compiled its arc
        calls = []
        compile_fn = ex.compile_fn
        monkeypatch.setattr(ex, "compile_fn",
                            lambda e: calls.append(e) or compile_fn(e))
        doc = {"ball": "mixed_example21",
               "explicit": [{"x": x, "y": y} for x, y in EXAMPLE22_EXPLICIT]}
        first = jsonio.curve_from_doc(doc)
        # x' and y' of every piece, and x and y of the first
        assert len(calls) == 2 * 4 + 2
        second = jsonio.curve_from_doc(doc)
        assert len(calls) == 2 * 4 + 2
        np.testing.assert_array_equal(second.table().gamma,
                                      first.table().gamma)
        np.testing.assert_array_equal(second.basepoint, [2, 1])

    def test_rotated_square_not_admissible(self, square):
        # rotate the square by 30 degrees: sides no longer parallel to u'
        th = np.pi / 6
        c, s = np.cos(th), np.sin(th)
        verts = np.array([(1, -1), (1, 1), (-1, 1), (-1, -1)], float)
        rot = verts @ np.array([[c, s], [-s, c]]).T
        pieces = []
        for i in range(4):
            p0, p1 = rot[i], rot[(i + 1) % 4]
            pieces.append((
                f"{p0[0]}+({p1[0] - p0[0]})*(t-{i})",
                f"{p0[1]}+({p1[1] - p0[1]})*(t-{i})"))
        with pytest.raises(NotAdmissible):
            curve_from_explicit(square, pieces)


class TestConvexity:
    def test_example22_convex_positive(self, example22):
        res = is_convex(example22)
        assert res.convex and res.sign == 1

    def test_sign_changing_radius(self, euclidean):
        # cos(3 pi t / 2) closes by symmetry and flips sign
        curve = curve_from_radius(euclidean, "cos(3*pi/2*t)")
        res = is_convex(curve)
        assert not res.convex
        assert res.witness is not None
        assert convexifying_shift(curve) == pytest.approx(1.0, abs=1e-4)
        fixed = shifted_by_ball(curve, 1.0)
        assert is_convex(fixed).convex

    def test_zero_radius_point_curve(self, square):
        curve = curve_from_radius(square, 0.0, basepoint=(1, 2))
        res = is_convex(curve)
        assert res.convex and res.sign == 1
        assert convexifying_shift(curve) == 0.0

    def test_negative_constant(self, euclidean):
        curve = curve_from_radius(euclidean, -2.0)
        res = is_convex(curve)
        assert res.convex and res.sign == -1
        assert convexifying_shift(curve) == pytest.approx(2.0)

    def test_convex_curve_needs_no_shift(self, example22):
        assert convexifying_shift(example22) == 0.0


class TestAlgebra:
    def test_radius_roundtrip(self, mixed, example22):
        # evaluate the curve, re-derive the radius from explicit pieces
        curve = curve_from_explicit(mixed, EXAMPLE22_EXPLICIT)
        ts = gauss_params(curve.ball, 48)
        np.testing.assert_allclose(curve.radius(ts), example22.radius(ts),
                                   atol=1e-9)

    def test_radius_additivity(self, euclidean):
        rng = np.random.default_rng(0)
        c1 = curve_from_radius(euclidean, "1+0.3*cos(pi*t)")
        c2 = curve_from_radius(euclidean, "2+0.5*sin(pi*t)")
        total = pointwise_sum(c1, c2)
        ts = rng.uniform(0, 4, 50)
        np.testing.assert_allclose(total.radius(ts),
                                   c1.radius(ts) + c2.radius(ts),
                                   atol=1e-12)
        np.testing.assert_allclose(total.point(ts),
                                   c1.point(ts) + c2.point(ts), atol=1e-10)

    @pytest.mark.parametrize("c", [-1.0, 2.0])
    def test_radius_scaling(self, mixed, example22, c):
        scaled = example22.radius_scaled(c)
        ts = np.linspace(0, 4, 60)
        base = example22.basepoint
        np.testing.assert_allclose(
            scaled.point(ts) - base, c * (example22.point(ts) - base),
            atol=1e-9)

    def test_translation(self, example22):
        moved = example22.translated((3.0, -2.0))
        ts = np.linspace(0, 4, 40)
        np.testing.assert_allclose(moved.point(ts),
                                   example22.point(ts) + [3.0, -2.0],
                                   atol=1e-10)
