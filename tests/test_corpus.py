"""The corpus generators against a reference built from explicit
trigonometric-series callables, and a pinned seed."""

import numpy as np
import pytest

from normplane import (AdmissibleCurve, builtin_ball, curve_from_radius,
                       decompose, dual_length, signed_area)
from normplane.corpus import (CORPUS_BALL_NAMES, corpus_balls,
                              random_constant_width_convex_curve,
                              random_constant_width_zero_dual,
                              random_convex_curve,
                              random_symmetric_convex_curve,
                              random_symmetric_zero_dual)

BALLS = {name: {} for name in CORPUS_BALL_NAMES}
BALLS["regular_2k_gon(5)"] = {"k": 5}


# -- the reference: each radius is a callable trig series, closing terms
# -- from adaptively integrated gaps, the lift from a grid of the series ---

def _trig(ball, terms):
    """sum of a cos(k pi (t - t0) / T) + b sin(...) over terms (k, a, b)."""
    k, a, b = (np.array(v, dtype=float) for v in zip(*terms))
    freq = k * np.pi / ball.T

    def g(t):
        phase = np.multiply.outer(np.asarray(t, dtype=float) - ball.t_start,
                                  freq)
        return np.cos(phase) @ a + np.sin(phase) @ b

    return g


def _open_curve(ball, terms):
    return AdmissibleCurve(ball, _trig(ball, terms), (0.0, 0.0),
                           check_closure=False)


def _closed(ball, terms):
    def gap(t):
        return _open_curve(ball, t).closure_gap

    M = np.column_stack([gap([(1, 1.0, 0.0)]), gap([(1, 0.0, 1.0)])])
    a, b = np.linalg.solve(M, -gap(terms))
    return [*terms, (1, a, b)]


def _lifted(ball, rng, terms):
    grid = np.concatenate([np.linspace(p.t0, p.t1, 200)
                           for p in ball.pieces])
    vals = _trig(ball, terms)(grid)
    lift = -np.min(vals) + rng.uniform(0.3, 1.0) * (np.ptp(vals) + 0.5)
    return curve_from_radius(ball, _trig(ball, [*terms, (0, lift, 0.0)]),
                             basepoint=rng.uniform(-1.0, 1.0, size=2))


def ref_convex(ball, rng):
    terms = [(k, rng.normal(scale=1.0 / k), rng.normal(scale=1.0 / k))
             for k in range(1, 5)]
    return _lifted(ball, rng, _closed(ball, terms))


def ref_symmetric_convex(ball, rng):
    terms = [(2 * k, rng.normal(scale=0.5 / k), rng.normal(scale=0.5 / k))
             for k in range(1, 3)]
    return _lifted(ball, rng, terms)


def ref_constant_width_convex(ball, rng):
    terms = [(2 * k - 1, rng.normal(scale=0.5 / k),
              rng.normal(scale=0.5 / k)) for k in range(1, 3)]
    return _lifted(ball, rng, _closed(ball, terms))


def ref_symmetric_zero_dual(ball, rng):
    terms = [(2 * k, rng.normal(), rng.normal()) for k in range(1, 3)]
    c = dual_length(_open_curve(ball, terms)) / (2.0 * ball.area)
    return curve_from_radius(ball, _trig(ball, [*terms, (0, -c, 0.0)]),
                             basepoint=rng.uniform(-1.0, 1.0, size=2))


def ref_constant_width_zero_dual(ball, rng):
    terms = [(2 * k - 1, rng.normal(), rng.normal()) for k in range(1, 3)]
    return curve_from_radius(ball, _trig(ball, _closed(ball, terms)),
                             basepoint=rng.uniform(-1.0, 1.0, size=2))


GENERATORS = {
    "convex": (random_convex_curve, ref_convex),
    "symmetric_convex": (random_symmetric_convex_curve, ref_symmetric_convex),
    "constant_width_convex": (random_constant_width_convex_curve,
                              ref_constant_width_convex),
    "symmetric_zero_dual": (random_symmetric_zero_dual,
                            ref_symmetric_zero_dual),
    "constant_width_zero_dual": (random_constant_width_zero_dual,
                                 ref_constant_width_zero_dual),
}


@pytest.mark.parametrize("ball_name", list(BALLS))
@pytest.mark.parametrize("kind", list(GENERATORS))
def test_generator_matches_the_series_reference(ball_name, kind):
    ball = builtin_ball(ball_name.split("(")[0], **BALLS[ball_name])
    make, ref = GENERATORS[kind]
    for seed in (1, 2):
        got = make(ball, np.random.default_rng(seed))
        want = ref(ball, np.random.default_rng(seed))
        s = max(want.diameter, ball.diameter)
        assert abs(dual_length(got) - dual_length(want)) <= 1e-12 * s
        assert abs(signed_area(got) - signed_area(want)) <= 1e-12 * s * s
        assert np.linalg.norm(got.closure_gap) <= 1e-12 * s
        assert np.linalg.norm(got.closure_gap - want.closure_gap) \
            <= 1e-12 * s
        dg, dw = decompose(got), decompose(want)
        assert abs(dg.wc_area - dw.wc_area) <= 1e-12 * s * s
        assert abs(dg.cwms_area - dw.cwms_area) <= 1e-12 * s * s


# signed areas of the first random_convex_curve from default_rng(2024) on
# each corpus ball, as the explicit-series generator gave them
PINNED_AREAS = {
    "euclidean": 30.485060830376888,
    "square": 37.75336196567945,
    "regular_2k_gon": 25.320242932973336,
    "mixed_example21": 28.119673173376537,
}


def test_a_seed_gives_the_same_curves():
    for name, ball in zip(CORPUS_BALL_NAMES, corpus_balls()):
        curve = random_convex_curve(ball, np.random.default_rng(2024))
        assert signed_area(curve) == pytest.approx(PINNED_AREAS[name],
                                                   rel=1e-12)


def test_corpus_curves_share_one_frame_per_ball():
    rng = np.random.default_rng(5)
    for ball in corpus_balls():
        curves = [random_convex_curve(ball, rng),
                  random_symmetric_convex_curve(ball, rng),
                  random_constant_width_zero_dual(ball, rng)]
        frames = {id(c.table().frame) for c in curves}
        assert len(frames) == 1


def test_more_modes_than_the_cached_basis():
    ball = corpus_balls()[0]
    curve = random_convex_curve(ball, np.random.default_rng(3), n_modes=6)
    assert curve.closure_residual <= 1e-12 * curve.diameter
