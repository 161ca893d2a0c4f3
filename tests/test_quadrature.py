import numpy as np
import pytest

from normplane import (QuadratureConfig, builtin_ball,
                       circumscribed_parallel_polygon, cross2,
                       curve_from_radius, embed_polygon, symmetrize_polygon)
from normplane.corpus import corpus_balls, random_convex_polygon
from normplane.errors import DomainError, NoConvergence
from normplane.expressions import compile_fn
from normplane.modes import modes_of
from normplane.quadrature import (DEFAULT_CONFIG, integrate,
                                  legendre_operators, panel)


def test_constant_over_partition():
    partition = np.array([0, 1, 2, 3, 4], dtype=float)
    parts = integrate(lambda t: np.ones_like(t), partition[:-1], partition[1:])
    assert parts.sum() == pytest.approx(4.0)


def test_sin_panel():
    f = compile_fn("sin(pi/2*t)")
    assert integrate(f, 1.0, 2.0) == pytest.approx(2 / np.pi, rel=1e-12)


def test_example_dual_length_integrand():
    ball = builtin_ball("mixed_example21")
    radii = [compile_fn(e) for e in (
        "1", "16/sqrt((15*cos(pi/2*t)^2+1)^3)", "4",
        "16/sqrt((15*sin(pi/2*t)^2+1)^3)")]

    def f(t):
        u = ball.point(t)
        du = ball.velocity(t)
        i = int(ball.piece_index(np.atleast_1d(t))[0])
        return radii[i](t) * cross2(u, du)

    # f reads the radius of one piece, so each piece is integrated alone
    total = sum(integrate(f, a, b)
                for a, b in zip(ball.breaks[:-1], ball.breaks[1:]))
    assert total == pytest.approx(13.58, abs=0.01)


def test_vector_valued_integrand():
    f = compile_fn("cos(pi/2*t)")
    g = compile_fn("sin(pi/2*t)")
    out = integrate(lambda t: np.stack([f(t), g(t)], axis=-1), 0.0, 1.0)
    np.testing.assert_allclose(out, [2 / np.pi, 2 / np.pi], rtol=1e-12)


def test_no_convergence_reports_worst_panel():
    config = QuadratureConfig(nodes_per_panel=4, rel_tol=1e-14, max_depth=3)
    step = lambda t: np.where(t < np.sqrt(2) / 2, 0.0, 1.0)
    with pytest.raises(NoConvergence):
        integrate(step, 0.0, 1.0, config)


def test_zero_integrand_converges():
    assert integrate(lambda t: np.zeros_like(t), 0.0, 1.0) == 0.0


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1)
    with pytest.raises(ValueError):
        QuadratureConfig(nodes_per_panel=1)


@pytest.mark.parametrize("field, value", [
    ("nodes_per_panel", 2.5), ("nodes_per_panel", True),
    ("nodes_per_panel", 2),
    ("rel_tol", float("nan")), ("rel_tol", float("inf")), ("rel_tol", 0.0),
    ("rel_tol", "1e-6"), ("max_depth", -1), ("max_depth", 1.0),
])
def test_every_field_is_validated_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be "):
        QuadratureConfig(**{field: value})


def test_the_floor_is_no_setting():
    with pytest.raises(TypeError):
        QuadratureConfig(abs_tol=1e-14)


def test_edge_values_are_valid():
    quad = QuadratureConfig(nodes_per_panel=3, max_depth=0)
    assert integrate(lambda t: np.full_like(t, 3.0), 0.0, 2.0,
                     quad) == pytest.approx(6.0, rel=1e-15)


# -- the level-synchronous rule against the recursive one ------------------

def _adapt(f, a, b, quad, depth, leaves, floor):
    """One panel call with 2 n nodes on [a, b]: its sum if the Legendre
    coefficients of f's interpolant there are negligible from degree n - 2
    up, else the sum over its halves."""
    n = quad.nodes_per_panel
    value, vals = panel(f, a, b, 2 * n)
    coef = legendre_operators(2 * n)[0][n - 2:] @ vals[0]
    err, scale = np.max(np.abs(coef)), np.max(np.abs(vals))
    if err <= max(quad.rel_tol * scale, floor):
        leaves.append((a, b))
        return value
    if depth >= quad.max_depth:
        raise NoConvergence(
            f"quadrature did not converge on [{a}, {b}] "
            f"(error {err:.3e}, scale {scale:.3e})")
    m = 0.5 * (a + b)
    return (_adapt(f, a, m, quad, depth + 1, leaves, floor)
            + _adapt(f, m, b, quad, depth + 1, leaves, floor))


def reference_integrate(f, a, b, quad=DEFAULT_CONFIG, leaves=None, top=None):
    """The recursive rule: one panel call per panel, depth first.  Its
    floor is 4 times the largest tail coefficient of the constant 1, times
    top, the largest |f| on the first panels of the call: by default on
    [a, b]'s."""
    n = quad.nodes_per_panel
    if top is None:
        top = np.max(np.abs(panel(f, a, b, 2 * n)[1]))
    tail = legendre_operators(2 * n)[0][n - 2:]
    floor = 4 * np.max(np.abs(tail.sum(axis=1))) * top
    return _adapt(f, a, b, quad, 0, [] if leaves is None else leaves, floor)


def _r_du(ball, radii):
    """r u' on the first half period, for the radii of a piece and of its
    antipode stacked on the last axis but one, at increasing parameters; a
    radius may return trailing axes."""
    n, T = ball.n_half, ball.T

    def f(s):
        cut = np.searchsorted(s, ball.breaks[:n + 1])
        parts = []
        for i in np.flatnonzero(np.diff(cut)):
            si = s[cut[i]:cut[i + 1]]
            r = np.stack([radii[i](si), radii[i + n](si + T)], axis=-1)
            parts.append(r[..., None] * ball.pieces[i].velocity(si).reshape(
                (len(si),) + (1,) * (r.ndim - 1) + (2,)))
        return np.concatenate(parts)
    return f


def _check_against_reference(ball, radii, quad=DEFAULT_CONFIG):
    """The panels of UnitBall.frame, and the panels and values of the
    level-synchronous rule on all first-half pieces at once, are those of
    the recursive rule on each piece."""
    n = ball.n_half
    f = _r_du(ball, radii)
    got, want = [], []
    values = integrate(f, ball.breaks[:n], ball.breaks[1:n + 1], quad, got)
    # the floor reads the largest |r u'| on the whole pieces, all at once
    top = np.max(np.abs(panel(f, ball.breaks[:n], ball.breaks[1:n + 1],
                              2 * quad.nodes_per_panel)[1]))
    for i, p in enumerate(ball.pieces[:n]):
        np.testing.assert_array_equal(
            values[i], reference_integrate(f, p.t0, p.t1, quad, want, top))
    [panels] = got
    np.testing.assert_array_equal(panels, want)

    def radius(idx, t):
        # the radius of each piece on its own parameters
        parts = {i: radii[i](t[idx == i]) for i in np.unique(idx).tolist()}
        r = np.empty(idx.shape + next(iter(parts.values())).shape[1:])
        for i, ri in parts.items():
            r[idx == i] = ri
        return r
    ends = ball.frame(quad, radius).ends
    np.testing.assert_array_equal(np.column_stack([ends[:-1], ends[1:]]),
                                  want)


def _wavy(ball, k=20, b=0.5):
    m = k * ball.n_half
    return lambda t: 1.0 + b * np.cos(2 * m * np.pi * (t - ball.t_start)
                                      / ball.T)


def _peaked(ball):
    """A bump 1/100 of T wide: panels of several sizes on one piece."""
    at = ball.t_start + 0.1 * ball.T
    return lambda t: 1.0 + np.exp(-((t - at) / (0.01 * ball.T)) ** 2)


@pytest.mark.parametrize("name", ["euclidean", "square", "regular_2k_gon",
                                  "mixed_example21"])
def test_builtin_balls_match_the_recursive_rule(name):
    ball = builtin_ball(name)
    for quad in (DEFAULT_CONFIG, QuadratureConfig(rel_tol=1e-6)):
        for radius in (_wavy(ball), _peaked(ball)):
            _check_against_reference(ball, [radius] * len(ball.pieces), quad)


@pytest.mark.parametrize("name", ["euclidean", "square", "regular_2k_gon",
                                  "mixed_example21"])
def test_the_floor_matches_the_recursive_rule(name):
    # below tau_32 the floor decides the panels: piece 0 is 1e6, so the
    # bump on piece 1 gets fewer panels than a floor read per piece gives
    ball = builtin_ball(name)
    piece = ball.pieces[1]
    at = 0.5 * (piece.t0 + piece.t1)
    radii = [lambda t: 1.0 + np.exp(-((t - at) / (0.01 * ball.T)) ** 2)
             ] * len(ball.pieces)
    radii[0] = lambda t: np.full_like(t, 1e6)
    _check_against_reference(ball, radii, QuadratureConfig(rel_tol=1e-15))


def test_example22_matches_the_recursive_rule(example22):
    _check_against_reference(example22.ball, example22.radii)


def test_mode_batches_match_the_recursive_rule():
    # corpus modes: radii with a trailing axis of 2 kmax + 1 modes
    for ball in corpus_balls():
        modes = modes_of(ball, 4)
        _check_against_reference(ball, [modes.values] * len(ball.pieces))


def test_polygon_balls_match_the_recursive_rule():
    rng = np.random.default_rng(2024)
    for _ in range(300):
        K = random_convex_polygon(rng, int(rng.integers(5, 49)))
        gamma = embed_polygon(K, symmetrize_polygon(
            circumscribed_parallel_polygon(K)))
        _check_against_reference(gamma.ball, gamma.radii)


def test_a_polygon_with_constant_radii_is_one_panel_call(monkeypatch):
    K = random_convex_polygon(np.random.default_rng(12), 12)
    K1_0 = symmetrize_polygon(circumscribed_parallel_polygon(K))
    ball = embed_polygon(K, K1_0).ball
    calls = []

    def counted(f, a, b, n):
        calls.append(len(a))
        return panel(f, a, b, n)

    monkeypatch.setattr("normplane.quadrature.panel", counted)
    radii = np.random.default_rng(13).uniform(0.5, 2.0, ball.n_half)
    frame = curve_from_radius(ball, np.concatenate([radii, radii])
                              ).table().frame
    # one panel per piece: the pieces are the panels
    assert calls == [ball.n_half]
    assert len(frame.lo) == ball.n_pieces
    np.testing.assert_array_equal(frame.ends, ball.breaks[:ball.n_half + 1])


def test_scalar_and_array_ends_agree():
    f = compile_fn("exp(sin(7*t))")
    lo, hi = np.array([0.0, 1.0, 2.5]), np.array([1.0, 2.5, 2.5])
    leaves = []
    got = integrate(f, lo, hi, leaves=leaves)
    want = []
    for k in range(3):
        assert got[k] == integrate(f, lo[k], hi[k], leaves=want)
    assert got[2] == 0.0
    [panels] = leaves
    np.testing.assert_array_equal(panels, np.concatenate(want))
    assert (panels[:, 0] < panels[:, 1]).all()


def test_no_convergence_names_the_leftmost_open_panel():
    config = QuadratureConfig(nodes_per_panel=4, rel_tol=1e-14, max_depth=3)
    step = lambda t: np.where(t < np.sqrt(2) / 2, 0.0, 1.0)
    with pytest.raises(NoConvergence) as got:
        integrate(step, np.array([-1.0, 0.0]), np.array([0.0, 1.0]), config)
    with pytest.raises(NoConvergence) as want:
        reference_integrate(step, 0.0, 1.0, config)
    assert str(got.value) == str(want.value)


def test_domain_error_names_the_antipodal_piece(euclidean):
    # the radius leaves its domain only on the second half period
    with pytest.raises(DomainError, match=r"piece 3 .*t=3\.00034"):
        curve_from_radius(euclidean, ["1", "1", "1", "sqrt(t - 3.5)"])


# sin^2 + cos^2 - 1: roundoff of a few 1e-16, on a period of the circle
NOISE = "sin(pi*t)^2+cos(pi*t)^2-1"


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e3])
def test_a_radius_of_roundoff_alone_does_not_converge(euclidean, c):
    # the floor is relative to the largest |r u'|, here the noise itself,
    # so no scale of it passes as a negligible series
    noise = compile_fn(NOISE)
    with pytest.raises(NoConvergence):
        curve_from_radius(euclidean, lambda t: c * noise(t))


@pytest.mark.parametrize("c", [1.0, 1e-3, 1e3, 2.0 ** -60, 2.0 ** 60])
def test_roundoff_beside_a_radius_of_size_one_converges(euclidean, c):
    # pieces 1 and 3 are noise, next to 1 + cos(pi t) on pieces 0 and 2:
    # the noise is below the floor that those set, at every scale
    noise, bump = compile_fn(NOISE), compile_fn("1+cos(pi*t)")
    curve = curve_from_radius(euclidean, [lambda t: c * bump(t),
                                          lambda t: c * noise(t)] * 2)
    np.testing.assert_array_equal(curve.table().frame.ends,
                                  euclidean.breaks[:3])
