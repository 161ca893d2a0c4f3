"""Random curve and polygon generators, and the batch property harness.

Radius functions are low-order trigonometric series in the ball parameter.
Modes with an even multiple of pi/T are T-periodic (symmetric curves, closed
automatically); odd multiples are anti-periodic (constant-width material).
Closure for general series is enforced by solving a 2x2 linear system for
two anti-periodic correction coefficients, which never disturbs
periodicity class, dual length, or the width profile.  Every radius is one
series, the closing terms and the constant lift included.
"""

from __future__ import annotations

import numpy as np

from .ball import builtin_ball
from .curve import AdmissibleCurve, NodeValues, curve_from_radius
from .errors import NormPlaneError
from .inequalities import Polygon, iso_ledger, minkowski_gap
from .measures import dual_length, mixed_area, signed_area

CORPUS_BALL_NAMES = ("euclidean", "square", "regular_2k_gon",
                     "mixed_example21")


def corpus_balls():
    return [builtin_ball(name) for name in CORPUS_BALL_NAMES]


def _trig_series(ball, coeffs):
    """sum of a_k cos(k pi (t - t0) / T) + b_k sin(...) for (k, a, b)."""
    k, a, b = (np.array(c, dtype=float) for c in zip(*coeffs))
    freq = k * np.pi / ball.T

    def g(t):
        phase = np.multiply.outer(np.asarray(t, dtype=float) - ball.t_start,
                                  freq)
        return np.cos(phase) @ a + np.sin(phase) @ b

    return g


def _closed(ball, coeffs):
    """The series plus the k = 1 terms that make its curve close.

    Closure gaps are linear in the radius, so the two k = 1 terms solve a
    2x2 system; they change neither periodicity class, dual length nor the
    width profile.  All three gaps are read on the frame of the series.
    """
    frame = ball.frame(radii=[_trig_series(ball, coeffs)] * len(ball.pieces))

    def gap(c):
        r = NodeValues(frame, _trig_series(ball, c)(frame.t))
        return AdmissibleCurve(ball, r, (0.0, 0.0), quad=ball.quad,
                               check_closure=False).closure_gap

    M = np.column_stack([gap([(1, 1.0, 0.0)]), gap([(1, 0.0, 1.0)])])
    a, b = np.linalg.solve(M, -gap(coeffs))
    return [*coeffs, (1, a, b)]


def _grid(ball, per_piece=200):
    chunks = []
    for p in ball.pieces:
        chunks.append(np.linspace(p.t0, p.t1, per_piece))
    return np.concatenate(chunks)


def _lifted_curve(ball, rng, coeffs):
    """The series plus a random constant that makes it positive, placed at
    a random basepoint: a convex curve."""
    vals = _trig_series(ball, coeffs)(_grid(ball))
    lift = -float(np.min(vals)) + rng.uniform(0.3, 1.0) * (
        float(np.ptp(vals)) + 0.5)
    base = rng.uniform(-1.0, 1.0, size=2)
    return curve_from_radius(ball, _trig_series(ball, [*coeffs, (0, lift, 0)]),
                             basepoint=base)


def random_convex_curve(ball, rng, n_modes=4):
    """A random positively curved closed curve on the ball."""
    coeffs = [(k, rng.normal(scale=1.0 / k), rng.normal(scale=1.0 / k))
              for k in range(1, n_modes + 1)]
    return _lifted_curve(ball, rng, _closed(ball, coeffs))


def random_symmetric_convex_curve(ball, rng, n_modes=2):
    """Symmetric (T-periodic radius) and convex; closed automatically."""
    coeffs = [(2 * k, rng.normal(scale=0.5 / k), rng.normal(scale=0.5 / k))
              for k in range(1, n_modes + 1)]
    return _lifted_curve(ball, rng, coeffs)


def random_constant_width_convex_curve(ball, rng, n_modes=2):
    """Constant width (anti-periodic radius part) and convex."""
    coeffs = [(2 * k - 1, rng.normal(scale=0.5 / k),
               rng.normal(scale=0.5 / k)) for k in range(1, n_modes + 1)]
    return _lifted_curve(ball, rng, _closed(ball, coeffs))


def random_symmetric_zero_dual(ball, rng, n_modes=2):
    """Symmetric with zero dual length (not necessarily convex)."""
    coeffs = [(2 * k, rng.normal(), rng.normal())
              for k in range(1, n_modes + 1)]
    g = AdmissibleCurve(ball, _trig_series(ball, coeffs), (0.0, 0.0),
                        quad=ball.quad, check_closure=False)
    c = dual_length(g) / (2.0 * ball.area)
    return curve_from_radius(ball, _trig_series(ball, [*coeffs, (0, -c, 0)]),
                             basepoint=rng.uniform(-1.0, 1.0, size=2))


def random_constant_width_zero_dual(ball, rng, n_modes=2):
    """Constant width zero with zero dual length (anti-periodic radius)."""
    coeffs = [(2 * k - 1, rng.normal(), rng.normal())
              for k in range(1, n_modes + 1)]
    return curve_from_radius(ball, _trig_series(ball, _closed(ball, coeffs)),
                             basepoint=rng.uniform(-1.0, 1.0, size=2))


# ---------------------------------------------------------------------------
# Random polygons
# ---------------------------------------------------------------------------

def random_convex_polygon(rng, n_vertices):
    """Strictly convex CCW polygon from sorted random edge directions."""
    for _ in range(200):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
        if np.min(np.diff(angles)) < 1e-3:
            continue
        if angles[0] + 2.0 * np.pi - angles[-1] < 1e-3:
            continue
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        lengths = rng.uniform(0.5, 2.0, size=n_vertices)
        # least-norm tweak so the edge vectors sum to zero
        lengths = lengths - dirs @ np.linalg.solve(
            dirs.T @ dirs, dirs.T @ lengths)
        if np.max(np.abs(lengths @ dirs)) > 1e-9:
            continue
        if np.min(lengths) < 0.05:
            continue
        verts = np.concatenate([[np.zeros(2)],
                                np.cumsum(lengths[:, None] * dirs,
                                          axis=0)])[:-1]
        verts = verts - verts.mean(axis=0) + rng.uniform(-0.5, 0.5, size=2)
        try:
            return Polygon(verts)
        except NormPlaneError:
            continue
    raise RuntimeError("failed to generate a convex polygon")


def random_symmetric_convex_polygon(rng, n_half):
    """Centrally symmetric convex polygon (parallel opposite sides)."""
    for _ in range(200):
        angles = np.sort(rng.uniform(0.0, np.pi, size=n_half))
        if n_half > 1 and (np.min(np.diff(angles)) < 1e-3
                           or angles[0] + np.pi - angles[-1] < 1e-3):
            continue
        lengths = rng.uniform(0.5, 2.0, size=n_half)
        angles = np.concatenate([angles, angles + np.pi])
        lengths = np.concatenate([lengths, lengths])
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        verts = np.concatenate([[np.zeros(2)],
                                np.cumsum(lengths[:, None] * dirs,
                                          axis=0)])[:-1]
        verts = verts - verts.mean(axis=0)
        try:
            return Polygon(verts)
        except NormPlaneError:
            continue
    raise RuntimeError("failed to generate a symmetric convex polygon")


# ---------------------------------------------------------------------------
# Batch property harness
# ---------------------------------------------------------------------------

def run_corpus(seed, n, inject_bug=None, orthogonality_pairs=None):
    """Check the identity, the inequality gaps, and orthogonality on n
    random convex curves spread across the builtin balls.

    Returns a report dict; report["violations"] is empty on success.
    inject_bug="cwms-sign" flips the sign of the CWMS area before the
    checks, as a self-test that the harness can detect a broken invariant.
    """
    rng = np.random.default_rng(seed)
    balls = corpus_balls()
    violations = []
    checked = 0
    for i in range(n):
        ball = balls[i % len(balls)]
        curve = random_convex_curve(ball, rng)
        led = iso_ledger(curve)
        cwms_area = led.cwms_area
        if inject_bug == "cwms-sign":
            cwms_area = -cwms_area
        residual = led.lhs - (led.curve_area - 2.0 * led.wc_area
                              - cwms_area)
        if abs(residual) > 1e-8 * led.lhs:
            violations.append({
                "instance": i, "ball": CORPUS_BALL_NAMES[i % len(balls)],
                "check": "identity", "residual": residual, "lhs": led.lhs})
        for name, gap in (("gap_sym", led.gap_sym),
                          ("gap_cw", led.gap_cw),
                          ("gap_busemann", led.gap_busemann)):
            if gap < -1e-9 * led.scale:
                violations.append({
                    "instance": i,
                    "ball": CORPUS_BALL_NAMES[i % len(balls)],
                    "check": name, "gap": gap})
        mg = minkowski_gap(curve)
        mg_scale = max(led.dual_length ** 2,
                       4.0 * abs(led.curve_area) * led.ball_area, 1e-300)
        if mg < -1e-9 * mg_scale:
            violations.append({
                "instance": i, "ball": CORPUS_BALL_NAMES[i % len(balls)],
                "check": "minkowski_gap", "gap": mg})
        checked += 1

    n_pairs = orthogonality_pairs if orthogonality_pairs is not None \
        else max(0, n // 4)
    for j in range(n_pairs):
        ball = balls[j % len(balls)]
        sym = random_symmetric_zero_dual(ball, rng)
        cw = random_constant_width_zero_dual(ball, rng)
        m = mixed_area(sym, cw)
        scale = max(abs(signed_area(sym)), abs(signed_area(cw)),
                    sym.diameter * cw.diameter, 1e-12)
        if abs(m) > 1e-9 * scale:
            violations.append({
                "instance": j, "ball": CORPUS_BALL_NAMES[j % len(balls)],
                "check": "orthogonality", "mixed_area": m})

    return {
        "seed": seed,
        "curves_checked": checked,
        "orthogonality_pairs": n_pairs,
        "violations": violations,
    }
