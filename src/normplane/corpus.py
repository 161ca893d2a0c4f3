"""Random curve and polygon generators, and the batch property harness.

Radius functions are low-order trigonometric series in the ball parameter.
Modes with an even multiple of pi/T are T-periodic (symmetric curves, closed
automatically); odd multiples are anti-periodic (constant-width material).
Closure for general series is enforced by solving a 2x2 linear system for
two anti-periodic correction coefficients, which never disturbs
periodicity class, dual length, or the width profile.  A curve is a
vector of mode coefficients on its ball's cached Modes.
"""

from __future__ import annotations

import weakref
from functools import lru_cache

import numpy as np

from .ball import builtin_ball
from .curve import AdmissibleCurve, NodeValues
from .errors import NormPlaneError
from .inequalities import Polygon, iso_ledger, minkowski_gap
from .measures import mixed_area, signed_area
from .quadrature import DEFAULT_CONFIG

CORPUS_BALL_NAMES = ("euclidean", "square", "regular_2k_gon",
                     "mixed_example21")

_KMAX = 4   # the highest mode of the default generators


@lru_cache(maxsize=1)
def corpus_balls():
    """The builtin balls of the corpus, built once per process."""
    return tuple(builtin_ball(name) for name in CORPUS_BALL_NAMES)


def _grid(ball, per_piece=200):
    return np.concatenate([np.linspace(p.t0, p.t1, per_piece)
                           for p in ball.pieces])


class Modes:
    """The modes 1, cos(k pi (t - t0) / T), sin(...), k = 1..kmax, on one
    Frame of a ball chosen for all of them: their values at the nodes and
    on the lift grid, closure gaps and dual lengths.  Holds no reference
    to the ball, which keys the cache weakly."""

    def __init__(self, ball, kmax):
        self.t_start = ball.t_start
        self.freq = np.arange(1, kmax + 1) * np.pi / ball.T
        frame = self.frame = ball.frame(DEFAULT_CONFIG,
                                        [self.values] * len(ball.pieces))
        self.nodes = self.values(frame.t)
        self.gaps = np.einsum("pk,pkm,pkd->md", frame.weights, self.nodes,
                              frame.du)
        self.duals = frame.integral(self.nodes * frame.cross[..., None])
        self.grid = self.values(_grid(ball))

    def values(self, t):
        """The modes at parameters t, shape t.shape + (2 kmax + 1,)."""
        phase = np.multiply.outer(np.asarray(t, dtype=float)
                                  - self.t_start, self.freq)
        out = np.empty(phase.shape[:-1] + (2 * len(self.freq) + 1,))
        out[..., 0] = 1.0
        out[..., 1::2] = np.cos(phase)
        out[..., 2::2] = np.sin(phase)
        return out

    def curve(self, ball, c, basepoint):
        """The closed curve on ball with mode coefficients c."""
        return AdmissibleCurve(ball, NodeValues(self.frame, self.nodes @ c),
                               basepoint)


_MODES = weakref.WeakKeyDictionary()   # ball -> {kmax: Modes}


def _series(ball, terms):
    """The Modes of ball and the coefficients of the terms (k, a, b), k >= 1,
    each a cos(k pi (t - t0) / T) + b sin(...)."""
    kmax = max(_KMAX, max(k for k, _, _ in terms))
    cached = _MODES.setdefault(ball, {})
    if kmax not in cached:
        cached[kmax] = Modes(ball, kmax)
    c = np.zeros(2 * kmax + 1)
    for k, a, b in terms:
        c[2 * k - 1] += a
        c[2 * k] += b
    return cached[kmax], c


def _close(modes, c):
    """Add to c the k = 1 terms that make its curve close.

    Closure gaps are linear in the radius, so the two k = 1 terms solve a
    2x2 system on the modes' gaps; they change neither periodicity class,
    dual length nor the width profile.
    """
    c[1:3] += np.linalg.solve(modes.gaps[1:3].T, -(c @ modes.gaps))
    return c


def _lifted_curve(ball, rng, modes, c):
    """The series plus a random constant that makes it positive, placed at
    a random basepoint: a convex curve."""
    vals = modes.grid @ c
    c[0] += -float(np.min(vals)) + rng.uniform(0.3, 1.0) * (
        float(np.ptp(vals)) + 0.5)
    return modes.curve(ball, c, rng.uniform(-1.0, 1.0, size=2))


def random_convex_curve(ball, rng, n_modes=4):
    """A random positively curved closed curve on the ball."""
    terms = [(k, rng.normal(scale=1.0 / k), rng.normal(scale=1.0 / k))
             for k in range(1, n_modes + 1)]
    modes, c = _series(ball, terms)
    return _lifted_curve(ball, rng, modes, _close(modes, c))


def random_symmetric_convex_curve(ball, rng, n_modes=2):
    """Symmetric (T-periodic radius) and convex; closed automatically."""
    terms = [(2 * k, rng.normal(scale=0.5 / k), rng.normal(scale=0.5 / k))
             for k in range(1, n_modes + 1)]
    return _lifted_curve(ball, rng, *_series(ball, terms))


def random_constant_width_convex_curve(ball, rng, n_modes=2):
    """Constant width (anti-periodic radius part) and convex."""
    terms = [(2 * k - 1, rng.normal(scale=0.5 / k),
              rng.normal(scale=0.5 / k)) for k in range(1, n_modes + 1)]
    modes, c = _series(ball, terms)
    return _lifted_curve(ball, rng, modes, _close(modes, c))


def random_symmetric_zero_dual(ball, rng, n_modes=2):
    """Symmetric with zero dual length (not necessarily convex)."""
    terms = [(2 * k, rng.normal(), rng.normal())
             for k in range(1, n_modes + 1)]
    modes, c = _series(ball, terms)
    # the constant mode's dual length is 2 A(U)
    c[0] -= (modes.duals @ c) / modes.duals[0]
    return modes.curve(ball, c, rng.uniform(-1.0, 1.0, size=2))


def random_constant_width_zero_dual(ball, rng, n_modes=2):
    """Constant width zero with zero dual length (anti-periodic radius)."""
    terms = [(2 * k - 1, rng.normal(), rng.normal())
             for k in range(1, n_modes + 1)]
    modes, c = _series(ball, terms)
    return modes.curve(ball, _close(modes, c),
                       rng.uniform(-1.0, 1.0, size=2))


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

    def flag(i, check, **values):
        violations.append({"instance": i,
                           "ball": CORPUS_BALL_NAMES[i % len(balls)],
                           "check": check, **values})

    for i in range(n):
        curve = random_convex_curve(balls[i % len(balls)], rng)
        led = iso_ledger(curve)
        cwms_area = led.cwms_area
        if inject_bug == "cwms-sign":
            cwms_area = -cwms_area
        residual = led.lhs - (led.curve_area - 2.0 * led.wc_area
                              - cwms_area)
        if abs(residual) > 1e-8 * led.lhs:
            flag(i, "identity", residual=residual, lhs=led.lhs)
        for name in ("gap_sym", "gap_cw", "gap_busemann"):
            if getattr(led, name) < -1e-9 * led.scale:
                flag(i, name, gap=getattr(led, name))
        mg = minkowski_gap(curve)
        mg_scale = max(led.dual_length ** 2,
                       4.0 * abs(led.curve_area) * led.ball_area, 1e-300)
        if mg < -1e-9 * mg_scale:
            flag(i, "minkowski_gap", gap=mg)

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
            flag(j, "orthogonality", mixed_area=m)

    return {
        "seed": seed,
        "curves_checked": max(n, 0),
        "orthogonality_pairs": n_pairs,
        "violations": violations,
    }
