"""Random curve and polygon generators, and the batch property harness.

Radius functions are low-order trigonometric series in the ball parameter.
Modes with an even multiple of pi/T are T-periodic (symmetric curves, closed
automatically); odd multiples are anti-periodic (constant-width material).
Closure for general series is enforced by solving a 2x2 linear system for
two anti-periodic correction coefficients, which never disturbs
periodicity class, dual length, or the width profile.  A curve is a
vector of mode coefficients on its ball's cached Modes.

Every ledger term is linear or quadratic in those coefficients, so
run_corpus checks a ball's curves as one batch against the Modes' Gram
matrix, and rebuilds one curve per call as a node table to check the
Gram values against iso_ledger.
"""

from __future__ import annotations

import numpy as np

from .ball import builtin_ball
from .errors import NormPlaneError, NotClosed, NotConvexInput
from .inequalities import (Polygon, iso_ledger, ledger_terms, minkowski_gap,
                           minkowski_terms)
from .modes import modes_of

CORPUS_BALL_NAMES = ("euclidean", "square", "regular_2k_gon",
                     "mixed_example21")

_KMAX = 4   # the highest mode of the default generators


def corpus_balls():
    """The builtin balls of the corpus (builtin_ball builds each once per
    process)."""
    return tuple(builtin_ball(name) for name in CORPUS_BALL_NAMES)


def _series(ball, terms):
    """The Modes of ball and the coefficients of the terms (k, a, b), k >= 1,
    each a cos(k pi (t - t0) / T) + b sin(...)."""
    kmax = max(_KMAX, max(k for k, _, _ in terms))
    c = np.zeros(2 * kmax + 1)
    for k, a, b in terms:
        c[2 * k - 1] += a
        c[2 * k] += b
    return modes_of(ball, kmax), c


def _close(modes, c):
    """Add to c the k = 1 terms that make its curve close.

    Closure gaps are linear in the radius, so the two k = 1 terms solve a
    2x2 system on the modes' gaps; they change neither periodicity class,
    dual length nor the width profile.
    """
    c[1:3] += modes.closer @ (c @ modes.gaps)
    return c


def _basepoint(rng):
    return rng.uniform(-1.0, 1.0, size=2)


def _lifted(rng, modes, c):
    """The series plus a random constant that makes it positive, placed at
    a random basepoint: a convex curve."""
    vals = modes.grid @ c
    lo = vals.min()
    c[0] += -lo + rng.uniform(0.3, 1.0) * (vals.max() - lo + 0.5)
    return modes, c, _basepoint(rng)


# Each generator draws (modes, c, basepoint) with a *_coefficients function
# and builds the curve; run_corpus checks the coefficients in batches.

def convex_coefficients(ball, rng, n_modes=4):
    terms = [(k, rng.normal(scale=1.0 / k), rng.normal(scale=1.0 / k))
             for k in range(1, n_modes + 1)]
    modes, c = _series(ball, terms)
    return _lifted(rng, modes, _close(modes, c))


def random_convex_curve(ball, rng, n_modes=4):
    """A random positively curved closed curve on the ball."""
    modes, c, basepoint = convex_coefficients(ball, rng, n_modes)
    return modes.curve(ball, c, basepoint)


def symmetric_convex_coefficients(ball, rng, n_modes=2):
    terms = [(2 * k, rng.normal(scale=0.5 / k), rng.normal(scale=0.5 / k))
             for k in range(1, n_modes + 1)]
    return _lifted(rng, *_series(ball, terms))


def random_symmetric_convex_curve(ball, rng, n_modes=2):
    """Symmetric (T-periodic radius) and convex; closed automatically."""
    modes, c, basepoint = symmetric_convex_coefficients(ball, rng, n_modes)
    return modes.curve(ball, c, basepoint)


def constant_width_convex_coefficients(ball, rng, n_modes=2):
    terms = [(2 * k - 1, rng.normal(scale=0.5 / k),
              rng.normal(scale=0.5 / k)) for k in range(1, n_modes + 1)]
    modes, c = _series(ball, terms)
    return _lifted(rng, modes, _close(modes, c))


def random_constant_width_convex_curve(ball, rng, n_modes=2):
    """Constant width (anti-periodic radius part) and convex."""
    modes, c, basepoint = constant_width_convex_coefficients(ball, rng,
                                                             n_modes)
    return modes.curve(ball, c, basepoint)


def symmetric_zero_dual_coefficients(ball, rng, n_modes=2):
    terms = [(2 * k, rng.normal(), rng.normal())
             for k in range(1, n_modes + 1)]
    modes, c = _series(ball, terms)
    # the constant mode's dual length is 2 A(U)
    c[0] -= (modes.duals @ c) / modes.duals[0]
    return modes, c, _basepoint(rng)


def random_symmetric_zero_dual(ball, rng, n_modes=2):
    """Symmetric with zero dual length (not necessarily convex)."""
    modes, c, basepoint = symmetric_zero_dual_coefficients(ball, rng,
                                                           n_modes)
    return modes.curve(ball, c, basepoint)


def constant_width_zero_dual_coefficients(ball, rng, n_modes=2):
    terms = [(2 * k - 1, rng.normal(), rng.normal())
             for k in range(1, n_modes + 1)]
    modes, c = _series(ball, terms)
    return modes, _close(modes, c), _basepoint(rng)


def random_constant_width_zero_dual(ball, rng, n_modes=2):
    """Constant width zero with zero dual length (anti-periodic radius)."""
    modes, c, basepoint = constant_width_zero_dual_coefficients(ball, rng,
                                                                n_modes)
    return modes.curve(ball, c, basepoint)


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

def _require(ball, modes, C, first, convex):
    """Raise as building the curves would (NotClosed) and as iso_ledger
    would (NotConvexInput) for the first row that fails; row m is corpus
    instance first + m * (number of balls)."""
    step = len(CORPUS_BALL_NAMES)
    closed = modes.closed(ball, C)
    if not closed.all():
        raise NotClosed(f"corpus curve {first + step * int(np.argmin(closed))}"
                        " does not close")
    if convex:
        sign = modes.convexity(C)
        if np.any(sign != 1):
            i = first + step * int(np.argmax(sign != 1))
            raise NotConvexInput(
                "the isoperimetric identity requires a positively oriented "
                f"convex curve (corpus curve {i})")


def _oracle(ball, coefficients, gram):
    """name -> (Gram value, node-table value, normalised difference) for
    L*, A, A_WC, A_CWMS and the Minkowski gap of one curve, the node-table
    values from iso_ledger and minkowski_gap on the curve built from its
    coefficients.

    Areas are measured against the ledger's scale, the Minkowski gap
    against its own, and L* against 2 sqrt(A_U scale), the largest L*
    that scale admits."""
    modes, c, basepoint = coefficients
    curve = modes.curve(ball, c, basepoint)
    led = iso_ledger(curve)
    table = {"dual_length": led.dual_length, "curve_area": led.curve_area,
             "wc_area": led.wc_area, "cwms_area": led.cwms_area,
             "minkowski_gap": minkowski_gap(curve)}
    norm = {"dual_length": 2.0 * np.sqrt(led.ball_area * led.scale),
            "minkowski_gap": minkowski_terms(led.dual_length, led.ball_area,
                                             led.curve_area)[1]}
    return {name: (gram[name], value,
                   abs(gram[name] - value) / norm.get(name, led.scale))
            for name, value in table.items()}


def _ledgers(balls, curves):
    """The Gram ledger of every curve as arrays over the instances,
    checked ball by ball: instance i is row i // nb of ball i % nb."""
    nb, led = len(balls), {}
    for b, ball in enumerate(balls[:len(curves)]):
        batch = curves[b::nb]
        modes = batch[0][0]
        C = np.array([c for _, c, _ in batch])
        _require(ball, modes, C, b, convex=True)
        for name, values in modes.ledger(C).items():
            led.setdefault(name, np.empty(len(curves)))[b::nb] = values
    return led


def _orthogonality(balls, pairs):
    """A(sym, cw) of every pair and its scale, checked ball by ball."""
    nb = len(balls)
    m, scale = np.empty(len(pairs)), np.empty(len(pairs))
    for b, ball in enumerate(balls[:len(pairs)]):
        batch = pairs[b::nb]
        modes = batch[0][0][0]
        Cs = np.array([sym[1] for sym, _ in batch])
        Cw = np.array([cw[1] for _, cw in batch])
        _require(ball, modes, Cs, b, convex=False)
        _require(ball, modes, Cw, b, convex=False)
        m[b::nb] = modes.areas(Cs, Cw)
        scale[b::nb] = np.maximum.reduce([
            np.abs(modes.areas(Cs)), np.abs(modes.areas(Cw)),
            modes.diameters(Cs) * modes.diameters(Cw),
            np.full(len(batch), 1e-12)])
    return m, scale


def _extreme(values, b, pick):
    """(value, instance) of values' pick (np.argmax or np.argmin) over
    ball b's instances b, b + nb, ..."""
    nb = len(CORPUS_BALL_NAMES)
    k = int(pick(values[b::nb]))
    return float(values[b::nb][k]), b + nb * k


def _p99(values):
    """np.percentile(values, 99) (linear interpolation), without its
    overhead on a small array."""
    s = np.sort(values)
    pos = 0.99 * (len(s) - 1)
    k = int(pos)
    return float(s[k] + (s[min(k + 1, len(s) - 1)] - s[k]) * (pos - k))


def _distributions(identity, margins, orthogonality, oracle):
    """Per ball and check, from the batch arrays: max and p99 of
    |identity residual| / lhs, the smallest gap / scale of each gap, the
    largest |A(sym, cw)| / scale and the oracle's largest difference, each
    with its worst instance (for orthogonality, its pair).  A ball lists
    the checks it has instances of."""
    out = {}
    for b, name in enumerate(CORPUS_BALL_NAMES):
        d = {}
        if b < len(identity):
            top, worst = _extreme(identity, b, np.argmax)
            d["identity"] = {"max": top, "worst": worst, "p99": _p99(
                identity[b::len(CORPUS_BALL_NAMES)])}
            for gap, values in margins.items():
                low, worst = _extreme(values, b, np.argmin)
                d[gap] = {"min": low, "worst": worst}
        if b < len(orthogonality):
            top, worst = _extreme(orthogonality, b, np.argmax)
            d["orthogonality"] = {"max": top, "worst": worst}
        if oracle is not None and oracle[0] % len(CORPUS_BALL_NAMES) == b:
            d["oracle"] = {"max": oracle[1], "worst": oracle[0]}
        if d:
            out[name] = d
    return out


def run_corpus(seed, n, inject_bug=None, orthogonality_pairs=None):
    """Check the identity, the inequality gaps, and orthogonality on n
    random convex curves spread across the builtin balls.

    The curves of a ball are checked together, as a batch of mode
    coefficients on its Modes' Gram forms.  One curve per call, instance
    seed % n, is also built as a node table and run through iso_ledger
    and minkowski_gap; a Gram term off by more than 1e-12 of its scale is
    an "oracle" violation.

    Returns a report dict; report["violations"] is empty on success and
    report["distributions"] holds, per ball and check, the worst
    normalised residual or gap margin and the instance it occurs at.
    inject_bug="cwms-sign" flips the sign of the CWMS area before the
    checks, as a self-test that the harness can detect a broken invariant.
    """
    rng = np.random.default_rng(seed)
    balls = corpus_balls()
    nb = len(balls)
    n = max(n, 0)
    n_pairs = orthogonality_pairs if orthogonality_pairs is not None \
        else n // 4
    curves = [convex_coefficients(balls[i % nb], rng) for i in range(n)]
    pairs = [(symmetric_zero_dual_coefficients(balls[j % nb], rng),
              constant_width_zero_dual_coefficients(balls[j % nb], rng))
             for j in range(n_pairs)]
    violations = []

    def flag(i, check, **values):
        violations.append({"instance": int(i),
                           "ball": CORPUS_BALL_NAMES[i % nb],
                           "check": check, **values})

    identity, margins, oracle = np.empty(0), {}, None
    if n:
        led = _ledgers(balls, curves)
        lhs, residual = led["lhs"], led["identity_residual"]
        if inject_bug == "cwms-sign":
            residual = ledger_terms(
                led["dual_length"], led["ball_area"], led["curve_area"],
                led["wc_area"], -led["cwms_area"])["identity_residual"]
        identity = np.abs(residual) / lhs
        margins = {name: led[name] / led["scale"]
                   for name in ("gap_sym", "gap_cw", "gap_busemann")}
        mg_scale = led["minkowski_scale"]
        margins["minkowski_gap"] = led["minkowski_gap"] / mg_scale
        fails = {"identity": np.abs(residual) > 1e-8 * lhs}
        for name in ("gap_sym", "gap_cw", "gap_busemann"):
            fails[name] = led[name] < -1e-9 * led["scale"]
        fails["minkowski_gap"] = led["minkowski_gap"] < -1e-9 * mg_scale
        for i in np.flatnonzero(np.any(list(fails.values()), axis=0)):
            for name, failed in fails.items():
                if not failed[i]:
                    continue
                if name == "identity":
                    flag(i, name, residual=float(residual[i]),
                         lhs=float(lhs[i]))
                else:
                    flag(i, name, gap=float(led[name][i]))

        i = seed % n
        diffs = _oracle(balls[i % nb], curves[i],
                        {name: float(led[name][i]) for name in led})
        for name, (got, want, diff) in diffs.items():
            if diff > 1e-12:
                flag(i, "oracle", quantity=name, gram=got, node_table=want)
        oracle = i, max(diff for _, _, diff in diffs.values())

    m, scale = _orthogonality(balls, pairs)
    for j in np.flatnonzero(np.abs(m) > 1e-9 * scale):
        flag(j, "orthogonality", mixed_area=float(m[j]))

    return {
        "seed": seed,
        "curves_checked": n,
        "orthogonality_pairs": n_pairs,
        "violations": violations,
        "distributions": _distributions(identity, margins,
                                        np.abs(m) / scale, oracle),
    }
