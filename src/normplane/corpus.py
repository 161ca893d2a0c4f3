"""Random curve and polygon generators, and the batch property harness.

Radius functions are low-order trigonometric series in the ball parameter.
Modes with an even multiple of pi/T are T-periodic (symmetric curves, closed
automatically); odd multiples are anti-periodic (constant-width material).
Closure for general series is enforced by solving a 2x2 linear system for
two anti-periodic correction coefficients, which never disturbs
periodicity class, dual length, or the width profile.  A curve is a
vector of mode coefficients on its ball's cached Modes.

Every generator draws through one batch path, _coefficients, in the
random-number order of the old one-curve draws.  Every ledger term is
linear or quadratic in the coefficients, so run_corpus checks its curves
in blocks, each in one array pass against the corpus balls' stacked Gram
forms (ModeStack), keeps per-curve scalars only, and rebuilds one curve
per call as a node table to check the Gram values against iso_ledger.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ball import builtin_ball
from .errors import (NormPlaneError, NotClosed, NotConvexInput,
                     ValidationError)
from .inequalities import (Polygon, iso_ledger, ledger_terms,
                           minkowski_terms)
from .modes import ModeStack, modes_of, per_ball

CORPUS_BALL_NAMES = ("euclidean", "square", "regular_2k_gon",
                     "mixed_example21")

_KMAX = 4   # the highest mode of the default generators

# kind -> (s, o, scale): term k = 1..n_modes is mode s k - o, its cosine
# and sine coefficients normals times scale / k, and the curve is lifted to
# convex; a scale of None takes plain normals and zero dual length instead
_KINDS = {
    "convex": (1, 0, 1.0),
    "symmetric_convex": (2, 0, 0.5),
    "constant_width_convex": (2, 1, 0.5),
    "symmetric_zero_dual": (2, 0, None),
    "constant_width_zero_dual": (2, 1, None),
}


@lru_cache(maxsize=1)
def corpus_balls():
    """The builtin balls of the corpus (builtin_ball builds each once per
    process)."""
    return tuple(builtin_ball(name) for name in CORPUS_BALL_NAMES)


@lru_cache(maxsize=1)
def _stack(balls):
    """The ModeStack of the corpus balls, built by the first run_corpus."""
    return ModeStack(balls, _KMAX)


@lru_cache(maxsize=None)
def _layout(kind, n_modes):
    """The columns of kind's 2 n_modes normals in a coefficient row, their
    scales (None for plain normals) and whether any of its modes is odd.
    Cached, so read-only: every draw of kind shares them."""
    s, o, scale = _KINDS[kind]
    k = np.arange(1, n_modes + 1)
    mode = s * k - o
    columns = np.stack([2 * mode - 1, 2 * mode], axis=-1).ravel()
    columns.flags.writeable = False
    scales = None
    if scale is not None:
        scales = np.repeat(scale / k, 2)
        scales.flags.writeable = False
    return columns, scales, bool(np.any(mode % 2))


def _coefficients(forms, rng, count, kinds, n_modes):
    """[(mode coefficients, basepoints)] of count curves of each of kinds
    on forms, a Modes or a ModeStack.

    Curve by curve and kind by kind, each draws 2 n_modes normals, then
    uniforms for its lift if lifted and its basepoint, as Generator.uniform
    makes them: low + (high - low) random().  On a ModeStack curve i sits
    at [i // balls, i % balls], and pad curves fill the last row: radius
    1/2 if lifted, else zero.  k = 1 terms close curves with odd modes.
    """
    balls, per_row = np.shape(forms.area), np.size(forms.area)
    size = -(-count // per_row) * per_row
    drawn = [(np.zeros((size, 2 * n_modes)),
              np.ones((size, 2 if _KINDS[kind][2] is None else 3)))
             for kind in kinds]
    normal, uniform = rng.standard_normal, rng.random
    for i in range(count):
        for z, u in drawn:
            normal(out=z[i])
            uniform(out=u[i])
    out = []
    for kind, (z, u) in zip(kinds, drawn):
        columns, scale, odd = _layout(kind, n_modes)
        C = np.zeros((size, len(forms.odd)))
        C[:, columns] = z if scale is None else z * scale
        C = C.reshape((-1,) + balls + C.shape[-1:])
        u = u.reshape(C.shape[:-1] + u.shape[-1:])
        if odd:
            C[..., 1:3] += per_ball(per_ball(C, forms.gaps), forms.closer)
        if scale is not None:
            vals = forms.radius_samples(C)
            lo = vals.min(axis=-1)
            C[..., 0] += -lo + (0.3 + (1.0 - 0.3) * u[..., 0]) * (
                vals.max(axis=-1) - lo + 0.5)
        elif not odd:
            # the constant mode's dual length is 2 A(U)
            C[..., 0] -= forms.dual_lengths(C) / forms.duals[..., 0]
        out.append((C, -1.0 + 2.0 * u[..., -2:]))
    return out


def _generators(kind, n_modes, doc):
    """kind's *_coefficients, (modes, c, basepoint) of one curve on a ball
    as a batch of one, and its random_* curve, named for pickle."""
    s, o, scale = _KINDS[kind]

    def coefficients(ball, rng, n_modes=n_modes):
        modes = modes_of(ball, max(_KMAX, s * n_modes - o))
        [(C, basepoints)] = _coefficients(modes, rng, 1, (kind,), n_modes)
        return modes, C[0], basepoints[0]

    def curve(ball, rng, n_modes=n_modes):
        modes, c, basepoint = coefficients(ball, rng, n_modes)
        return modes.curve(ball, c, basepoint)

    coefficients.__qualname__ = f"{kind}_coefficients"
    curve.__qualname__ = f"random_{kind}" + ("" if scale is None else "_curve")
    curve.__doc__ = doc
    return coefficients, curve


convex_coefficients, random_convex_curve = _generators(
    "convex", 4, "A random positively curved closed curve on the ball.")
symmetric_convex_coefficients, random_symmetric_convex_curve = _generators(
    "symmetric_convex", 2,
    "Symmetric (T-periodic radius) and convex; closed automatically.")
constant_width_convex_coefficients, random_constant_width_convex_curve = \
    _generators("constant_width_convex", 2,
                "Constant width (anti-periodic radius part) and convex.")
symmetric_zero_dual_coefficients, random_symmetric_zero_dual = _generators(
    "symmetric_zero_dual", 2,
    "Symmetric with zero dual length (not necessarily convex).")
constant_width_zero_dual_coefficients, random_constant_width_zero_dual = \
    _generators("constant_width_zero_dual", 2,
                "Constant width zero and zero dual length (anti-periodic).")


# ---------------------------------------------------------------------------
# Random polygons
# ---------------------------------------------------------------------------

def random_convex_polygon(rng, n_vertices):
    """Strictly convex CCW polygon from sorted random edge directions."""
    for _ in range(200):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, size=n_vertices))
        if min(np.min(np.diff(angles)),
               angles[0] + 2.0 * np.pi - angles[-1]) < 1e-3:
            continue
        dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
        lengths = rng.uniform(0.5, 2.0, size=n_vertices)
        # least-norm tweak so the edge vectors sum to zero
        lengths = lengths - dirs @ np.linalg.solve(
            dirs.T @ dirs, dirs.T @ lengths)
        if np.max(np.abs(lengths @ dirs)) > 1e-9 or np.min(lengths) < 0.05:
            continue
        edges = np.cumsum(lengths[:, None] * dirs, axis=0)
        verts = np.concatenate([[np.zeros(2)], edges])[:-1]
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
        edges = np.cumsum(lengths[:, None] * dirs, axis=0)
        verts = np.concatenate([[np.zeros(2)], edges])[:-1]
        verts = verts - verts.mean(axis=0)
        try:
            return Polygon(verts)
        except NormPlaneError:
            continue
    raise RuntimeError("failed to generate a symmetric convex polygon")


# ---------------------------------------------------------------------------
# Batch property harness
# ---------------------------------------------------------------------------

# curves per block of run_corpus, a multiple of the corpus balls: each
# block is drawn, checked and dropped before the next, so memory does not
# grow with n past a block's products with the radius samples and knots
_BLOCK = 2 ** 11

# the checks in report order: the extreme each reports, and how far past
# zero its normalised value may go the wrong way before it is a violation
_CHECKS = {"identity": ("max", 1e-8), "gap_sym": ("min", 1e-9),
           "gap_cw": ("min", 1e-9), "gap_busemann": ("min", 1e-9),
           "minkowski_gap": ("min", 1e-9), "orthogonality": ("max", 1e-9)}
_WORSE = np.array([1.0 if kind == "max" else -1.0
                   for kind, _ in _CHECKS.values()])   # larger is worse
_LIMITS = np.array([limit for _, limit in _CHECKS.values()])
_GAPS = {"gap_sym": "scale", "gap_cw": "scale", "gap_busemann": "scale",
         "minkowski_gap": "minkowski_scale"}   # gap -> its scale
_PAIRS = ("symmetric_zero_dual", "constant_width_zero_dual")

# instances within this of their ball's extreme tie, and the lowest is
# named worst: below it a check's values are roundoff
_TIE = 1e-13


def _require(closed, convex=None):
    """Raise as building the curves would (NotClosed) and as iso_ledger
    would (NotConvexInput) for the lowest curve whose flag is False."""
    if not closed.all():
        raise NotClosed(f"corpus curve {np.argmin(closed)} does not close")
    if convex is not None and not convex.all():
        raise NotConvexInput(
            "the isoperimetric identity requires a positively oriented "
            f"convex curve (corpus curve {int(np.argmin(convex))})")


def _oracle(curve, gram):
    """name -> (Gram value, node-table value, normalised difference) for
    L*, A, A_WC, A_CWMS and the Minkowski gap of one curve, the node-table
    values from iso_ledger, the Minkowski gap from its L*, A(U) and A.

    Areas are measured against the ledger's scale, the Minkowski gap
    against its own, and L* against 2 sqrt(A_U scale), the largest L*
    that scale admits."""
    led = iso_ledger(curve)
    gap, gap_scale = minkowski_terms(led.dual_length, led.ball_area,
                                     led.curve_area)
    table = {"dual_length": led.dual_length, "curve_area": led.curve_area,
             "wc_area": led.wc_area, "cwms_area": led.cwms_area,
             "minkowski_gap": gap}
    norm = {"dual_length": 2.0 * np.sqrt(led.ball_area * led.scale),
            "minkowski_gap": gap_scale}
    return {name: (gram[name], value,
                   abs(gram[name] - value) / norm.get(name, led.scale))
            for name, value in table.items()}


def _p99(values, counts=None):
    """np.percentile(values, 99, axis=0), without its overhead on small
    arrays; with counts, that of each column's counts largest entries, the
    others pads that sort first."""
    s = np.sort(values, axis=0).reshape(len(values), -1)
    m = np.maximum(len(s) if counts is None else counts, 1)
    pos = 0.99 * (m - 1)
    k = pos.astype(int)
    cols = np.arange(s.shape[1])
    lo, hi = (s[len(s) - m + i, cols] for i in (k, np.minimum(k + 1, m - 1)))
    return (lo + (hi - lo) * (pos - k)).reshape(np.shape(values)[1:])


def _distributions(worse, counts, oracle):
    """Per ball and check: the max or min of the check's per-instance
    values, and the lowest instance within _TIE of it; the p99 of the
    identity; the oracle's largest difference.  worse holds a row per
    check of its values times _WORSE, so larger is worse, instance i in
    column i, pads beyond; counts[c] instances of check c are real.  A
    ball lists the checks it has instances of."""
    nb = len(CORPUS_BALL_NAMES)
    worse = worse.reshape(len(_CHECKS), -1, nb)
    top = worse.max(axis=1)
    tied = worse >= top[:, None] - _TIE
    worst = (nb * np.argmax(tied, axis=1) + np.arange(nb)).tolist()
    extreme = (top * _WORSE[:, None]).tolist()
    p99 = _p99(worse[0], (counts[0] - np.arange(nb) + nb - 1) // nb).tolist()
    out = {}
    for b, name in enumerate(CORPUS_BALL_NAMES):
        d = {check: {kind: extreme[c][b], "worst": worst[c][b]}
             for c, (check, (kind, _)) in enumerate(_CHECKS.items())
             if b < counts[c]}
        if "identity" in d:
            d["identity"]["p99"] = p99[b]
        if oracle is not None and oracle[0] % nb == b:
            d["oracle"] = {"max": oracle[1], "worst": oracle[0]}
        if d:
            out[name] = d
    return out


def run_corpus(seed, n, inject_bug=None, orthogonality_pairs=None):
    """Check the identity, the inequality gaps, and orthogonality on n
    random convex curves spread across the builtin balls.

    Curve i lies on ball i % 4.  The curves, then the pairs, are drawn in
    the one-curve generators' stream order, in blocks of _BLOCK curves or
    pairs, and each block is checked in one array pass against the
    ModeStack, which reads the balls' Gram forms on every call; pad curves
    are never reported.  A block leaves only per-curve scalars behind: its
    closed and convex flags, |identity residual| / lhs, the four gap
    margins gap / scale and |A(sym, cw)| / scale, so memory stays flat in
    n.  Errors name the lowest failing curve over all blocks: closure
    first, then convexity, then the pairs' closure.  One curve per call,
    instance seed % n, is also built as a node table and run through
    iso_ledger; a Gram term off by more than 1e-12 of its scale is an
    "oracle" violation.

    seed, n and orthogonality_pairs must be non-negative, or a
    ValidationError is raised; n = 0 checks nothing.

    Returns a report dict; report["violations"] is empty on success and
    report["distributions"] holds, per ball and check, the extreme
    normalised residual or gap margin over all the ball's instances, and
    as its worst instance the lowest one within 1e-13 of that extreme.
    inject_bug="cwms-sign" flips the sign of the CWMS area before the
    checks, as a self-test that the harness can detect a broken invariant.
    """
    for name, value in (("seed", seed), ("n", n),
                        ("orthogonality_pairs", orthogonality_pairs)):
        if value is not None and value < 0:
            raise ValidationError(f"{name} must be non-negative, got {value}")
    rng = np.random.default_rng(seed)
    balls = corpus_balls()
    forms = _stack(balls)
    nb = len(balls)
    n_pairs = orthogonality_pairs if orthogonality_pairs is not None \
        else n // 4
    # each check's values oriented by _WORSE as they are written, so that
    # larger is worse; pads, the least finite value, are never the worst
    worse = np.full((len(_CHECKS), -(-max(n, n_pairs, 1) // nb) * nb),
                    -np.finfo(float).max)
    flags = np.empty((2, n), dtype=bool)       # closed, convex
    violations, picked, oracle = [], seed % n if n else -1, None

    def flag(i, check, **values):
        violations.append({"instance": int(i),
                           "ball": CORPUS_BALL_NAMES[i % nb],
                           "check": check, **values})

    def check(rows, start, values):
        """Write a block's values[c, j] of check rows[c] and instance
        start + j, oriented; [(instance, c)] past their limits, in order."""
        oriented = values * _WORSE[rows, None]
        worse[rows, start:start + values.shape[-1]] = oriented
        over = oriented > _LIMITS[rows, None]
        return [(start + j, c) for j, c in np.argwhere(over.T).tolist()]

    for start in range(0, n, _BLOCK):
        count = min(_BLOCK, n - start)
        [(C, basepoints)] = _coefficients(forms, rng, count, ("convex",),
                                          _KMAX)
        at = slice(start, start + count)
        flags[0, at] = forms.closed(C).reshape(-1)[:count]
        flags[1, at] = (forms.convexity(C) == 1).reshape(-1)[:count]
        led = forms.ledger(C)
        if inject_bug == "cwms-sign":
            led["identity_residual"] = ledger_terms(
                led["dual_length"], led["ball_area"], led["curve_area"],
                led["wc_area"], -led["cwms_area"])["identity_residual"]
        values = np.stack([np.abs(led["identity_residual"]) / led["lhs"],
                           *(led[gap] / led[s] for gap, s in _GAPS.items())])
        for i, c in check(slice(0, 5), start,
                          values.reshape(5, -1)[:, :count]):
            j, name = divmod(i - start, nb), list(_CHECKS)[c]
            if name == "identity":
                flag(i, name, residual=float(led["identity_residual"][j]),
                     lhs=float(led["lhs"][j]))
            else:
                flag(i, name, gap=float(led[name][j]))
        if start <= picked < start + count:
            j = divmod(picked - start, nb)
            chosen = (C[j], basepoints[j],
                      {name: float(v[j]) for name, v in led.items()})
    _require(*flags)

    if n:
        c, basepoint, gram = chosen
        b = picked % nb
        diffs = _oracle(forms.members[b].curve(balls[b], c, basepoint), gram)
        for name, (got, want, diff) in diffs.items():
            if diff > 1e-12:
                flag(picked, "oracle", quantity=name, gram=got,
                     node_table=want)
        oracle = picked, max(diff for _, _, diff in diffs.values())

    # the two kinds of a block as one stack: closure, A(sym), A(cw) with
    # A(sym, cw), and diameters each in one call
    pairs_closed = np.empty((2, n_pairs), dtype=bool)
    found = []
    for start in range(0, n_pairs, _BLOCK):
        count = min(_BLOCK, n_pairs - start)
        [(Cs, _), (Cw, _)] = _coefficients(forms, rng, count, _PAIRS, 2)
        X = np.concatenate([Cs, Cw])
        pairs_closed[:, start:start + count] = forms.closed(X).reshape(
            2, -1)[:, :count]
        A_s, A_w, m = forms.areas(np.concatenate([X, Cs]),
                                  np.concatenate([X, Cw])).reshape(
            3, -1)[:, :count]
        d_s, d_w = forms.diameters(X).reshape(2, -1)[:, :count]
        ratio = np.abs(m) / np.maximum(np.maximum(np.abs(A_s), np.abs(A_w)),
                                       np.maximum(d_s * d_w, 1e-12))
        found += [(j, float(m[j - start]))
                  for j, _ in check(slice(5, 6), start, ratio[None])]
    for closed in pairs_closed:
        _require(closed)
    for j, mixed in found:
        flag(j, "orthogonality", mixed_area=mixed)

    return {
        "seed": seed,
        "curves_checked": n,
        "orthogonality_pairs": n_pairs,
        "violations": violations,
        "distributions": _distributions(worse, [n] * 5 + [n_pairs],
                                        oracle),
    }
