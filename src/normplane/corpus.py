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
linear or quadratic in the coefficients, so run_corpus checks all its
curves in one array pass against the corpus balls' stacked Gram forms
(ModeStack), and rebuilds one curve per call as a node table to check the
Gram values against iso_ledger.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ball import builtin_ball
from .errors import NormPlaneError, NotClosed, NotConvexInput
from .inequalities import (Polygon, iso_ledger, ledger_terms, minkowski_gap,
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


def corpus_balls():
    """The builtin balls of the corpus (builtin_ball builds each once per
    process)."""
    return tuple(builtin_ball(name) for name in CORPUS_BALL_NAMES)


@lru_cache(maxsize=1)
def _stack(balls):
    """The ModeStack of the corpus balls, built by the first run_corpus."""
    return ModeStack(balls, _KMAX)


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
    for i in range(count):
        for z, u in drawn:
            rng.standard_normal(out=z[i])
            rng.random(out=u[i])
    k = np.arange(1, n_modes + 1)
    out = []
    for kind, (z, u) in zip(kinds, drawn):
        s, o, scale = _KINDS[kind]
        mode = s * k - o
        C = np.zeros((size, len(forms.odd)))
        C[:, np.stack([2 * mode - 1, 2 * mode], axis=-1).ravel()] = \
            z if scale is None else z * np.repeat(scale / k, 2)
        C = C.reshape((-1,) + balls + C.shape[-1:])
        u = u.reshape(C.shape[:-1] + u.shape[-1:])
        if np.any(mode % 2):
            C[..., 1:3] += per_ball(per_ball(C, forms.gaps), forms.closer)
        if scale is not None:
            vals = per_ball(C, forms.grid)
            lo = vals.min(axis=-1)
            C[..., 0] += -lo + (0.3 + (1.0 - 0.3) * u[..., 0]) * (
                vals.max(axis=-1) - lo + 0.5)
        elif not np.any(mode % 2):
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

def _require(forms, C, count, convex):
    """Raise as building the curves would (NotClosed) and as iso_ledger
    would (NotConvexInput) for the lowest of the count curves of C that
    fails; pad curves are not checked."""
    closed = forms.closed(forms, C).reshape(-1)[:count]
    if not closed.all():
        raise NotClosed(f"corpus curve {np.argmin(closed)} does not close")
    if convex:
        bad = (forms.convexity(C) != 1).reshape(-1)[:count]
        if bad.any():
            raise NotConvexInput(
                "the isoperimetric identity requires a positively oriented "
                f"convex curve (corpus curve {int(np.argmax(bad))})")


def _oracle(curve, gram):
    """name -> (Gram value, node-table value, normalised difference) for
    L*, A, A_WC, A_CWMS and the Minkowski gap of one curve, the node-table
    values from iso_ledger and minkowski_gap on the curve.

    Areas are measured against the ledger's scale, the Minkowski gap
    against its own, and L* against 2 sqrt(A_U scale), the largest L*
    that scale admits."""
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


def _p99(values):
    """np.percentile(values, 99), without its overhead on small arrays."""
    s = np.sort(values)
    pos = 0.99 * (len(s) - 1)
    k = int(pos)
    return float(s[k] + (s[min(k + 1, len(s) - 1)] - s[k]) * (pos - k))


def _distributions(identity, margins, orthogonality, oracle):
    """Per ball and check: max and p99 of |identity residual| / lhs, the
    smallest gap / scale of each gap, the largest |A(sym, cw)| / scale and
    the oracle's largest difference, each with its worst instance (for
    orthogonality, its pair).  A ball lists the checks it has instances of."""
    nb, out = len(CORPUS_BALL_NAMES), {}
    checks = {"identity": (identity, np.argmax, "max"),
              **{gap: (values, np.argmin, "min")
                 for gap, values in margins.items()},
              "orthogonality": (orthogonality, np.argmax, "max")}
    for b, name in enumerate(CORPUS_BALL_NAMES):
        d = {}
        for check, (values, pick, kind) in checks.items():
            if b < len(values):
                k = int(pick(values[b::nb]))
                d[check] = {kind: float(values[b::nb][k]), "worst": b + nb * k}
        if "identity" in d:
            d["identity"]["p99"] = _p99(identity[b::nb])
        if oracle is not None and oracle[0] % nb == b:
            d["oracle"] = {"max": oracle[1], "worst": oracle[0]}
        if d:
            out[name] = d
    return out


def run_corpus(seed, n, inject_bug=None, orthogonality_pairs=None):
    """Check the identity, the inequality gaps, and orthogonality on n
    random convex curves spread across the builtin balls.

    Curve i lies on ball i % 4.  The curves, then the pairs, are drawn in
    one batch each in the one-curve generators' stream order and checked
    in one array pass against the ModeStack, which reads the balls' Gram
    forms on every call; pad curves are never reported.  One curve per
    call, instance seed % n, is also built as a node table and run through
    iso_ledger and minkowski_gap; a Gram term off by more than 1e-12 of
    its scale is an "oracle" violation.

    Returns a report dict; report["violations"] is empty on success and
    report["distributions"] holds, per ball and check, the worst
    normalised residual or gap margin and the instance it occurs at.
    inject_bug="cwms-sign" flips the sign of the CWMS area before the
    checks, as a self-test that the harness can detect a broken invariant.
    """
    rng = np.random.default_rng(seed)
    balls = corpus_balls()
    forms = _stack(balls)
    nb = len(balls)
    n = max(n, 0)
    n_pairs = orthogonality_pairs if orthogonality_pairs is not None \
        else n // 4
    [(C, basepoints)] = _coefficients(forms, rng, n, ("convex",), _KMAX)
    [(Cs, _), (Cw, _)] = _coefficients(
        forms, rng, n_pairs,
        ("symmetric_zero_dual", "constant_width_zero_dual"), 2)
    violations = []

    def flag(i, check, **values):
        violations.append({"instance": int(i),
                           "ball": CORPUS_BALL_NAMES[i % nb],
                           "check": check, **values})

    identity, margins, oracle = np.empty(0), {}, None
    if n:
        _require(forms, C, n, convex=True)
        led = {name: np.reshape(values, -1)[:n]
               for name, values in forms.ledger(C).items()}
        lhs, residual = led["lhs"], led["identity_residual"]
        if inject_bug == "cwms-sign":
            residual = ledger_terms(
                led["dual_length"], led["ball_area"], led["curve_area"],
                led["wc_area"], -led["cwms_area"])["identity_residual"]
        identity = np.abs(residual) / lhs
        scales = {"gap_sym": led["scale"], "gap_cw": led["scale"],
                  "gap_busemann": led["scale"],
                  "minkowski_gap": led["minkowski_scale"]}
        margins = {name: led[name] / s for name, s in scales.items()}
        fails = {"identity": np.abs(residual) > 1e-8 * lhs,
                 **{name: led[name] < -1e-9 * s
                    for name, s in scales.items()}}
        for i in np.flatnonzero(np.any(list(fails.values()), axis=0)):
            for name, failed in fails.items():
                if failed[i] and name == "identity":
                    flag(i, name, residual=float(residual[i]),
                         lhs=float(lhs[i]))
                elif failed[i]:
                    flag(i, name, gap=float(led[name][i]))

        i = seed % n
        curve = forms.members[i % nb].curve(balls[i % nb], C[i // nb, i % nb],
                                            basepoints[i // nb, i % nb])
        diffs = _oracle(curve, {name: float(led[name][i]) for name in led})
        for name, (got, want, diff) in diffs.items():
            if diff > 1e-12:
                flag(i, "oracle", quantity=name, gram=got, node_table=want)
        oracle = i, max(diff for _, _, diff in diffs.values())

    _require(forms, Cs, n_pairs, convex=False)
    _require(forms, Cw, n_pairs, convex=False)
    m = forms.areas(Cs, Cw).reshape(-1)[:n_pairs]
    scale = np.maximum(np.maximum(np.abs(forms.areas(Cs)),
                                  np.abs(forms.areas(Cw))),
                       np.maximum(forms.diameters(Cs) * forms.diameters(Cw),
                                  1e-12)).reshape(-1)[:n_pairs]
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
