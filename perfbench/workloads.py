"""The three workloads: inputs made from the seed, the timed operation, and
the correctness check of its output.

Each workload defines

- ``setup()``: the balls it uses, built before the first operation;
- ``item(i)``: input ``i``, a pure function of (seed, i), made untimed;
- ``op(inp, span)``: the timed call into normplane's entry point;
- ``check(inp, out)``: returns the number of items completed, or raises
  ``CheckFailed``.

``span(name, fn, *args)`` calls ``fn(*args)``; a traced run passes a
tracer's span so the benchmark's own layers (``cli.command``) are timed.
"""

from __future__ import annotations

import json
import math
import os
import shutil

import numpy as np

# corpus curves per run_corpus call: three per builtin ball and three
# orthogonality pairs, so a run_corpus that batches the curves of a ball can
# show its gain, while a 34 s run still holds about 27 calls for op_tail_ms
BATCH = 12
VERTEX_RANGE = (5, 48)    # lhuilier vertex counts, each once per block
EQUALITY_EVERY = 8        # every 8th lhuilier polygon is K = c * K1^0


class CheckFailed(Exception):
    """An operation returned a wrong result."""


def _expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def _close(got, want, tol, name):
    _expect(abs(got - want) <= tol,
            f"{name}={got!r}, want {want!r} +/- {tol:.1e}")


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------

class Corpus:
    """run_corpus(seed_i, n=BATCH) on the four builtin balls."""

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        from normplane import corpus
        self.corpus = corpus
        corpus.corpus_balls()

    def item(self, i):
        return self.seed * 1_000_000 + i

    def op(self, seed_i, span):
        return self.corpus.run_corpus(seed_i, n=BATCH)

    def check(self, seed_i, report):
        _expect(not report["violations"],
                f"violations {report['violations'][:2]}")
        _expect(report["curves_checked"] == BATCH,
                f"curves_checked={report['curves_checked']}")
        _expect(report["orthogonality_pairs"] == BATCH // 4,
                f"orthogonality_pairs={report['orthogonality_pairs']}")
        return report["curves_checked"]


# ---------------------------------------------------------------------------
# lhuilier
# ---------------------------------------------------------------------------

def _jittered_angles(rng, n, span):
    """n sorted angles in [0, span), each in its own slot of width span/n,
    so neighbouring edges are never close to parallel."""
    slot = span / n
    return (np.arange(n) + rng.uniform(0.15, 0.85, size=n)) * slot


def _ellipse_polygon(rng, n):
    """Strictly convex CCW polygon: n points on a random ellipse."""
    theta = _jittered_angles(rng, n, 2.0 * np.pi) + rng.uniform(0, 2 * np.pi)
    a = rng.uniform(0.5, 2.0)
    b = a * rng.uniform(0.3, 1.0)
    phi = rng.uniform(0.0, np.pi)
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
    pts = np.stack([a * np.cos(theta), b * np.sin(theta)], axis=-1) @ rot.T
    return pts + rng.uniform(-1.0, 1.0, size=2)


def _symmetric_tangent_polygon(rng, m):
    """The polygon with outward normals +-n_j, every side tangent to the
    unit circle: its own circumscribed parallel polygon and symmetral."""
    alpha = _jittered_angles(rng, m, np.pi) + rng.uniform(0.0, np.pi)
    alpha = np.concatenate([alpha, alpha + np.pi])
    nxt = np.roll(alpha, -1)
    nxt[-1] += 2.0 * np.pi
    mid = 0.5 * (alpha + nxt)
    r = 1.0 / np.cos(0.5 * (nxt - alpha))
    return np.stack([r * np.cos(mid), r * np.sin(mid)], axis=-1)


class Lhuilier:
    """lhuilier_check(K) on one random convex polygon per operation."""

    def __init__(self, seed, workdir):
        self.seed = seed
        lo, hi = VERTEX_RANGE
        self.counts = np.arange(lo, hi + 1)

    def vertex_count(self, i):
        block, k = divmod(i, len(self.counts))
        order = np.random.default_rng([self.seed, 0, block]).permutation(
            self.counts)
        return int(order[k])

    def setup(self):
        from normplane import inequalities as ineq
        self.ineq = ineq
        K, _ = self.item(0)
        ineq.polygon_ball(ineq.symmetrize_polygon(
            ineq.circumscribed_parallel_polygon(ineq.Polygon(K))))

    def item(self, i):
        rng = np.random.default_rng([self.seed, 1, i])
        n = self.vertex_count(i)
        equality = i % EQUALITY_EVERY == EQUALITY_EVERY - 1
        if equality:
            verts = rng.uniform(0.5, 2.0) * _symmetric_tangent_polygon(
                rng, max(3, n // 2))
        else:
            verts = _ellipse_polygon(rng, n)
        return verts, equality

    def op(self, inp, span):
        return self.ineq.lhuilier_check(self.ineq.Polygon(inp[0]))

    def check(self, inp, rep):
        _, equality = inp
        _expect(rep.gap >= -1e-9 * rep.scale,
                f"gap {rep.gap!r} < -1e-9 * scale {rep.scale!r}")
        if equality:
            _expect(rep.gap <= 1e-8 * rep.scale,
                    f"equality case gap {rep.gap!r} > 1e-8 * scale")
        return 1


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------

EXAMPLE22_RADII = ["1", "16/sqrt((15*cos(pi/2*t)^2+1)^3)", "4",
                   "16/sqrt((15*sin(pi/2*t)^2+1)^3)"]
EXAMPLE22_EXPLICIT = [
    ("2-t", "1+t"),
    ("16*cos(pi/2*t)/sqrt(15*cos(pi/2*t)^2+1)+1",
     "sin(pi/2*t)/sqrt(15*cos(pi/2*t)^2+1)+1"),
    ("-11+4*t", "9-4*t"),
    ("cos(pi/2*t)/sqrt(15*sin(pi/2*t)^2+1)+1",
     "16*sin(pi/2*t)/sqrt(15*sin(pi/2*t)^2+1)+1"),
]
# Example 2.2 per unit scale: L*, A_WC and A_CWMS as the paper prints them
EXAMPLE22 = {"dual_length": (13.578, 1), "wc_area": (-1.333, 2),
             "cwms_area": (-0.481, 2)}

# the first half of two builtin balls, as explicit pieces
HALF_SQUARE = [
    {"kind": "segment", "p0": [1, -1], "p1": [1, 1], "t0": 0, "t1": 1},
    {"kind": "segment", "p0": [1, 1], "p1": [-1, 1], "t0": 1, "t1": 2}]
HALF_MIXED = [
    {"kind": "segment", "p0": [1, 0], "p1": [0, 1], "t0": 0, "t1": 1},
    {"kind": "arc", "x": "cos(pi/2*t)", "y": "sin(pi/2*t)", "t0": 1,
     "t1": 2}]
# star-shaped about the origin but with a right turn at (0.3, 0.3)
HALF_DENTED = [
    {"kind": "segment", "p0": [1, 0], "p1": [0.3, 0.3], "t0": 0, "t1": 1},
    {"kind": "segment", "p0": [0.3, 0.3], "p1": [0, 1], "t0": 1, "t1": 2},
    {"kind": "segment", "p0": [0, 1], "p1": [-1, 0], "t0": 2, "t1": 3}]

# one block of documents; each block is shuffled by the seed
DOCUMENT_KINDS = ("rect", "rect_pieces", "example22", "example22_pieces",
                  "example22_explicit", "gon", "gon", "circle_cos2",
                  "circle_cos2", "invalid")


def _num(x):
    return f"({x!r})"


class Documents:
    """`normplane analyze` and `normplane decompose --out DIR --svg` on one
    seeded JSON curve document per operation, in process via click."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.outdir = os.path.join(workdir, "out")

    def setup(self):
        from click.testing import CliRunner
        from normplane import ball, cli
        self.cli = cli
        for name in ("euclidean", "square", "mixed_example21"):
            ball.builtin_ball(name)
        for k in range(2, 9):
            ball.builtin_ball("regular_2k_gon", k=k)
        self.runner = CliRunner()

    def kind(self, i):
        block, k = divmod(i, len(DOCUMENT_KINDS))
        order = np.random.default_rng([self.seed, 2, block]).permutation(
            len(DOCUMENT_KINDS))
        return DOCUMENT_KINDS[order[k]]

    def item(self, i):
        rng = np.random.default_rng([self.seed, 3, i])
        doc, expect = getattr(self, "_" + self.kind(i))(rng)
        path = os.path.join(self.workdir, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        shutil.rmtree(self.outdir, ignore_errors=True)
        return path, expect

    # -- document makers: (document, expected results) -------------------

    @staticmethod
    def _shift(rng):
        return [round(float(v), 6) for v in rng.uniform(-2.0, 2.0, size=2)]

    def _rect(self, rng, pieces=False):
        b = round(float(rng.uniform(0.3, 1.5)), 6)
        a = round(b * float(rng.uniform(1.3, 3.0)), 6)
        dx, dy = self._shift(rng)
        ball = ({"pieces": HALF_SQUARE, "auto_symmetrize": True} if pieces
                else "square")
        doc = {"ball": ball, "basepoint": [a + dx, -b + dy],
               "radius": [b, a, b, a]}
        # acceptance criterion 6, with the tolerance it uses
        want = {"dual_length": 4 * (a + b), "curve_area": 4 * a * b,
                "cwms_area": -(a - b) ** 2, "gap_cw": (a - b) ** 2,
                "wc_area": 0.0}
        tol = {k: 1e-10 * max(abs(v), 1e-12) for k, v in want.items()}
        tol["wc_area"] = 1e-10 * 4 * a * b
        return doc, {"ledger": want, "tol": tol}

    def _rect_pieces(self, rng):
        return self._rect(rng, pieces=True)

    def _example22(self, rng, pieces=False):
        c = round(float(rng.uniform(0.5, 2.0)), 6)
        dx, dy = self._shift(rng)
        ball = ({"pieces": HALF_MIXED, "auto_symmetrize": True} if pieces
                else "mixed_example21")
        doc = {"ball": ball, "basepoint": [2 * c + dx, c + dy],
               "radius": [{"piece": k, "expr": f"{_num(c)}*({r})"}
                          for k, r in enumerate(EXAMPLE22_RADII)]}
        return doc, self._example22_expect(c)

    def _example22_pieces(self, rng):
        return self._example22(rng, pieces=True)

    def _example22_explicit(self, rng):
        c = round(float(rng.uniform(0.5, 2.0)), 6)
        dx, dy = self._shift(rng)
        doc = {"ball": "mixed_example21",
               "explicit": [{"x": f"{_num(c)}*({x})+{_num(dx)}",
                             "y": f"{_num(c)}*({y})+{_num(dy)}"}
                            for x, y in EXAMPLE22_EXPLICIT]}
        return doc, self._example22_expect(c)

    @staticmethod
    def _example22_expect(c):
        # half a unit in the last printed digit, scaled like the quantity
        want = {k: v * c ** p for k, (v, p) in EXAMPLE22.items()}
        tol = {k: 5e-4 * c ** p for k, (_, p) in EXAMPLE22.items()}
        return {"ledger": want, "tol": tol}

    def _gon(self, rng):
        k = int(rng.integers(2, 9))
        c = round(float(rng.uniform(0.5, 2.0)), 6)
        dx, dy = self._shift(rng)
        doc = {"ball": {"builtin": "regular_2k_gon", "k": k},
               "basepoint": [c + dx, dy], "radius": [c] * (2 * k)}
        area_u = k * math.sin(math.pi / k)
        # the curve is c*U: L* = 2c A_U, A = c^2 A_U, both parts vanish
        want = {"dual_length": 2 * c * area_u, "curve_area": c * c * area_u,
                "ball_area": area_u, "wc_area": 0.0, "cwms_area": 0.0}
        tol = {key: 1e-9 * max(abs(v), c * c * area_u)
               for key, v in want.items()}
        return doc, {"ledger": want, "tol": tol}

    def _circle_cos2(self, rng):
        a = round(float(rng.uniform(0.5, 2.0)), 6)
        b = round(a * float(rng.uniform(0.1, 0.8)), 6)
        dx, dy = self._shift(rng)
        doc = {"ball": "euclidean", "basepoint": [dx, dy],
               "radius": [f"{_num(a)}+{_num(b)}*cos(pi*t)"] * 4}
        # curvature radius a + b cos(2 theta): support function
        # a - (b/3) cos(2 theta), so A = pi (a^2 - b^2/6); L* = 2 pi a
        want = {"dual_length": 2 * math.pi * a,
                "curve_area": math.pi * (a * a - b * b / 6),
                "wc_area": 0.0, "cwms_area": -math.pi * b * b / 6}
        tol = {k: 1e-9 * math.pi * a * a for k in want}
        return doc, {"ledger": want, "tol": tol}

    def _invalid(self, rng):
        if rng.random() < 0.5:
            r = round(float(rng.uniform(1.5, 3.0)), 6)
            doc = {"ball": "square", "radius": [1, r, 1, 1]}
            return doc, {"error": "NotClosed"}
        s = round(float(rng.uniform(0.5, 2.0)), 6)
        pieces = [{**p, "p0": [s * v for v in p["p0"]],
                   "p1": [s * v for v in p["p1"]]} for p in HALF_DENTED]
        doc = {"ball": {"pieces": pieces, "auto_symmetrize": True},
               "radius": [1] * 6}
        return doc, {"error": "NotConvex"}

    # -- operation and check ---------------------------------------------

    def op(self, inp, span):
        path, _ = inp
        analyze = span("cli.command", self.runner.invoke, self.cli.main,
                       ["analyze", "--curve", path])
        decompose = span("cli.command", self.runner.invoke, self.cli.main,
                         ["decompose", "--curve", path, "--out",
                          self.outdir, "--svg"])
        return analyze, decompose

    def check(self, inp, out):
        _, expect = inp
        if "error" in expect:
            for res in out:
                _expect(res.exit_code == 1, f"exit code {res.exit_code}, "
                        f"want 1 for {expect['error']}")
                err = json.loads(res.stderr.splitlines()[-1])["error"]
                _expect(err == expect["error"],
                        f"error {err}, want {expect['error']}")
            return 1
        for res in out:
            _expect(res.exit_code == 0,
                    f"exit code {res.exit_code}: {res.stderr.strip()}")
        report = json.loads(out[0].stdout)
        _expect(report["convex"], "analyze reports a non-convex curve")
        ledger = report["ledger"]
        _expect(abs(ledger["identity_residual"]) <= 1e-8 * ledger["lhs"],
                f"identity residual {ledger['identity_residual']!r}")
        for key, want in expect["ledger"].items():
            _close(ledger[key], want, expect["tol"][key], key)
        with open(os.path.join(self.outdir, "decomposition.json"),
                  encoding="utf-8") as fh:
            dec = json.load(fh)
        for key in ("wc_area", "cwms_area"):
            _close(dec[key], expect["ledger"][key], expect["tol"][key],
                   "decomposition " + key)
        with open(os.path.join(self.outdir, "decomposition.svg"),
                  encoding="utf-8") as fh:
            svg = fh.read()
        _expect(svg.startswith("<?xml") and svg.rstrip().endswith("</svg>"),
                "decomposition.svg is not a complete SVG document")
        return 1


WORKLOADS = {"corpus": Corpus, "lhuilier": Lhuilier, "documents": Documents}
