"""The corpus generators against a reference built from explicit
trigonometric-series callables, and a pinned seed; run_corpus's Gram forms
against the node tables, and run_corpus in blocks."""

import tracemalloc

import numpy as np
import pytest

from normplane import (AdmissibleCurve, builtin_ball, corpus,
                       curve_from_radius, decompose, dual_length, is_convex,
                       iso_ledger, minkowski_gap, mixed_area, signed_area)
from normplane.corpus import (CORPUS_BALL_NAMES, corpus_balls,
                              random_constant_width_convex_curve,
                              random_constant_width_zero_dual,
                              random_convex_curve,
                              random_symmetric_convex_curve,
                              random_symmetric_zero_dual, run_corpus)
from normplane.errors import NotClosed, NotConvexInput, ValidationError
from normplane.modes import modes_of

BALLS = {name: {} for name in CORPUS_BALL_NAMES}
BALLS["regular_2k_gon(5)"] = {"k": 5}


# -- the reference: each radius is a callable trig series, closing terms
# -- from adaptively integrated gaps, the lift from the series at the
# -- parameters of the mode frame's radius samples ---------------------------

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
    # each panel's left end, its nodes and its right end
    f = modes_of(ball, 4).frame
    vals = _trig(ball, terms)(np.column_stack([f.lo, f.t,
                                               f.lo + 2.0 * f.half]))
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
    "euclidean": 30.482244480852668,
    "square": 37.74038826780091,
    "regular_2k_gon": 25.31950081832175,
    "mixed_example21": 28.106756436046926,
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


# -- the Gram forms of run_corpus against the node tables ---------------------

def _ball(name):
    return builtin_ball(name.split("(")[0], **BALLS[name])


CONVEX_COEFFICIENTS = (corpus.convex_coefficients,
                       corpus.symmetric_convex_coefficients,
                       corpus.constant_width_convex_coefficients)


@pytest.mark.parametrize("ball_name", list(BALLS))
def test_gram_ledger_matches_iso_ledger(ball_name):
    ball = _ball(ball_name)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        drawn = [make(ball, rng) for make in CONVEX_COEFFICIENTS
                 for _ in range(3)]
        modes = drawn[0][0]
        led = modes.ledger(np.array([c for _, c, _ in drawn]))
        for row, (_, c, basepoint) in enumerate(drawn):
            curve = modes.curve(ball, c, basepoint)
            want = iso_ledger(curve)
            s = want.scale
            for name, value in want.to_dict().items():
                assert abs(led[name][row] - value) <= 1e-12 * s, name
            assert abs(led["scale"][row] - s) <= 1e-12 * s
            assert abs(led["minkowski_gap"][row] - minkowski_gap(curve)) \
                <= 1e-12 * want.dual_length ** 2


@pytest.mark.parametrize("ball_name", list(BALLS))
def test_gram_orthogonality_matches_mixed_area(ball_name):
    ball = _ball(ball_name)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        for _ in range(3):
            modes, cs, bs = corpus.symmetric_zero_dual_coefficients(ball, rng)
            _, cw, bw = corpus.constant_width_zero_dual_coefficients(ball, rng)
            sym, cwc = modes.curve(ball, cs, bs), modes.curve(ball, cw, bw)
            scale = max(abs(signed_area(sym)), abs(signed_area(cwc)),
                        sym.diameter * cwc.diameter, 1e-12)
            Cs, Cw = cs[None], cw[None]
            assert abs(modes.areas(Cs, Cw)[0] - mixed_area(sym, cwc)) \
                <= 1e-12 * scale
            assert abs(modes.areas(Cs)[0] - signed_area(sym)) <= 1e-12 * scale
            assert modes.diameters(np.array([cs, cw])) == pytest.approx(
                [sym.diameter, cwc.diameter], rel=1e-12)


def _one_negative_sample(modes, c):
    """c with its constant mode lowered so that zero lies halfway between
    its two smallest radius samples, and how many samples turn negative."""
    r = modes.gram.samples @ c
    lo, nxt = np.sort(r)[:2]
    c = c.copy()
    c[0] -= 0.5 * (lo + nxt)
    return c, int(np.sum(modes.gram.samples @ c < 0.0))


@pytest.mark.parametrize("ball_name", list(BALLS))
def test_batched_convexity_matches_is_convex(ball_name):
    ball = _ball(ball_name)
    rng = np.random.default_rng(7)
    rows, single = [], 0
    for _ in range(4):
        modes, c, _ = corpus.convex_coefficients(ball, rng)
        dipped, negative = _one_negative_sample(modes, c)
        single += negative == 1
        rows += [c, -c, dipped, np.zeros_like(c),
                 corpus.symmetric_zero_dual_coefficients(ball, rng)[1]]
    assert single, "no radius turned negative at a single sample"
    signs = modes.convexity(np.array(rows))
    for c, sign in zip(rows, signs):
        want = is_convex(modes.curve(ball, c, (0.0, 0.0)))
        assert sign == want.sign
        assert (sign != 0) == want.convex
    assert set(signs.tolist()) == {-1, 0, 1}


@pytest.mark.parametrize("ball_name", list(BALLS))
def test_batched_closure_matches_not_closed(ball_name):
    ball = _ball(ball_name)
    modes, c, _ = corpus.convex_coefficients(ball, np.random.default_rng(8))
    # open the curve along the k = 1 cosine mode, to either side of the
    # tolerance 1e-8 max(diameter, ball diameter)
    unit = np.linalg.norm(modes.gaps[1])
    tol = 1e-8 * max(modes.diameters(c[None])[0], ball.diameter)
    rows = []
    for factor in (0.0, 0.5, 2.0, 1e4):
        opened = c.copy()
        opened[1] += factor * tol / unit
        rows.append(opened)
    verdicts = modes.closed(np.array(rows))
    assert verdicts.tolist() == [True, True, False, False]
    for opened, closed in zip(rows, verdicts):
        if closed:
            modes.curve(ball, opened, (0.3, -0.2))
        else:
            with pytest.raises(NotClosed):
                modes.curve(ball, opened, (0.3, -0.2))


def test_the_injected_bug_still_breaks_the_identity():
    report = run_corpus(1, 8, inject_bug="cwms-sign")
    assert any(v["check"] == "identity" for v in report["violations"])
    assert not any(v["check"] == "oracle" for v in report["violations"])


def test_the_oracle_sees_a_wrong_gram_matrix(monkeypatch):
    assert run_corpus(3, 8)["violations"] == []
    stack = corpus._stack(corpus_balls())
    G = stack.gram.G.copy()
    G[:, 0, 0] += 1e-6
    monkeypatch.setattr(stack, "gram", stack.gram._replace(G=G))
    report = run_corpus(3, 8)
    oracle = [v for v in report["violations"] if v["check"] == "oracle"]
    assert oracle and all(v["instance"] == 3 for v in oracle)
    assert "curve_area" in {v["quantity"] for v in oracle}


def test_distributions_name_the_worst_instances():
    seed, n = 5, 24
    report = run_corpus(seed, n)
    assert report["violations"] == []
    balls = corpus_balls()
    rng = np.random.default_rng(seed)
    curves = [random_convex_curve(balls[i % 4], rng) for i in range(n)]
    leds = [iso_ledger(curve) for curve in curves]
    mg = [minkowski_gap(curve) / max(led.dual_length ** 2,
                                     4.0 * abs(led.curve_area)
                                     * led.ball_area)
          for curve, led in zip(curves, leds)]
    pairs = [(random_symmetric_zero_dual(balls[j % 4], rng),
              random_constant_width_zero_dual(balls[j % 4], rng))
             for j in range(n // 4)]
    orth = [abs(mixed_area(s, c)) / max(abs(signed_area(s)),
                                        abs(signed_area(c)),
                                        s.diameter * c.diameter)
            for s, c in pairs]
    measures = {
        "identity": ([abs(led.identity_residual) / led.lhs for led in leds],
                     "max"),
        "minkowski_gap": (mg, "min"),
        "orthogonality": (orth, "max"),
        **{gap: ([getattr(led, gap) / led.scale for led in leds], "min")
           for gap in ("gap_sym", "gap_cw", "gap_busemann")},
    }
    for b, name in enumerate(CORPUS_BALL_NAMES):
        dist = report["distributions"][name]
        assert set(dist) >= set(measures)
        for check, (values, kind) in measures.items():
            own = values[b::4]
            best = max(own) if kind == "max" else min(own)
            worst = dist[check]["worst"]
            # the worst instance is a worst one to within the oracle's
            # tolerance, and its value is the node table's
            assert worst % 4 == b
            assert abs(values[worst] - best) <= 1e-12, check
            assert abs(dist[check][kind] - values[worst]) <= 1e-12, check
        assert dist["identity"]["p99"] <= dist["identity"]["max"]
    assert report["distributions"][CORPUS_BALL_NAMES[seed % n % 4]][
        "oracle"]["worst"] == seed % n


def test_p99_is_numpys_linear_percentile():
    rng = np.random.default_rng(9)
    for size in range(1, 40):
        x = rng.normal(size=size)
        assert corpus._p99(x) == pytest.approx(np.percentile(x, 99),
                                               rel=1e-14, abs=1e-15)


# -- run_corpus in blocks of curves -------------------------------------------

NB = len(CORPUS_BALL_NAMES)


def _assert_same_report(got, want):
    """The same violations and worst instances, distribution values
    within 1e-15.  Products over blocks of other sizes may round otherwise
    in the last bit, so a violation's values agree to 1e-14 of the largest
    of them (an identity residual is a difference of areas near lhs)."""
    assert len(got["violations"]) == len(want["violations"])
    for g, w in zip(got["violations"], want["violations"]):
        assert g.keys() == w.keys()
        scale = max(abs(v) for v in w.values() if isinstance(v, float))
        for key, value in w.items():
            if isinstance(value, float):
                assert abs(g[key] - value) <= 1e-14 * scale, key
            else:
                assert g[key] == value, key
    assert got["distributions"].keys() == want["distributions"].keys()
    for ball, checks in want["distributions"].items():
        assert got["distributions"][ball].keys() == checks.keys()
        for check, d in checks.items():
            e = got["distributions"][ball][check]
            assert e.keys() == d.keys()
            assert e["worst"] == d["worst"], (ball, check)
            for key in d.keys() - {"worst"}:
                assert abs(e[key] - d[key]) <= 1e-15, (ball, check, key)


@pytest.mark.parametrize("n", [13, 50])
def test_blocks_of_eight_give_the_one_block_report(monkeypatch, n):
    # 13 and 50 curves end on a ragged block; 50 curves make 12 pairs, two
    # pair blocks
    want = [run_corpus(seed, n, inject_bug=bug)
            for seed in (4, 9) for bug in (None, "cwms-sign")]
    monkeypatch.setattr(corpus, "_BLOCK", 8)
    got = [run_corpus(seed, n, inject_bug=bug)
           for seed in (4, 9) for bug in (None, "cwms-sign")]
    for g, w in zip(got, want):
        _assert_same_report(g, w)
    assert want[1]["violations"]


def test_closure_outranks_convexity_across_blocks(monkeypatch):
    # curve 2 of block 0 is not convex (its radius negated, still closed);
    # curve 5 of block 3, instance 29, does not close
    monkeypatch.setattr(corpus, "_BLOCK", 8)
    coefficients = corpus._coefficients

    def broken(blocks, open_it):
        def draw(forms, rng, count, kinds, n_modes):
            out = coefficients(forms, rng, count, kinds, n_modes)
            if kinds == ("convex",):
                C = out[0][0]
                if not blocks:
                    C[divmod(2, NB)] *= -1.0
                if len(blocks) == 3 and open_it:
                    C[divmod(5, NB)][1] += 1.0
                blocks.append(count)
            return out
        return draw

    monkeypatch.setattr(corpus, "_coefficients", broken([], False))
    with pytest.raises(NotConvexInput, match=r"corpus curve 2\)"):
        run_corpus(2, 40)
    monkeypatch.setattr(corpus, "_coefficients", broken([], True))
    with pytest.raises(NotClosed, match="corpus curve 29 does"):
        run_corpus(2, 40)


def test_memory_stays_flat_over_blocks():
    block = corpus._BLOCK
    run_corpus(0, 12)     # the corpus balls' forms are built once
    peaks = []
    # n // 4 pairs: from 4 blocks of curves on, both runs fill a pair block,
    # whose products are a fixed cost per block
    for n in (4 * block, 8 * block):
        tracemalloc.start()
        try:
            run_corpus(1, n)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]


def test_worst_is_the_lowest_instance_tied_with_the_extreme():
    # 12 curves and 12 pairs: instance i on ball i % 4; every check of ball 0
    # is roundoff but for one instance, every check of ball 1 has a clear
    # extreme at instance 5 and a near one at 9
    scalars = np.full((6, 12), 0.5)
    scalars[0, [0, 4, 8]] = [3e-16, 1e-16, 5e-16]
    scalars[1:5, [0, 4, 8]] = [0.0, -2e-16, 1e-16]
    scalars[5, [0, 4, 8]] = [1e-18, 4e-17, 2e-17]
    scalars[0, [1, 5, 9]] = scalars[5, [1, 5, 9]] = [0.1, 0.7, 0.7 - 5e-14]
    scalars[1:5, [1, 5, 9]] = [0.3, 0.2, 0.2 + 2e-13]
    dist = corpus._distributions(scalars * corpus._WORSE[:, None], [12] * 6,
                                 None)
    for check, d in dist["euclidean"].items():
        kind = "max" if check in ("identity", "orthogonality") else "min"
        assert d["worst"] == 0, check
        assert d[kind] == {"max": max, "min": min}[kind](scalars[
            list(corpus._CHECKS).index(check), [0, 4, 8]])
    for check, d in dist["square"].items():
        assert d["worst"] == 5, check
    assert dist["square"]["identity"]["max"] == 0.7
    assert dist["square"]["gap_sym"]["min"] == 0.2


def test_distributions_do_not_copy_the_values():
    # the final reduction reads the oriented values where the blocks wrote
    # them: its peak stays below the size of those values
    n = 4 * 10 ** 4
    worse = np.random.default_rng(5).normal(size=(6, n)) * 1e-12
    tracemalloc.start()
    try:
        dist = corpus._distributions(worse, [n] * 5 + [n // 4], None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(dist) == set(corpus.CORPUS_BALL_NAMES)
    assert peak < worse.nbytes


@pytest.mark.parametrize("args, kwargs, named", [
    ((1, -3), {}, "n"),
    ((-1, 2), {}, "seed"),
    ((1, 4), {"orthogonality_pairs": -1}, "orthogonality_pairs"),
], ids=["negative_n", "negative_seed", "negative_pairs"])
def test_negative_arguments_are_invalid(args, kwargs, named):
    with pytest.raises(ValidationError, match=f"^{named} must be "
                       "non-negative"):
        run_corpus(*args, **kwargs)


def test_no_curves_is_an_empty_report():
    report = run_corpus(1, 0)
    assert report["curves_checked"] == 0
    assert report["orthogonality_pairs"] == 0
    assert report["violations"] == []
    assert run_corpus(0, 0, orthogonality_pairs=0)["violations"] == []
