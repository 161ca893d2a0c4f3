"""run_corpus's one array pass: the corpus balls' ModeStack against each
ball's own Modes, pad curves kept out of the report, the batch draws
against the one-curve generators' scalar draws, the generators' names, and
each ball's mode table and Gram forms against one node table per mode."""

import pickle

import numpy as np
import pytest

from normplane import corpus
from normplane.corpus import CORPUS_BALL_NAMES, corpus_balls, run_corpus
from normplane.curve import NodeTable
from normplane.errors import NotClosed
from normplane.modes import ModeStack

NB = len(CORPUS_BALL_NAMES)
PAIRS = ("symmetric_zero_dual", "constant_width_zero_dual")


def stack():
    return ModeStack(corpus_balls(), 4)


def draw(forms, seed, n, n_pairs=3):
    rng = np.random.default_rng(seed)
    [(C, _)] = corpus._coefficients(forms, rng, n, ("convex",), 4)
    [(Cs, _), (Cw, _)] = corpus._coefficients(forms, rng, n_pairs, PAIRS, 2)
    return C, Cs, Cw


@pytest.mark.parametrize("n", [1, 2, 13])
def test_stacked_pass_matches_each_balls_modes(n):
    forms = stack()
    C, Cs, Cw = draw(forms, 11, n)
    assert C.shape == (-(-n // NB), NB, 9) and Cs.shape == (1, NB, 9)
    led = forms.ledger(C)
    closed, signs = forms.closed(C), forms.convexity(C)
    diameters = forms.diameters(C)
    for i in range(n):
        row, b = divmod(i, NB)
        modes, c = forms.members[b], C[row, b][None]
        want = modes.ledger(c)
        for name, value in want.items():
            scale = want["minkowski_scale" if name.startswith("minkowski")
                         else "scale"][0]
            assert abs(led[name][row, b] - value[0]) <= 1e-13 * scale, name
        assert closed[row, b] == modes.closed(c)[0]
        assert signs[row, b] == modes.convexity(c)[0] == 1
        assert abs(diameters[row, b] - modes.diameters(c)[0]) \
            <= 1e-13 * diameters[row, b]
    mixed = forms.areas(Cs, Cw)
    for b in range(3):
        cs, cw = Cs[0, b][None], Cw[0, b][None]
        modes = forms.members[b]
        scale = modes.diameters(cs)[0] * modes.diameters(cw)[0]
        assert abs(mixed[0, b] - modes.areas(cs, cw)[0]) <= 1e-13 * scale
        assert forms.closed(Cs)[0, b] == modes.closed(cs)[0]


def _poisoned(monkeypatch, fill):
    """Make run_corpus's pad curves fill(kind, C) wherever they are."""
    coefficients = corpus._coefficients

    def poisoned(forms, rng, count, kinds, n_modes):
        out = coefficients(forms, rng, count, kinds, n_modes)
        for kind, (C, _) in zip(kinds, out):
            C.reshape(-1, C.shape[-1])[count:] = fill(kind, C)
        return out

    monkeypatch.setattr(corpus, "_coefficients", poisoned)


@pytest.mark.parametrize("seed", [0, 5])
def test_pad_curves_reach_no_report(monkeypatch, seed):
    # 13 curves and 3 pairs leave pads on three balls; a pad curve of
    # radius -1 is not convex, and pad pairs (1, 1) are not orthogonal
    want = run_corpus(seed, 13)
    constant = np.eye(9)[0]
    _poisoned(monkeypatch, lambda kind, C: -constant if kind == "convex"
              else constant)
    got = run_corpus(seed, 13)
    assert got["violations"] == want["violations"] == []
    assert got["distributions"] == want["distributions"]
    for checks in got["distributions"].values():
        for check, d in checks.items():
            assert d["worst"] < (3 if check == "orthogonality" else 13)


def test_a_closure_failure_names_the_lowest_failing_curve(monkeypatch):
    # curves 6 and 9 open; 9 is on ball 1, which a ball-by-ball check
    # would reach before ball 2 of curve 6
    coefficients = corpus._coefficients

    def opened(forms, rng, count, kinds, n_modes):
        out = coefficients(forms, rng, count, kinds, n_modes)
        if kinds == ("convex",):
            for i in (9, 6):
                out[0][0][divmod(i, NB)][1] += 1.0
        return out

    monkeypatch.setattr(corpus, "_coefficients", opened)
    with pytest.raises(NotClosed, match="corpus curve 6 does"):
        run_corpus(2, 12)


def _scalar_convex(rng, n_modes=4):
    """The normals and the basepoint of one convex curve drawn as the
    one-curve generator always drew them."""
    terms = [(rng.normal(scale=1.0 / k), rng.normal(scale=1.0 / k))
             for k in range(1, n_modes + 1)]
    rng.uniform(0.3, 1.0)
    return np.ravel(terms), rng.uniform(-1.0, 1.0, size=2)


def _scalar_pair(rng):
    out = []
    for _ in PAIRS:
        out += [np.array([rng.normal() for _ in range(4)]),
                rng.uniform(-1.0, 1.0, size=2)]
    return out


@pytest.mark.parametrize("n", [1, 8, 13])
def test_the_batch_keeps_the_scalar_stream(n):
    forms = stack()
    for seed in range(5):
        batch, scalar = (np.random.default_rng(seed) for _ in range(2))
        [(C, B)] = corpus._coefficients(forms, batch, n, ("convex",), 4)
        [(Cs, Bs), (Cw, Bw)] = corpus._coefficients(forms, batch, 2, PAIRS,
                                                     2)
        for i in range(n):
            z, basepoint = _scalar_convex(scalar)
            at = divmod(i, NB)
            # closing and lifting touch only modes 0 and 1
            assert np.array_equal(C[at][3:], z[2:])
            assert np.array_equal(B[at], basepoint)
        for j in range(2):
            zs, bs, zw, bw = _scalar_pair(scalar)
            assert np.array_equal(Cs[0, j][[3, 4, 7, 8]], zs)
            assert np.array_equal(Cw[0, j][5:7], zw[2:])
            assert np.array_equal(Bs[0, j], bs)
            assert np.array_equal(Bw[0, j], bw)
        assert batch.random() == scalar.random()


@pytest.mark.parametrize("name", [
    "convex_coefficients", "random_convex_curve",
    "symmetric_convex_coefficients", "random_symmetric_convex_curve",
    "constant_width_convex_coefficients",
    "random_constant_width_convex_curve",
    "symmetric_zero_dual_coefficients", "random_symmetric_zero_dual",
    "constant_width_zero_dual_coefficients",
    "random_constant_width_zero_dual"])
def test_the_generators_pickle_by_name(name):
    # worker processes receive functions by import path
    fn = getattr(corpus, name)
    assert fn.__qualname__ == name
    assert pickle.loads(pickle.dumps(fn)) is fn


def _gram_per_mode(modes):
    """The Gram forms with one node table per mode, each from the origin:
    the reference that Modes.gram's one stacked table replaces."""
    frame, m = modes.frame, modes.nodes.shape[-1]
    P = len(frame.lo)
    knots = np.empty((m, P + frame.t.size, 2))
    samples = np.empty((P * (frame.n + 2), m))
    for k in range(m):
        table = NodeTable(frame, modes.nodes[..., k], np.zeros(2))
        knots[k] = table.knots()
        samples[:, k] = table.radius_samples()
    gamma = knots[:, P:].reshape((m,) + frame.du.shape)
    wdu = frame.weights[..., None] * frame.du
    Q = 0.5 * (np.einsum("jpn,pn,pnk->jk", gamma[..., 0], wdu[..., 1],
                         modes.nodes)
               - np.einsum("jpn,pn,pnk->jk", gamma[..., 1], wdu[..., 0],
                           modes.nodes))
    return 0.5 * (Q + Q.T), samples, knots


@pytest.mark.parametrize("b", range(NB), ids=CORPUS_BALL_NAMES)
def test_gram_matches_one_table_per_mode(b):
    modes = stack().members[b]
    G, samples, knots = _gram_per_mode(modes)
    np.testing.assert_array_equal(modes.gram.samples, samples)
    np.testing.assert_array_equal(modes.gram.knots, knots)
    assert np.abs(modes.gram.G - G).max() <= 1e-15 * np.abs(G).max()


@pytest.mark.parametrize("b", range(NB), ids=CORPUS_BALL_NAMES)
def test_mode_table_rows_sum_as_one_row_curves(b):
    """The constant mode's L* is the ball's 2 A(U) bit for bit, both one
    row's sum of [u, u'], and each mode's closure gap is that of its own
    one-row table."""
    modes = stack().members[b]
    assert modes.duals[0] == 2.0 * modes.area
    for k in range(modes.nodes.shape[-1]):
        one = NodeTable(modes.frame, modes.nodes[..., k], np.zeros(2))
        np.testing.assert_array_equal(modes.gaps[k], one.gap)
        assert modes.duals[k] == one.dual_length
