"""What a process keeps per ball: one UnitBall per pieces document, and
the drawing grid of `normplane decompose`, built on first use."""

import json
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from normplane import builtin_ball, cli, curve_from_radius, decompose, jsonio
from normplane.ball import DrawingGrid, Piece, _built, build_ball
from normplane.errors import NotConvex, ValidationError

from conftest import EXAMPLE22_RADII

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


def _ball_doc(pieces):
    return {"pieces": pieces, "auto_symmetrize": True}


def _moved(pieces, i, key, value):
    """pieces with field key of piece i set to value."""
    out = [dict(p) for p in pieces]
    out[i][key] = value
    return out


@pytest.fixture
def no_pieces_balls(monkeypatch):
    """An empty cache of pieces documents' balls for the test."""
    monkeypatch.setattr(jsonio, "_BALLS", {})


class TestOneBallPerDocument:
    def test_an_equal_document_gives_the_same_ball(self, no_pieces_balls):
        ball = jsonio.ball_from_doc(_ball_doc(HALF_MIXED))
        again = jsonio.ball_from_doc(json.loads(json.dumps(
            _ball_doc(HALF_MIXED))))
        assert again is ball
        # integers and the floats they equal are the same field
        floats = [{k: [float(x) for x in v] if k in ("p0", "p1")
                   else float(v) if k in ("t0", "t1") else v
                   for k, v in p.items()} for p in HALF_MIXED]
        assert jsonio.ball_from_doc(_ball_doc(floats)) is ball

    def test_curves_on_one_document_share_the_ball_and_its_frames(
            self, no_pieces_balls):
        docs = [{"ball": _ball_doc(HALF_MIXED), "basepoint": base,
                 "radius": EXAMPLE22_RADII} for base in ([2, 1], [-1, 3])]
        c1, c2 = map(jsonio.curve_from_doc, docs)
        assert c1.ball is c2.ball
        assert c1.table().frame is c2.table().frame

    @pytest.mark.parametrize("i, key, value", [
        (0, "p0", [1, -1 + 2.0 ** -52]),    # one ulp in one coordinate
        (1, "t1", 2.5),
        (1, "x", "cos(pi/2*(t))"),
    ], ids=["one_ulp", "t1", "text"])
    def test_a_changed_field_gives_another_ball(self, no_pieces_balls, i,
                                                key, value):
        pieces = HALF_SQUARE if key != "x" else HALF_MIXED
        ball = jsonio.ball_from_doc(_ball_doc(pieces))
        other = jsonio.ball_from_doc(_ball_doc(_moved(pieces, i, key,
                                                      value)))
        assert other is not ball
        assert jsonio.ball_from_doc(_ball_doc(pieces)) is ball

    def test_negative_zero_is_not_zero(self, no_pieces_balls):
        ball = jsonio.ball_from_doc(_ball_doc(HALF_MIXED))
        signed = _moved(HALF_MIXED, 0, "p0", [1, -0.0])
        other = jsonio.ball_from_doc(_ball_doc(signed))
        assert other is not ball
        assert jsonio.ball_from_doc(_ball_doc(signed)) is other
        assert np.signbit(other.p0[0, 1]) and not np.signbit(ball.p0[0, 1])

    def test_auto_symmetrize_is_part_of_the_key(self, no_pieces_balls):
        full = HALF_SQUARE + [
            {"kind": "segment", "p0": [-1, 1], "p1": [-1, -1], "t0": 2,
             "t1": 3},
            {"kind": "segment", "p0": [-1, -1], "p1": [1, -1], "t0": 3,
             "t1": 4}]
        ball = jsonio.ball_from_doc({"pieces": full})
        assert jsonio.ball_from_doc({"pieces": full,
                                     "auto_symmetrize": False}) is ball
        assert jsonio.ball_from_doc(_ball_doc(full[:2])) is not ball

    def test_an_invalid_document_raises_on_every_call(self, no_pieces_balls):
        for _ in range(3):
            with pytest.raises(NotConvex):
                jsonio.ball_from_doc(_ball_doc(HALF_DENTED))
        assert jsonio._BALLS == {}

    def test_the_first_fault_in_piece_order_is_reported(self,
                                                        no_pieces_balls):
        # piece 0's interval is empty and piece 1 has no kind
        doc = _ball_doc([{**HALF_SQUARE[0], "t1": 0}, {"p0": [1, 1]}])
        for _ in range(2):
            with pytest.raises(ValidationError, match="is empty"):
                jsonio.ball_from_doc(doc)

    def test_sixteen_documents_are_kept(self, no_pieces_balls):
        def doc(k):
            return _ball_doc(_moved(HALF_SQUARE, 1, "t1", 2.0 + k))

        first = jsonio.ball_from_doc(doc(0))
        balls = [jsonio.ball_from_doc(doc(k)) for k in range(1, 16)]
        assert len(jsonio._BALLS) == 16
        # a hit makes doc(0) the most recently used, so doc(1) goes next
        assert jsonio.ball_from_doc(doc(0)) is first
        jsonio.ball_from_doc(doc(16))
        assert len(jsonio._BALLS) == 16
        assert jsonio.ball_from_doc(doc(0)) is first
        assert jsonio.ball_from_doc(doc(1)) is not balls[0]
        assert jsonio.ball_from_doc(doc(3)) is balls[2]
        assert len(jsonio._BALLS) == 16


WAVY = ["1.3+0.4*cos(pi*t)"]
# curves on the four builtin balls and two pieces balls, with 3-node frames
# (numbers on polygonal balls) and 32-node frames
CURVES = {
    "euclidean": lambda: curve_from_radius(builtin_ball("euclidean"),
                                           WAVY * 4),
    "mixed": lambda: curve_from_radius(builtin_ball("mixed_example21"),
                                       EXAMPLE22_RADII, basepoint=(2, 1)),
    "square_numbers": lambda: curve_from_radius(
        builtin_ball("square"), [0.6, 1.7] * 2, basepoint=(1.7, -0.6)),
    "square_text": lambda: curve_from_radius(builtin_ball("square"),
                                             WAVY * 4),
    "gon_numbers": lambda: curve_from_radius(
        builtin_ball("regular_2k_gon", k=4), [1.5] * 8),
    "gon_text": lambda: curve_from_radius(
        builtin_ball("regular_2k_gon", k=4), ["1.2+0.1*cos(2*pi*t)"] * 8),
    "pieces_square_numbers": lambda: curve_from_radius(
        jsonio.ball_from_doc(_ball_doc(HALF_SQUARE)), [0.6, 1.7] * 2,
        basepoint=(1.7, -0.6)),
    "pieces_mixed": lambda: curve_from_radius(
        jsonio.ball_from_doc(_ball_doc(HALF_MIXED)), EXAMPLE22_RADII,
        basepoint=(2, 1)),
}


def _grid_params(ball):
    return np.linspace(ball.t_start, ball.t_start + 2 * ball.T, 512,
                       endpoint=False)


class TestDrawingGrid:
    def test_nothing_is_built_with_a_ball_or_by_analyze(self, tmp_path,
                                                        no_pieces_balls):
        fresh = _built.__wrapped__("mixed_example21", ())
        assert fresh.area > 0
        assert "drawing_grid" not in vars(fresh)
        assert all("drawing_basis" not in vars(f)
                   for f in fresh._frames.values())

        ball_doc = _ball_doc(HALF_MIXED)
        path = tmp_path / "curve.json"
        path.write_text(json.dumps({"ball": ball_doc, "basepoint": [2, 1],
                                    "radius": EXAMPLE22_RADII}))
        runner = CliRunner()
        res = runner.invoke(cli.main, ["analyze", "--curve", str(path)])
        assert res.exit_code == 0
        ball = jsonio.ball_from_doc(ball_doc)
        assert ball._frames
        assert "drawing_grid" not in vars(ball)
        assert all("drawing_basis" not in vars(f)
                   for f in ball._frames.values())

        res = runner.invoke(cli.main, ["decompose", "--curve", str(path),
                                       "--out", str(tmp_path / "dec"),
                                       "--svg"])
        assert res.exit_code == 0
        assert {"u", "dual"} <= set(vars(ball.drawing_grid))
        drawn = [f for f in ball._frames.values()
                 if "drawing_basis" in vars(f)]
        assert drawn == [jsonio.load_curve(str(path)).table().frame]

    @pytest.mark.parametrize("make", [
        lambda: builtin_ball("euclidean"), lambda: builtin_ball("square"),
        lambda: builtin_ball("regular_2k_gon", k=5),
        lambda: builtin_ball("mixed_example21"),
        lambda: build_ball([Piece.arc(
            "cos(pi/2*t)", "sin(pi/2*t)", 0, 2)], auto_symmetrize=True)],
        ids=["euclidean", "square", "gon", "mixed", "half_circle"])
    def test_the_ball_layers_are_point_and_dual(self, make):
        ball = make()
        grid = ball.drawing_grid
        assert grid is ball.drawing_grid
        ts = _grid_params(ball)
        assert np.array_equal(grid.t, ts)
        assert np.array_equal(grid.reduced, ball.reduce(ts))
        assert np.array_equal(grid.u, ball.point(ts))
        assert np.array_equal(grid.dual, ball.dual(ts + 1e-6))
        assert (grid.SIZE, grid.REPORTED, grid.DUAL_STEP) == (512, 128, 1e-6)
        for a in (grid.t, grid.reduced, grid.u, grid.dual):
            assert not a.flags.writeable

    @pytest.mark.parametrize("name", CURVES)
    def test_the_basis_reads_the_series_bit_for_bit(self, name):
        curve = CURVES[name]()
        ball = curve.ball
        ts = ball.reduce(_grid_params(ball))
        dec = decompose(curve)
        assert dec.table.frame.n == (3 if name.endswith("numbers") else 32)
        for table in (curve.table(), dec.table):
            full = table.drawn(DrawingGrid.SIZE)
            assert np.array_equal(full, table.points(ts))
            head = table.drawn(DrawingGrid.REPORTED)
            assert np.array_equal(head, table.points(ts[:128]))
            assert np.array_equal(head, full[..., :128, :])
        t, p, V = dec.table.frame.drawing_basis
        assert V.shape == (512, dec.table.frame.n + 1)
        assert p is dec.table.frame.drawing_basis[1]
        assert not (p.flags.writeable or V.flags.writeable)


def _decompose_bytes(run, curve_path, out, svg=True):
    """stdout, decomposition.json and decomposition.svg of one run."""
    stdout = run("decompose", "--curve", curve_path, "--out", str(out),
                 *(["--svg"] if svg else []))
    return [stdout] + [(out / name).read_bytes() if (out / name).exists()
                       else None
                       for name in ("decomposition.json",
                                    "decomposition.svg")]


@pytest.mark.parametrize("doc", [
    {"ball": _ball_doc(HALF_MIXED), "basepoint": [2, 1],
     "radius": EXAMPLE22_RADII},
    {"ball": "square", "basepoint": [1.7, -0.6], "radius": [0.6, 1.7] * 2},
], ids=["pieces_example22", "rectangle"])
def test_repeated_runs_in_process_match_a_fresh_process(tmp_path, doc):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "dec"
    runner = CliRunner()

    def in_process(*args):
        res = runner.invoke(cli.main, list(args))
        assert res.exit_code == 0, res.stderr
        return res.stdout

    def fresh(*args):
        res = subprocess.run([sys.executable, "-m", "normplane.cli", *args],
                             capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        return res.stdout

    want = _decompose_bytes(fresh, str(path), out)
    assert want[2] is not None
    for _ in range(2):
        assert _decompose_bytes(in_process, str(path), out) == want
    # the report alone keeps the first rows of the same grid
    (out / "decomposition.svg").unlink()
    plain = _decompose_bytes(in_process, str(path), out, svg=False)
    assert plain == ["", want[1], None]
