"""End-to-end exercises of the installed ``normplane`` console script."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import normplane
from normplane import decompose, jsonio

from conftest import EXAMPLE22_EXPLICIT, EXAMPLE22_RADII

EXAMPLE22_DOC = {
    "ball": "mixed_example21",
    "basepoint": [2, 1],
    "radius": [{"piece": i, "expr": e} for i, e in enumerate(EXAMPLE22_RADII)],
}


# the directory normplane is imported from, so a run in another cwd finds
# the same package
SRC = os.path.dirname(os.path.dirname(os.path.abspath(normplane.__file__)))


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "normplane.cli", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path})


def write_doc(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidate:
    def test_builtin_ball_ok(self, tmp_path):
        p = write_doc(tmp_path / "ball.json", {"builtin": "mixed_example21"})
        res = run_cli("validate", "--ball", p)
        assert res.returncode == 0
        assert res.stdout.strip() == "ok"

    def test_asymmetric_ball_rejected(self, tmp_path):
        doc = {"pieces": [
            {"kind": "segment", "p0": [1, -1], "p1": [1, 1],
             "t0": 0, "t1": 1},
            {"kind": "segment", "p0": [1, 1], "p1": [-1, 1],
             "t0": 1, "t1": 2},
            {"kind": "segment", "p0": [-1, 1], "p1": [-1, -1],
             "t0": 2, "t1": 3},
            {"kind": "segment", "p0": [-1, -1], "p1": [1.2, -1],
             "t0": 3, "t1": 4},
        ]}
        p = write_doc(tmp_path / "bad_ball.json", doc)
        res = run_cli("validate", "--ball", p)
        assert res.returncode == 1
        diag = json.loads(res.stderr.splitlines()[-1])
        assert diag["error"] in ("NotSymmetric", "NotClosed")

    def test_non_closing_curve_rejected(self, tmp_path):
        doc = {"ball": "euclidean", "radius": ["1+0.5*cos(pi/2*t)"] * 4}
        p = write_doc(tmp_path / "open_curve.json", doc)
        res = run_cli("validate", "--curve", p)
        assert res.returncode == 1
        diag = json.loads(res.stderr.splitlines()[-1])
        assert diag["error"] == "NotClosed"

    def test_usage_error_without_arguments(self):
        res = run_cli("validate")
        assert res.returncode == 1

    @pytest.mark.parametrize("ball", [
        {"builtin": "regular_2k_gon", "k": "x"},
        {"builtin": "regular_2k_gon", "k": [3]},
        {"builtin": "regular_2k_gon", "k": 2.7},
        {"builtin": "regular_2k_gon", "k": 1e12},
        {"builtin": "euclidean", "k": 3},
    ])
    def test_bad_builtin_parameter_is_invalid_input(self, tmp_path, ball):
        p = write_doc(tmp_path / "curve.json",
                      {"ball": ball, "radius": [1] * 6})
        res = run_cli("validate", "--curve", p)
        assert res.returncode == 1
        diag = json.loads(res.stderr.splitlines()[-1])
        assert diag["error"] == "ValidationError"
        assert "'k'" in diag["detail"]

    @pytest.mark.parametrize("entries, detail", [
        ([{"piece": -1, "expr": "1"}] + [1] * 3,
         "radius entry 0: piece -1 is not one of the ball's 4 pieces"),
        ([1, 1, 1, {"piece": 7, "expr": "1"}],
         "radius entry 3: piece 7 is not one of the ball's 4 pieces"),
        ([1, 1, {"piece": 1, "expr": "1"}, 1],
         "radius entry 2: piece 1 given twice"),
    ], ids=["negative", "past_the_last", "twice"])
    def test_bad_radius_piece_is_invalid_input(self, tmp_path, entries,
                                               detail):
        p = write_doc(tmp_path / "curve.json",
                      {"ball": "euclidean", "radius": entries})
        res = run_cli("validate", "--curve", p)
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1]) == {
            "error": "ValidationError", "detail": detail}

    def test_overflowing_arc_is_a_domain_error(self, tmp_path):
        # 10^400 overflows while the derivative folds its constants
        p = write_doc(tmp_path / "ball.json", {
            "auto_symmetrize": True, "pieces": [
                {"kind": "arc", "x": "10^400*cos(pi/2*t)/10^400",
                 "y": "sin(pi/2*t)", "t0": 0, "t1": 1},
                {"kind": "arc", "x": "cos(pi/2*t)", "y": "sin(pi/2*t)",
                 "t0": 1, "t1": 2}]})
        res = run_cli("validate", "--ball", p)
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1])["error"] == \
            "DomainError"

    @pytest.mark.parametrize("pieces, detail", [
        ([{"kind": "segment", "p0": [1, -1], "p1": [1, 1], "t0": 0, "t1": 1},
          {"kind": "segment", "p0": [1, 1], "t0": 1, "t1": 2}],
         "ball piece 1 has no 'p1'"),
        ([1, 2], "ball piece 0 has no 'kind'"),
    ], ids=["segment_without_p1", "piece_not_an_object"])
    def test_piece_without_a_key_is_invalid_input(self, tmp_path, pieces,
                                                  detail):
        p = write_doc(tmp_path / "ball.json",
                      {"auto_symmetrize": True, "pieces": pieces})
        res = run_cli("validate", "--ball", p)
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1]) == {
            "error": "ValidationError", "detail": detail}

    @pytest.mark.parametrize("doc, detail", [
        ({"ball": "euclidean", "radius": 5}, "curve: 'radius' is not a list"),
        ({"ball": "euclidean", "radius": [1] * 4, "basepoint": [1]},
         "curve 'basepoint' is not a pair [x, y]"),
        ({"ball": "euclidean", "radius": [1] * 4, "basepoint": [1, 2, 3]},
         "curve 'basepoint' is not a pair [x, y]"),
        ({"ball": "euclidean", "radius": [1] * 4, "basepoint": "ab"},
         "curve 'basepoint' is not an array of numbers"),
        ({"ball": 5, "radius": [1] * 4},
         "ball is neither a builtin name nor an object"),
        ({"ball": {"pieces": 5}, "radius": [1] * 4},
         "ball: 'pieces' is not a list"),
        ({"ball": "euclidean", "explicit": 5},
         "curve: 'explicit' is not a list"),
        ({"ball": "euclidean", "explicit": [{"x": "cos(t)", "y": "sin(t)"}]},
         "need one explicit (x, y) pair per ball piece (4), got 1"),
    ], ids=["radius_not_a_list", "basepoint_of_one", "basepoint_of_three",
            "basepoint_a_string", "ball_a_number", "pieces_not_a_list",
            "explicit_not_a_list", "explicit_too_short"])
    def test_malformed_curve_is_invalid_input(self, tmp_path, doc, detail):
        p = write_doc(tmp_path / "curve.json", doc)
        res = run_cli("validate", "--curve", p)
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1]) == {
            "error": "ValidationError", "detail": detail}


HALF_SQUARE = [
    {"kind": "segment", "p0": [1, -1], "p1": [1, 1], "t0": 0, "t1": 1},
    {"kind": "segment", "p0": [1, 1], "p1": [-1, 1], "t0": 1, "t1": 2}]


def _half_square(**second):
    """The half square as a ball document, its second piece changed."""
    return {"auto_symmetrize": True,
            "pieces": [HALF_SQUARE[0], {**HALF_SQUARE[1], **second}]}


@pytest.mark.parametrize("option, doc, detail", [
    ("--curve", {"ball": "square", "radius": [[1], 1, 1, 1]},
     "radius entry 0 is not expression text or a real number"),
    ("--curve", {"ball": "square", "radius": [1, None, 1, 1]},
     "radius entry 1 is not expression text or a real number"),
    ("--curve", {"ball": "square", "radius": [True, 1, 1, 1]},
     "radius entry 0 is not expression text or a real number"),
    ("--curve", {"ball": "square",
                 "radius": [1, 1, {"piece": 2, "expr": False}, 1]},
     "radius entry 2: 'expr' is not expression text or a real number"),
    ("--ball", _half_square(t0="a"),
     "ball piece 1: 't0' is not a finite number"),
    ("--ball", {"pieces": [{**HALF_SQUARE[0], "t0": False}, HALF_SQUARE[1]],
                "auto_symmetrize": True},
     "ball piece 0: 't0' is not a finite number"),
    ("--ball", _half_square(p0=[1]),
     "ball piece 1: 'p0' is not a finite pair [x, y]"),
    ("--ball", _half_square(p1=["-1", "1"]),
     "ball piece 1: 'p1' is not a finite pair [x, y]"),
    ("--ball", _half_square(kind="arc", x=5, y="sin(pi/2*t)"),
     "ball piece 1: 'x' is not expression text"),
    ("--curve", {"ball": "mixed_example21", "basepoint": [2, 1],
                 "explicit": [{"x": x, "y": y}
                              for x, y in EXAMPLE22_EXPLICIT]},
     "curve has both 'explicit' and 'basepoint'; its first piece is its "
     "start"),
    ("--curve", {"ball": "euclidean",
                 "explicit": [{"x": 5, "y": "sin(pi/2*t)"}] * 4},
     "explicit entry 0: 'x' is not expression text"),
    ("--ball", {**_half_square(), "auto_symmetrize": "no"},
     "ball: 'auto_symmetrize' is not a boolean"),
    ("--ball", {**_half_square(), "auto_symmetrize": 1},
     "ball: 'auto_symmetrize' is not a boolean"),
    ("--curve", {"ball": "euclidean", "radius": [1] * 4,
                 "basepoint": [True, False]},
     "curve 'basepoint' is not a finite pair [x, y]"),
    ("--curve", {"ball": "euclidean", "radius": [1] * 4,
                 "basepoint": [float("nan"), 0]},
     "curve 'basepoint' is not a finite pair [x, y]"),
], ids=["radius_a_list", "radius_null", "radius_true", "expr_false",
        "t0_text", "t0_false", "p0_of_one", "p1_of_text", "arc_x_a_number",
        "explicit_with_basepoint", "explicit_x_a_number",
        "auto_symmetrize_text", "auto_symmetrize_one", "basepoint_of_bools",
        "basepoint_nan"])
def test_malformed_entry_is_invalid_input(tmp_path, option, doc, detail):
    """Each malformed value is a ValidationError naming its entry and key,
    not an internal error, a geometric failure or a silent default."""
    p = write_doc(tmp_path / "doc.json", doc)
    res = run_cli("validate", option, p)
    assert res.returncode == 1
    assert json.loads(res.stderr.splitlines()[-1]) == {
        "error": "ValidationError", "detail": detail}


def test_cli_import_leaves_the_corpus_out():
    code = ("import sys, normplane.cli; sys.exit(bool("
            "{'normplane.corpus', 'normplane.modes'} & set(sys.modules)))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_cli_import_leaves_the_network_and_mail_modules_out():
    # svg escapes its text itself: xml.sax.saxutils imports urllib.request,
    # which imports http.client, email and ssl
    code = ("import sys, normplane.cli; sys.exit(bool("
            "{'xml.sax', 'urllib.request', 'http.client', 'email', 'ssl'}"
            " & set(sys.modules)))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


class TestAnalyze:
    def test_example_values(self, tmp_path):
        p = write_doc(tmp_path / "curve.json", EXAMPLE22_DOC)
        res = run_cli("analyze", "--curve", p)
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["convex"]
        assert report["measures"]["dual_length"] == pytest.approx(
            13.58, abs=0.01)
        led = report["ledger"]
        assert led["ball_area"] == pytest.approx(np.pi / 2 + 1, abs=1e-9)
        assert led["wc_area"] == pytest.approx(-1.33, abs=0.02)
        assert led["cwms_area"] == pytest.approx(-0.48, abs=0.02)
        assert abs(led["identity_residual"]) < 1e-8 * led["lhs"]

    def test_rel_tol_sets_the_curves_rule(self, tmp_path):
        p = write_doc(tmp_path / "curve.json", EXAMPLE22_DOC)
        res = run_cli("analyze", "--curve", p, "--rel-tol", "1e-6")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        led = report["ledger"]
        assert abs(led["identity_residual"]) <= 1e-8 * led["lhs"]
        # the measures read the same table as the ledger
        assert report["measures"]["mean_width"] == pytest.approx(
            led["dual_length"] / led["ball_area"], rel=1e-11)

    # rel_tol below the chop test's roundoff (7e-13 at 64 nodes, 5e-15 at
    # the 3-node rule of numbers on segments) is met at that roundoff
    @pytest.mark.parametrize("doc, rel_tol", [
        ({"ball": "euclidean", "basepoint": [1, 0],
          "radius": ["1.3+0.6*cos(pi*t)"] * 4}, "1e-14"),
        ({"ball": "square", "basepoint": [2000, -1000],
          "radius": [1000, 2000, 1000, 2000]}, "1e-15"),
    ], ids=["circle", "rectangle_x1000"])
    def test_rel_tol_below_roundoff_converges(self, tmp_path, doc, rel_tol):
        p = write_doc(tmp_path / "curve.json", doc)
        fine = run_cli("analyze", "--curve", p, "--rel-tol", rel_tol)
        assert fine.returncode == 0, fine.stderr
        got = json.loads(fine.stdout)["ledger"]
        want = json.loads(run_cli("analyze", "--curve", p).stdout)["ledger"]
        scale = max(abs(want["lhs"]), abs(want["curve_area"]))
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-12 * scale, key

    def test_non_convex_curve_has_no_ledger(self, tmp_path):
        # closed, but its radius 1 + 3 cos(pi t) changes sign
        doc = {"ball": "euclidean", "basepoint": [1, 0],
               "radius": ["1+3*cos(pi*t)"] * 4}
        p = write_doc(tmp_path / "curve.json", doc)
        res = run_cli("analyze", "--curve", p)
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["convex"] is False
        assert "ledger" not in report
        assert report["measures"]["dual_length"] == pytest.approx(
            2 * np.pi, rel=1e-10)

    def test_long_sum_radius(self, tmp_path):
        # 250 terms: more than CPython's 200 nested parentheses, had every
        # operator been wrapped in them
        doc = {"ball": "euclidean", "basepoint": [1, 0],
               "radius": ["1" + "+0*t" * 250] * 4}
        res = run_cli("analyze", "--curve",
                      write_doc(tmp_path / "curve.json", doc))
        assert res.returncode == 0
        assert json.loads(res.stdout)["measures"]["dual_length"] == \
            pytest.approx(2 * np.pi, rel=1e-10)

    @pytest.mark.parametrize("doc, error", [
        ({"ball": "euclidean", "basepoint": [1, 0],
          "radius": ["(" * 300 + "1" + ")" * 300] * 4}, "ParseError"),
        ({"ball": "euclidean", "explicit": [
            {"x": "10^400*cos(pi/2*t)/10^400", "y": "sin(pi/2*t)"},
            *[{"x": "cos(pi/2*t)", "y": "sin(pi/2*t)"}] * 3]},
         "DomainError"),
    ], ids=["nested_300_deep", "overflowing_explicit"])
    def test_bad_expression_is_invalid_input(self, tmp_path, doc, error):
        res = run_cli("analyze", "--curve",
                      write_doc(tmp_path / "curve.json", doc))
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1])["error"] == error

    # inf and nan: a rule that is not positive and finite
    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    def test_non_positive_rel_tol_is_invalid_input(self, tmp_path, value):
        p = write_doc(tmp_path / "curve.json", EXAMPLE22_DOC)
        res = run_cli("analyze", "--curve", p, "--rel-tol", value)
        assert res.returncode == 1
        assert res.stdout == ""
        diag = json.loads(res.stderr.splitlines()[-1])
        assert diag["error"] == "ValidationError"
        assert "--rel-tol" in diag["detail"]

    def test_out_directory(self, tmp_path):
        p = write_doc(tmp_path / "curve.json", EXAMPLE22_DOC)
        out = tmp_path / "reports"
        res = run_cli("analyze", "--curve", p, "--out", str(out))
        assert res.returncode == 0
        report = json.loads((out / "analysis.json").read_text())
        assert "measures" in report


class TestDecompose:
    def test_report_and_svg(self, tmp_path):
        p = write_doc(tmp_path / "curve.json", EXAMPLE22_DOC)
        out = tmp_path / "dec"
        res = run_cli("decompose", "--curve", p, "--out", str(out), "--svg")
        assert res.returncode == 0
        report = json.loads((out / "decomposition.json").read_text())
        assert report["wc_area"] == pytest.approx(-1.33, abs=0.02)
        assert len(report["wc_samples"]) == 128
        svg_path = out / "decomposition.svg"
        root = ET.parse(svg_path).getroot()
        assert root.tag.endswith("svg")
        body = svg_path.read_text()
        assert "polyline" in body or "polygon" in body or "path" in body
        for label in ("WC", "CWMS", "unit ball"):
            assert label in body


    def test_svg_without_out_keeps_stdout_one_report(self, tmp_path):
        p = write_doc(tmp_path / "curve.json", EXAMPLE22_DOC)
        res = run_cli("decompose", "--curve", p, "--svg", cwd=tmp_path)
        assert res.returncode == 0
        assert json.loads(res.stdout)["wc_area"] == pytest.approx(
            -1.33, abs=0.02)
        assert res.stderr == "wrote decomposition.svg\n"
        assert (tmp_path / "decomposition.svg").read_text().endswith(
            "</svg>\n")

    @pytest.mark.parametrize("want_svg", [True, False])
    def test_samples_are_the_first_128_parameters(self, tmp_path, want_svg):
        p = write_doc(tmp_path / "curve.json", EXAMPLE22_DOC)
        out = tmp_path / "dec"
        res = run_cli("decompose", "--curve", p, "--out", str(out),
                      *(["--svg"] if want_svg else []))
        assert res.returncode == 0
        report = json.loads((out / "decomposition.json").read_text())
        assert (out / "decomposition.svg").exists() == want_svg
        curve = jsonio.load_curve(EXAMPLE22_DOC)
        dec = decompose(curve)
        ball = curve.ball
        ts = np.linspace(ball.t_start, ball.t_start + 2 * ball.T, 512,
                         endpoint=False)
        assert report["wc_samples"] == jsonio.clean(dec.wc.point(ts[:128]))
        assert report["cwms_samples"] == jsonio.clean(
            dec.cwms.point(ts[:128]))


class TestLhuilier:
    def test_triangle_report(self, tmp_path):
        p = write_doc(tmp_path / "tri.json",
                      {"vertices": [[0, 0], [2, 0], [0.5, 1.5]]})
        out = tmp_path / "lh"
        res = run_cli("lhuilier", p, "--out", str(out), "--svg")
        assert res.returncode == 0
        report = json.loads((out / "lhuilier.json").read_text())
        assert report["gap"] >= -1e-9
        assert len(report["K1_0"]) == 6
        assert (out / "lhuilier.svg").exists()

    def test_svg_without_out_keeps_stdout_one_report(self, tmp_path):
        p = write_doc(tmp_path / "tri.json",
                      {"vertices": [[0, 0], [2, 0], [0, 1]]})
        res = run_cli("lhuilier", p, "--svg", cwd=tmp_path)
        assert res.returncode == 0
        assert json.loads(res.stdout)["gap"] > 0
        assert res.stderr == "wrote lhuilier.svg\n"
        assert (tmp_path / "lhuilier.svg").read_text().endswith("</svg>\n")

    def test_bad_polygon_rejected(self, tmp_path):
        p = write_doc(tmp_path / "bad.json",
                      {"vertices": [[0, 0], [0, 1], [1, 0]]})
        res = run_cli("lhuilier", p)
        assert res.returncode == 1

    def test_nan_vertex_rejected(self, tmp_path):
        p = tmp_path / "nan.json"
        p.write_text('{"vertices": [[0, 0], [1, 0], [NaN, 1]]}')
        res = run_cli("lhuilier", str(p))
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1]) == {
            "error": "ValidationError", "detail": "vertex 2 is not finite"}

    def test_polygon_without_vertices_rejected(self, tmp_path):
        p = write_doc(tmp_path / "novertices.json", {"verts": [[0, 0]]})
        res = run_cli("lhuilier", p)
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1]) == {
            "error": "ValidationError",
            "detail": "polygon has no 'vertices'"}

    @pytest.mark.parametrize("vertices, detail", [
        (5, "polygon vertices have shape (), not (k, 2)"),
        ([[0, 0], [1, 0], [0]],
         "polygon 'vertices' is not an array of numbers"),
        ([[0, 0, 0], [1, 0, 0], [0, 1, 0]],
         "polygon vertices have shape (3, 3), not (k, 2)"),
        ([[0, 0], [1, "a"], [0, 1]],
         "polygon 'vertices' is not an array of numbers"),
    ], ids=["a_number", "ragged", "three_d", "not_numeric"])
    def test_malformed_vertices_are_invalid_input(self, tmp_path, vertices,
                                                  detail):
        p = write_doc(tmp_path / "polygon.json", {"vertices": vertices})
        res = run_cli("lhuilier", p)
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1]) == {
            "error": "ValidationError", "detail": detail}


class TestCorpus:
    def test_clean_run(self, tmp_path):
        out = tmp_path / "c"
        res = run_cli("corpus", "--seed", "3", "--n", "4",
                      "--out", str(out))
        assert res.returncode == 0
        report = json.loads((out / "corpus.json").read_text())
        assert report["curves_checked"] == 4
        assert report["violations"] == []

    def test_deterministic_output(self, tmp_path):
        a = run_cli("corpus", "--seed", "11", "--n", "4")
        b = run_cli("corpus", "--seed", "11", "--n", "4")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_empty_run(self):
        res = run_cli("corpus", "--n", "0")
        assert res.returncode == 0

    def test_report_has_distributions(self, tmp_path):
        out = tmp_path / "c"
        res = run_cli("corpus", "--seed", "7", "--n", "8", "--out", str(out))
        assert res.returncode == 0
        report = json.loads((out / "corpus.json").read_text())
        dist = report["distributions"]
        assert set(dist) == {"euclidean", "square", "regular_2k_gon",
                             "mixed_example21"}
        assert dist["euclidean"]["identity"]["max"] <= 1e-8
        assert dist["euclidean"]["orthogonality"]["worst"] == 0
        # the oracle rebuilds instance seed % n = 7, on the fourth ball
        assert dist["mixed_example21"]["oracle"]["worst"] == 7
        assert dist["mixed_example21"]["oracle"]["max"] <= 1e-12
        assert sum("oracle" in d for d in dist.values()) == 1

    def test_negative_seed_is_invalid_input(self):
        res = run_cli("corpus", "--seed", "-1", "--n", "4")
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1])["error"] == \
            "ValidationError"

    def test_negative_count_is_invalid_input(self):
        res = run_cli("corpus", "--seed", "1", "--n", "-3")
        assert res.returncode == 1
        assert json.loads(res.stderr.splitlines()[-1])["error"] == \
            "ValidationError"
        assert res.stdout == ""
        res = run_cli("corpus", "--seed", "1", "--n", "0")
        assert res.returncode == 0
        assert json.loads(res.stdout)["curves_checked"] == 0

    def test_injected_bug_is_caught(self):
        res = run_cli("corpus", "--seed", "1", "--n", "4",
                      "--inject-bug", "cwms-sign")
        assert res.returncode == 2
        report = json.loads(res.stdout)
        assert any(v["check"] == "identity" for v in report["violations"])
