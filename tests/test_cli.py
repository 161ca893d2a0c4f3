"""End-to-end exercises of the installed ``normplane`` console script."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from normplane import decompose, jsonio

from conftest import EXAMPLE22_RADII

EXAMPLE22_DOC = {
    "ball": "mixed_example21",
    "basepoint": [2, 1],
    "radius": [{"piece": i, "expr": e} for i, e in enumerate(EXAMPLE22_RADII)],
}


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "normplane.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


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

    @pytest.mark.parametrize("value", ["0", "-1"])
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

    def test_injected_bug_is_caught(self):
        res = run_cli("corpus", "--seed", "1", "--n", "4",
                      "--inject-bug", "cwms-sign")
        assert res.returncode == 2
        report = json.loads(res.stdout)
        assert any(v["check"] == "identity" for v in report["violations"])
