"""Command-line interface: validate, analyze, decompose, lhuilier, corpus.

Exit codes: 0 ok, 1 invalid input, 2 property violation found, 3 internal
error.  Diagnostics go to stderr as JSON lines; reports go to stdout or to
files under --out.  The "wrote FILE" notice of --svg goes to stdout with
--out and to stderr without it, so stdout is then the report alone.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import jsonio, svg
from .decomp import decompose as decompose_curve
from .errors import NormPlaneError, NotConvexInput, ValidationError
from .inequalities import iso_ledger, lhuilier_check
from .measures import measure_report
from .quadrature import DEFAULT_CONFIG, QuadratureConfig


def _diag(name, detail):
    sys.stderr.write(json.dumps({"error": name, "detail": detail}) + "\n")


def _out_path(out_dir, name):
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        return os.path.join(out_dir, name)
    return None


def _emit(report, out_dir, name):
    text = jsonio.dump_report(report)
    path = _out_path(out_dir, name)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


def _wrote(path, out_dir):
    """Name a written file: on stdout beside reports under --out, on stderr
    when the report itself went to stdout, so that stdout stays one JSON
    document."""
    click.echo(f"wrote {path}", err=not out_dir)


def _handle(fn):
    """Run fn, mapping exceptions to the documented exit codes."""
    try:
        return fn()
    except NormPlaneError as exc:
        _diag(type(exc).__name__, str(exc))
        sys.exit(1)
    except Exception as exc:  # noqa: BLE001 - internal error path
        _diag("InternalError", f"{type(exc).__name__}: {exc}")
        sys.exit(3)


@click.group()
def main():
    """Geometry of convex curves in normed planes."""


@main.command()
@click.option("--ball", "ball_path", type=click.Path(exists=True))
@click.option("--curve", "curve_path", type=click.Path(exists=True))
def validate(ball_path, curve_path):
    """Run all construction invariants on a ball or curve document."""
    if not ball_path and not curve_path:
        _diag("UsageError", "pass --ball or --curve")
        sys.exit(1)

    def run():
        if ball_path:
            jsonio.load_ball(ball_path)
        if curve_path:
            jsonio.load_curve(curve_path)
        click.echo("ok")

    _handle(run)


@main.command()
@click.option("--curve", "curve_path", type=click.Path(exists=True),
              required=True)
@click.option("--out", "out_dir", type=click.Path())
@click.option("--rel-tol", type=float, default=DEFAULT_CONFIG.rel_tol,
              show_default=True, help="Quadrature rel_tol, down to roundoff.")
def analyze(curve_path, out_dir, rel_tol):
    """Measures plus the isoperimetric ledger for a curve."""

    def run():
        try:
            quad = QuadratureConfig(rel_tol=rel_tol)
        except ValueError as exc:
            raise ValidationError(f"--rel-tol: {exc}") from None
        curve = jsonio.load_curve(curve_path, quad=quad)
        report = {"measures": measure_report(curve).to_dict()}
        try:
            report["ledger"] = iso_ledger(curve).to_dict()
        except NotConvexInput:
            pass
        report["convex"] = "ledger" in report
        _emit(report, out_dir, "analysis.json")

    _handle(run)


@main.command()
@click.option("--curve", "curve_path", type=click.Path(exists=True),
              required=True)
@click.option("--out", "out_dir", type=click.Path())
@click.option("--svg", "want_svg", is_flag=True)
def decompose(curve_path, out_dir, want_svg):
    """Split a curve into WC + CWMS + (w/2) u; optionally plot the parts."""

    def run():
        curve = jsonio.load_curve(curve_path)
        dec = decompose_curve(curve)
        # the SVG draws the ball's drawing grid; the report keeps its
        # first rows
        grid = curve.ball.drawing_grid
        g, wc, cw = dec.table.drawn(grid.SIZE if want_svg else grid.REPORTED)
        report = dec.to_dict()
        report["wc_samples"] = wc[:grid.REPORTED]
        report["cwms_samples"] = cw[:grid.REPORTED]
        _emit(report, out_dir, "decomposition.json")
        if want_svg:
            layers = [
                svg.Layer("curve", g, "black"),
                svg.Layer("unit ball", grid.u, "gray"),
                svg.Layer("dual samples", grid.dual, "goldenrod",
                          closed=False, width=0.8),
                svg.Layer("WC", wc, "crimson"),
                svg.Layer("CWMS", cw, "royalblue"),
            ]
            path = _out_path(out_dir, "decomposition.svg") or \
                "decomposition.svg"
            svg.write(path, layers, title="decomposition")
            _wrote(path, out_dir)

    _handle(run)


@main.command()
@click.argument("polygon_path", type=click.Path(exists=True))
@click.option("--out", "out_dir", type=click.Path())
@click.option("--svg", "want_svg", is_flag=True)
def lhuilier(polygon_path, out_dir, want_svg):
    """Weak Lhuilier inequality report for a convex polygon."""

    def run():
        K = jsonio.load_polygon(polygon_path)
        report = lhuilier_check(K)
        _emit(report.to_dict(), out_dir, "lhuilier.json")
        if report.gap < -1e-9 * report.scale:
            _diag("InequalityViolation", f"gap={report.gap}")
            sys.exit(2)
        if want_svg:
            layers = [
                svg.Layer("K", report.K.vertices, "black"),
                svg.Layer("K1", report.K1.vertices, "crimson"),
                svg.Layer("K1^0", report.K1_0.vertices, "royalblue"),
            ]
            path = _out_path(out_dir, "lhuilier.svg") or "lhuilier.svg"
            svg.write(path, layers, title="Lhuilier construction")
            _wrote(path, out_dir)

    _handle(run)


@main.command()
@click.option("--seed", type=int, default=0)
@click.option("--n", "count", type=int, default=20)
@click.option("--out", "out_dir", type=click.Path())
@click.option("--inject-bug", type=click.Choice(["cwms-sign"]),
              default=None, hidden=True)
def corpus(seed, count, out_dir, inject_bug):
    """Aggregate property checks over random curves; exit 2 on violation."""

    def run():
        from .corpus import run_corpus
        report = run_corpus(seed, count, inject_bug=inject_bug)
        _emit(report, out_dir, "corpus.json")
        if report["violations"]:
            sys.exit(2)

    _handle(run)


if __name__ == "__main__":
    main()
