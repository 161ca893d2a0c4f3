"""The bulk SVG and report writers against per-point and recursive
reference implementations."""

import json
import math
from xml.sax.saxutils import escape

import numpy as np
import pytest

from normplane import jsonio, svg


def _f(x):
    return "{:.9g}".format(float(x))


def reference_render(layers, size=640, margin=40, title=None):
    """svg.render with one pixel mapping per point and one format per
    coordinate."""
    all_pts = np.concatenate([ly.points for ly in layers])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-9)
    scale = (size - 2 * margin) / span
    cx, cy = 0.5 * (lo + hi)

    def to_px(p):
        x = margin + (size - 2 * margin) / 2 + (p[0] - cx) * scale
        y = margin + (size - 2 * margin) / 2 - (p[1] - cy) * scale
        return x, y

    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
           f'height="{size}" viewBox="0 0 {size} {size}">',
           f'<rect width="{size}" height="{size}" fill="white"/>']
    if title:
        out.append(f'<text x="{size // 2}" y="20" text-anchor="middle" '
                   f'font-size="14">{escape(title)}</text>')
    for ly in layers:
        pts_px = [to_px(p) for p in ly.points]
        if ly.marker or len(pts_px) == 1 or (
                len(ly.points) > 1
                and float(np.max(np.ptp(ly.points, axis=0))) < 1e-9 * span):
            x, y = pts_px[0]
            out.append(f'<circle cx="{_f(x)}" cy="{_f(y)}" r="4" '
                       f'fill="{ly.color}"><title>{escape(ly.label)}'
                       '</title></circle>')
        else:
            coords = " ".join(f"{_f(x)},{_f(y)}" for x, y in pts_px)
            tag = "polygon" if ly.closed else "polyline"
            out.append(f'<{tag} points="{coords}" fill="none" '
                       f'stroke="{ly.color}" stroke-width="{ly.width}">'
                       f'<title>{escape(ly.label)}</title></{tag}>')
    y = margin / 2
    for i, ly in enumerate(layers):
        ly_y = y + 16 * i
        out.append(f'<line x1="10" y1="{_f(ly_y)}" x2="34" y2="{_f(ly_y)}" '
                   f'stroke="{ly.color}" stroke-width="3"/>')
        out.append(f'<text x="40" y="{_f(ly_y + 4)}" font-size="12">'
                   f'{escape(ly.label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def reference_clean(obj):
    """jsonio.clean converting arrays to nested lists and recursing."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, np.floating):
        return float(f"{float(obj):.12g}")
    if isinstance(obj, np.ndarray):
        return reference_clean(obj.tolist())
    if isinstance(obj, dict):
        return {k: reference_clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_clean(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def same(a, b):
    """Equal values of equal types, NaN equal to NaN, -0.0 apart from 0.0."""
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or (
            a == b and math.copysign(1, a) == math.copysign(1, b))
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


class TestRender:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_layers(self, seed):
        rng = np.random.default_rng(seed)
        layers = []
        for k in range(int(rng.integers(1, 6))):
            n = int(rng.integers(2, 700))
            scale = 10.0 ** rng.uniform(-6, 6)
            pts = rng.normal(size=(n, 2)) * scale + rng.normal(size=2)
            layers.append(svg.Layer(f"layer {k}", pts, "black",
                                    closed=bool(rng.integers(2)),
                                    width=float(rng.uniform(0.5, 3))))
        assert svg.render(layers) == reference_render(layers)

    def test_special_layers(self):
        rng = np.random.default_rng(9)
        curve = rng.normal(size=(300, 2))
        layers = [
            svg.Layer("curve", curve, "black"),
            svg.Layer("one point", [[0.25, -0.5]], "red"),
            svg.Layer("marker", curve[:40] + 3.0, "green", marker=True),
            # spread below 1e-9 of the viewport: drawn as one point
            svg.Layer("collapsed", 1.5 + 1e-12 * rng.normal(size=(50, 2)),
                      "blue"),
            svg.Layer("open", curve[::3] * 2.0, "goldenrod", closed=False,
                      width=0.8),
        ]
        title = 'K <& "K1">'
        got = svg.render(layers, title=title)
        assert got == reference_render(layers, title=title)
        assert got.count("<circle") == 3
        assert "<polyline" in got
        assert "K &lt;&amp; \"K1\"&gt;" in got

    def test_write(self, tmp_path):
        pts = np.random.default_rng(4).normal(size=(512, 2))
        layers = [svg.Layer("WC", pts, "crimson")]
        path = svg.write(tmp_path / "out.svg", layers, title="decomposition")
        text = path.read_text(encoding="utf-8")
        assert text == reference_render(layers, title="decomposition")
        assert text.endswith("</svg>\n")


def special_object():
    """Every kind of value a report can hold, special floats included."""
    rng = np.random.default_rng(3)
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-300,
                        5e-324, 1.7976931348623157e308, 0.1, 1 / 3])
    return {
        "samples": rng.normal(size=(128, 2)) * 10.0 ** rng.integers(
            -300, 300, size=(128, 1)),
        "special": special,
        "cube": rng.normal(size=(2, 3, 4)),
        "empty": np.zeros((0, 2)),
        "hollow": np.zeros((2, 0)),
        "f32": rng.normal(size=(5, 2)).astype(np.float32),
        "ints": np.arange(6).reshape(3, 2),
        "uints": np.arange(3, dtype=np.uint8),
        "bools": np.array([[True, False]]),
        "zero_d": np.array(2.0 / 3.0),
        "zero_d_int": np.array(7),
        "scalars": (np.float64(1 / 7), np.float32(1 / 7), np.int64(3),
                    np.int32(-2), 1.0 / 9.0, 5, True, None, "text"),
        "nested": [{"a": (np.pi, [np.e, special[:4]])}, []],
    }


class TestClean:
    def test_nested_containers(self):
        obj = special_object()
        got = jsonio.clean(obj)
        want = reference_clean(obj)
        assert same(got, want)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            want, sort_keys=True)

    def test_dump_report_is_unchanged(self):
        rng = np.random.default_rng(8)
        report = {"wc_area": -1.33, "wc_samples": rng.normal(size=(128, 2)),
                  "cwms_samples": rng.normal(size=(128, 2))}
        every = special_object()
        cases = [report, every, {
            **every, "cube": np.arange(24.0).reshape(2, 3, 4) / 7,
            "none": np.zeros((0, 2)),
            "text": "K\u2081\u2070 \u00e9t\u00e9 \"q\"\n\t",
            "keys": {2: [0.1], 1: {"b": np.nan}},
            "deep": [[[[]]], {}, [{}]]}]
        for obj in cases:
            assert jsonio.dump_report(obj) == json.dumps(
                reference_clean(obj), indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [np.bool_(True), {1, 2}, 1j])
    def test_dump_report_refuses_what_json_refuses(self, value):
        with pytest.raises(TypeError) as want:
            json.dumps(reference_clean({"a": value}), indent=2)
        with pytest.raises(TypeError) as got:
            jsonio.dump_report({"a": value})
        assert str(got.value) == str(want.value)
