"""Minimal SVG emitter for curve overlays.

No plotting dependency; floats are written with 9 significant digits so
output is bit-stable for identical inputs.
"""

from __future__ import annotations

import numpy as np

_FMT = "{:.9g}"


def _f(x):
    return _FMT.format(float(x))


def escape(text):
    """text with &, > and < escaped, as xml.sax.saxutils.escape writes it
    (importing that module loads urllib.request, http.client and email)."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


class Layer:
    def __init__(self, label, points, color, closed=True, marker=False,
                 width=1.5):
        self.label = label
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.color = color
        self.closed = closed
        self.marker = marker
        self.width = width


def render(layers, size=640, margin=40, title=None):
    """Return SVG text showing the layers in a common data viewport."""
    all_pts = np.concatenate([ly.points for ly in layers])
    lo = all_pts.min(axis=0)
    hi = all_pts.max(axis=0)
    span = max(float(np.max(hi - lo)), 1e-9)
    scale = (size - 2 * margin) / span
    cx, cy = 0.5 * (lo + hi)
    mid = margin + (size - 2 * margin) / 2

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">')
    out.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    if title:
        out.append(f'<text x="{size // 2}" y="20" text-anchor="middle" '
                   f'font-size="14">{escape(title)}</text>')
    for ly in layers:
        # one expression per axis; y flipped, as SVG grows downward
        px = np.empty(ly.points.shape)
        px[:, 0] = mid + (ly.points[:, 0] - cx) * scale
        px[:, 1] = mid - (ly.points[:, 1] - cy) * scale
        n = len(px)
        if ly.marker or n == 1 or (
                n > 1
                and float(np.max(np.ptp(ly.points, axis=0))) < 1e-9 * span):
            out.append(f'<circle cx="{_f(px[0, 0])}" cy="{_f(px[0, 1])}" '
                       f'r="4" fill="{ly.color}"><title>{escape(ly.label)}'
                       '</title></circle>')
        else:
            # one %-format over the interleaved coordinates
            coords = " ".join(["%.9g,%.9g"] * n) % tuple(px.ravel().tolist())
            tag = "polygon" if ly.closed else "polyline"
            out.append(f'<{tag} points="{coords}" fill="none" '
                       f'stroke="{ly.color}" stroke-width="{ly.width}">'
                       f'<title>{escape(ly.label)}</title></{tag}>')
    # legend
    y = margin / 2
    for i, ly in enumerate(layers):
        ly_y = y + 16 * i
        out.append(f'<line x1="10" y1="{_f(ly_y)}" x2="34" y2="{_f(ly_y)}" '
                   f'stroke="{ly.color}" stroke-width="3"/>')
        out.append(f'<text x="40" y="{_f(ly_y + 4)}" font-size="12">'
                   f'{escape(ly.label)}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write(path, layers, title=None):
    text = render(layers, title=title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
