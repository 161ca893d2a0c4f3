"""Minimal SVG emitter for curve overlays.

No plotting dependency.  Coordinates keep 9 significant digits, the bytes
of ``'%.9g'`` per coordinate, so output is bit-stable for identical
inputs.  One vectorised pass (``_digits``) writes the coordinates of every
layer at once; a layer holding a coordinate that the pass cannot write
exactly is formatted per coordinate with ``'%.9g'`` instead.
"""

from __future__ import annotations

import numpy as np

_FMT = "{:.9g}"

# A drawn coordinate lies in [margin, size - margin] = [40, 600].  For x in
# [100, 1000), '%.9g' % x is the 9-digit N = x·10⁶ rounded half to even,
# with a point after 3 digits and its trailing zeros, then a bare point,
# stripped; for x in [10, 100) it is N = x·10⁷ rounded, with the point
# after 2 digits.  p = x·10ᵏ < 2³⁰, so the float product is within 2⁻²⁴ of
# the exact one and rint(p) is that N unless p lies within 2⁻²⁰ of a tie.
# A coordinate outside [10, 1000), not finite, that near a tie or rounding
# to 10⁹ is left to '%.9g'.
_TIE = 0.5 - 2.0 ** -20


def _tables():
    """Three ASCII digits per uint32, the first in the low byte: in full
    (0-999) and with trailing zeros as NUL (1000-1999); an integer part of
    2 or 3 digits and its point ("LLL." or NUL "LL."); a fraction's first
    digit, and at index 10 its absence (NUL, and no point)."""
    n = np.arange(1000)
    digits = np.stack([n // 100, n // 10 % 10, n % 10]) + ord("0")
    full = digits[0] | digits[1] << 8 | digits[2] << 16
    digits[2][n % 10 == 0] = 0
    digits[1][n % 100 == 0] = 0
    digits[0][n == 0] = 0
    stripped = digits[0] | digits[1] << 8 | digits[2] << 16
    lead = full | ord(".") << 24
    lead[:100] &= 0xFFFFFF00
    first = np.append(np.arange(10) + ord("0"), 0)
    keep = np.append(np.full(10, 0xFFFFFFFF), 0x00FFFFFF)
    return tuple(a.astype(np.uint32) for a in (
        np.concatenate([full, stripped]), lead, first, keep))


# every bitwise operand is an explicit uint32, so numpy 1.x and 2.x type
# the words alike
_GROUPS, _LEAD, _FIRST, _KEEP = _tables()
_STRIPPED = _GROUPS[1000:]
_COMMA, _SPACE = (np.uint32(ord(sep) << 24) for sep in ", ")


def _digits(px):
    """Text of the (n, 2) pixel coordinates px as 12-byte slots, one per
    coordinate, "%.9g" then ',' after x or ' ' after y, NUL-padded; and a
    (n, 2) mask of the coordinates the slots write exactly."""
    good = (px >= 10) & (px < 1000)
    x = px if good.all() else np.where(good, px, 100.0)
    big = x >= 100
    p = x * np.where(big, 1e6, 1e7)
    r = np.rint(p)
    good &= (np.abs(p - r) < _TIE) & (r < 1e9)
    if not good.all():
        r = np.where(good, r, 1e8)     # any 9 digits, to stay in the tables
    # m: 10 digits, 7 after the point (the 7th is 0 when x >= 100); every
    # step below is exact on integers below 2⁵³
    m = r * np.where(big, 10.0, 1.0)
    lead = np.floor(m / 1e7)
    frac = m - lead * 1e7
    hi = np.floor(frac / 1e3)
    c = frac - hi * 1e3
    d = np.floor(hi / 1e3)
    b = hi - d * 1e3
    first = np.where(frac == 0, 10.0, d).astype(np.intp)
    # trailing zeros: c's always, b's when c is 0, d and the point when
    # the whole fraction is 0
    b = np.where(c == 0, b + 1000, b).astype(np.intp)
    slots = np.empty(px.shape + (3,), dtype=np.uint32)
    np.bitwise_and(_LEAD[lead.astype(np.intp)], _KEEP[first],
                   out=slots[..., 0])
    np.bitwise_or(_GROUPS[b] << np.uint32(8), _FIRST[first],
                  out=slots[..., 1])
    c = _STRIPPED[c.astype(np.intp)]
    np.bitwise_or(c[:, 0], _COMMA, out=slots[:, 0, 2])
    np.bitwise_or(c[:, 1], _SPACE, out=slots[:, 1, 2])
    return slots.tobytes(), good


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
    # one expression per axis over every layer; y flipped, as SVG grows
    # downward
    px = np.empty(all_pts.shape)
    px[:, 0] = mid + (all_pts[:, 0] - cx) * scale
    px[:, 1] = mid - (all_pts[:, 1] - cy) * scale
    text, good = _digits(px)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">')
    out.append(f'<rect width="{size}" height="{size}" fill="white"/>')
    if title:
        out.append(f'<text x="{size // 2}" y="20" text-anchor="middle" '
                   f'font-size="14">{escape(title)}</text>')
    end = 0
    for ly in layers:
        start, end = end, end + len(ly.points)
        n = end - start
        if ly.marker or n == 1 or (
                n > 1
                and float(np.max(np.ptp(ly.points, axis=0))) < 1e-9 * span):
            out.append(f'<circle cx="{_f(px[start, 0])}" '
                       f'cy="{_f(px[start, 1])}" r="4" fill="{ly.color}">'
                       f'<title>{escape(ly.label)}</title></circle>')
            continue
        if good[start:end].all():
            # drop the NUL padding and the last separator
            coords = text[24 * start:24 * end].translate(
                None, b"\0").decode("ascii")[:-1]
        else:
            coords = " ".join(["%.9g,%.9g"] * n) % tuple(
                px[start:end].ravel().tolist())
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
