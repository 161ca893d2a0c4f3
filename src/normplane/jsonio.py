"""JSON documents for balls, curves, and polygons.

Ball document::

    {"auto_symmetrize": false,
     "pieces": [{"kind": "arc", "x": "cos(pi/2*t)", "y": "sin(pi/2*t)",
                 "t0": 0, "t1": 1},
                {"kind": "segment", "p0": [1, 0], "p1": [0, 1],
                 "t0": 1, "t1": 2}]}

or simply a builtin name: {"builtin": "euclidean"} (with optional params).

Curve document::

    {"ball": <ball document or builtin name>,
     "basepoint": [x, y],
     "radius": [{"piece": 0, "expr": "1"}, ...]}       # one per piece
    or
    {"ball": ..., "explicit": [{"x": "...", "y": "..."}, ...]}

A radius is expression text or a real number, never a boolean; t0 and t1
are finite numbers, p0, p1 and the basepoint finite pairs, x and y
expression text, and auto_symmetrize a boolean.  An
explicit curve starts at its first piece, so it takes no basepoint.

Polygon document::

    {"vertices": [[x, y], ...]}      # counterclockwise, strictly convex
"""

from __future__ import annotations

import json
import math
import numbers
from json.encoder import encode_basestring_ascii

import numpy as np

from .ball import Piece, build_ball, builtin_ball
from .curve import curve_from_explicit, curve_from_radius
from .errors import ValidationError
from .inequalities import Polygon
from .quadrature import DEFAULT_CONFIG


def _load(doc_or_path):
    if isinstance(doc_or_path, (str, bytes)) or hasattr(doc_or_path,
                                                        "__fspath__"):
        with open(doc_or_path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    return doc_or_path


def _number(value):
    """Whether value is a real number; a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


# the kinds of _get: a test of the value, and what a value failing it is not
_LIST = (lambda v: isinstance(v, list), "a list")
_TEXT = (lambda v: isinstance(v, str), "expression text")
_RADIUS = (lambda v: isinstance(v, str) or _number(v),
           "expression text or a real number")
_PARAM = (lambda v: _number(v) and math.isfinite(v), "a finite number")
_PAIR = (lambda v: isinstance(v, (list, tuple)) and len(v) == 2
         and all(map(_PARAM[0], v)), "a finite pair [x, y]")
_BOOL = (lambda v: isinstance(v, bool), "a boolean")


def _get(doc, key, where, kind=None):
    """doc[key], or a ValidationError naming the key and where it is, also
    when kind is given and its test rejects the value."""
    if not isinstance(doc, dict) or key not in doc:
        raise ValidationError(f"{where} has no {key!r}")
    if kind is not None and not kind[0](doc[key]):
        raise ValidationError(f"{where}: {key!r} is not {kind[1]}")
    return doc[key]


def _floats(value, where):
    """value as a float array, or a ValidationError naming where it is."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):   # ragged, or not a number
        raise ValidationError(f"{where} is not an array of numbers") from None


# pieces documents' balls a process keeps; the least recently used goes first
_BALL_CACHE = 16
_BALLS = {}     # validated piece fields, auto_symmetrize -> UnitBall


def _bits(value):
    """A key of a validated field that tells floats apart bit for bit, so
    -0.0 is not 0.0: the hex text of each number, text as it is."""
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return tuple(map(_bits, value))
    return float(value).hex()


def ball_from_doc(doc):
    """The UnitBall of a ball document: a builtin name, {"builtin": name,
    ...parameters}, or {"pieces": [...], "auto_symmetrize": ...}.

    Every call with an equal document returns the same UnitBall, so curves
    on one ball share it and its frames: builtin_ball keeps the builtins,
    and the 16 most recently used pieces documents keep theirs, keyed by
    their validated piece fields with floats compared bit for bit.  Each
    piece is checked and built in order, so the first fault is the one
    reported; a failing document raises on every call.
    """
    if isinstance(doc, str):
        return builtin_ball(doc)
    if not isinstance(doc, dict):
        raise ValidationError("ball is neither a builtin name nor an object")
    if "builtin" in doc:
        params = {k: v for k, v in doc.items() if k != "builtin"}
        return builtin_ball(doc["builtin"], **params)
    pieces, fields = [], []
    for i, pd in enumerate(_get(doc, "pieces", "ball", _LIST)):
        kind = _get(pd, "kind", f"ball piece {i}")
        if kind not in ("arc", "segment"):
            raise ValidationError(f"unknown piece kind {kind!r}")
        arc = kind == "arc"
        keys = ((("x", _TEXT), ("y", _TEXT)) if arc else
                (("p0", _PAIR), ("p1", _PAIR))) + (("t0", _PARAM),
                                                   ("t1", _PARAM))
        args = [_get(pd, key, f"ball piece {i}", test) for key, test in keys]
        pieces.append((Piece.arc if arc else Piece.segment)(*args))
        fields.append((kind, *map(_bits, args)))
    symmetrize = "auto_symmetrize" in doc and _get(doc, "auto_symmetrize",
                                                   "ball", _BOOL)
    key = tuple(fields), symmetrize
    ball = _BALLS.pop(key, None)
    if ball is None:
        ball = build_ball(pieces, auto_symmetrize=symmetrize)
        if len(_BALLS) >= _BALL_CACHE:
            del _BALLS[next(iter(_BALLS))]
    _BALLS[key] = ball      # the most recently used, last
    return ball


def load_ball(doc_or_path):
    return ball_from_doc(_load(doc_or_path))


def curve_from_doc(doc, quad=DEFAULT_CONFIG):
    """The curve of a document, with quadrature rule quad."""
    ball = ball_from_doc(_get(doc, "ball", "curve"))
    if "explicit" in doc:
        if "basepoint" in doc:
            raise ValidationError("curve has both 'explicit' and "
                                  "'basepoint'; its first piece is its start")
        pieces = [tuple(_get(pd, c, f"explicit entry {k}", _TEXT)
                        for c in "xy") for k, pd in
                  enumerate(_get(doc, "explicit", "curve", _LIST))]
        return curve_from_explicit(ball, pieces, quad=quad)
    radii = [None] * ball.n_pieces
    for k, entry in enumerate(_get(doc, "radius", "curve", _LIST)):
        i, r = k, entry
        if isinstance(entry, dict):
            i, r = entry.get("piece", k), _get(entry, "expr",
                                               f"radius entry {k}", _RADIUS)
        elif not _RADIUS[0](entry):
            raise ValidationError(f"radius entry {k} is not {_RADIUS[1]}")
        if type(i) is not int or not 0 <= i < len(radii):
            raise ValidationError(f"radius entry {k}: piece {i!r} is not "
                                  f"one of the ball's {len(radii)} pieces")
        if radii[i] is not None:
            raise ValidationError(f"radius entry {k}: piece {i} given twice")
        radii[i] = r
    if any(r is None for r in radii):
        raise ValidationError("radius must cover every ball piece")
    basepoint = doc.get("basepoint", (0.0, 0.0))
    if _floats(basepoint, "curve 'basepoint'").shape != (2,):
        raise ValidationError("curve 'basepoint' is not a pair [x, y]")
    if not _PAIR[0](basepoint):    # a boolean, NaN or an infinity
        raise ValidationError(f"curve 'basepoint' is not {_PAIR[1]}")
    return curve_from_radius(ball, radii, basepoint=basepoint, quad=quad)


def load_curve(doc_or_path, quad=DEFAULT_CONFIG):
    return curve_from_doc(_load(doc_or_path), quad=quad)


def polygon_from_doc(doc):
    return Polygon(_floats(_get(doc, "vertices", "polygon"),
                           "polygon 'vertices'"))


def load_polygon(doc_or_path):
    return polygon_from_doc(_load(doc_or_path))


# 12 significant digits for stable, diffable reports
_FMT12 = "{:.12g}".format
# json's spellings of the floats that float.__repr__ writes otherwise
_JSON_FLOAT = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json12(text):
    """The JSON text of float(text), for text written by _FMT12.  Twelve
    digits round-trip, so repr writes the same ones, laid out its way: a
    ".0" on integers, positional up to e+15.  Subnormals go through repr."""
    mant, _, exp = text.partition("e")
    if not exp:
        return text if "." in text else _JSON_FLOAT.get(text, text + ".0")
    e = int(exp)
    if 12 <= e <= 15:
        return "%.1f" % float(text)
    return text if e > -308 else float.__repr__(float(text))


def clean(obj):
    """Round floats recursively so serialized reports are deterministic.

    A float array is rounded in one pass over its flattened values and
    nested once, by the array's own tolist."""
    if isinstance(obj, (float, np.floating)):
        return float(_FMT12(float(obj)))
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f":
            flat = map(float, map(_FMT12, obj.ravel().tolist()))
            return np.fromiter(flat, float, obj.size).reshape(
                obj.shape).tolist()
        return clean(obj.tolist())
    if isinstance(obj, dict):
        return {k: clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [clean(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _template(shape, pad):
    """The indented layout of a float array of shape at indentation pad,
    with a %s for each value in C order."""
    if not shape:
        return "%s"
    if not shape[0]:
        return "[]"
    inner = pad + "  "
    rows = (",\n" + inner).join([_template(shape[1:], inner)] * shape[0])
    return "[\n" + inner + rows + "\n" + pad + "]"


def _text(obj, pad):
    """The text of clean(obj) in json.dumps(..., indent=2, sort_keys=True)
    at indentation pad.  A float array is rounded in one pass and laid out
    by its shape's template; strings and numbers are written as json
    writes them."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (float, np.floating)):
        return _json12(_FMT12(float(obj)))
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind != "f":
            return _text(obj.tolist(), pad)
        text = map(_json12, map(_FMT12, obj.ravel().tolist()))
        return _template(obj.shape, pad) % tuple(text)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        items = [_text(v, inner) for v in obj]
    elif isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        items = [encode_basestring_ascii(k) + ": " + _text(obj[k], inner)
                 for k in sorted(obj)]
    else:
        # other keys and types: json's own conversions and errors; its
        # strings hold no raw newline, so every newline starts a line
        return json.dumps(clean(obj), indent=2, sort_keys=True).replace(
            "\n", "\n" + pad)
    ends = "{}" if isinstance(obj, dict) else "[]"
    if not items:
        return ends
    return (ends[0] + "\n" + inner + (",\n" + inner).join(items) + "\n"
            + pad + ends[1])


def dump_report(obj):
    """json.dumps(clean(obj), indent=2, sort_keys=True), written without
    json's pure-Python indenting encoder."""
    return _text(obj, "")
