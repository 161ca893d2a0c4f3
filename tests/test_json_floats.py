"""dump_report writes each float once: the text of {:.12g} laid out as
float.__repr__ lays out the rounded value, with json's NaN and Infinity."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normplane import jsonio
from normplane.jsonio import _json12


def _want(x):
    # json writes floats with float.__repr__, and NaN and Infinity itself
    return json.dumps(float(f"{x:.12g}"))


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_any_float(x):
    assert _json12(f"{x:.12g}") == _want(x)


@pytest.mark.parametrize("x, text", [
    (100.0, "100.0"), (1e12, "1000000000000.0"),
    (-1.5e13, "-15000000000000.0"),
    (123456789012345.0, "123456789012000.0"), (1e16, "1e+16"),
    (1e-5, "1e-05"), (1e-4, "0.0001"), (-0.0, "-0.0"), (0.0, "0.0"),
    (5e-324, "5e-324"), (2.2250738585072014e-308, "2.22507385851e-308"),
    (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity"),
])
def test_edges(x, text):
    assert _json12(f"{x:.12g}") == _want(x) == text


def test_reports_are_json_dumps_of_their_rounded_values():
    values = np.array([[100.0, 1e12, 1e16], [1e-5, -0.0, 5e-324],
                       [math.nan, math.inf, -math.inf]])
    report = {"a": values, "b": float(values[0, 1]), "c": values[2].tolist()}
    assert jsonio.dump_report(report) == json.dumps(
        jsonio.clean(report), indent=2, sort_keys=True)
