import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normplane import expressions as ex
from normplane.errors import DomainError, ParseError


class TestParse:
    def test_function_call_shape(self):
        e = ex.parse("cos(pi/2*t)")
        assert e == ex.Call("cos", ex.BinOp("*",
                                            ex.BinOp("/", ex.Pi(),
                                                     ex.Num(2.0)),
                                            ex.Var()))

    def test_subtraction_shape(self):
        assert ex.parse("1-t") == ex.BinOp("-", ex.Num(1.0), ex.Var())

    def test_power_right_associative(self):
        assert ex.evaluate(ex.parse("2^3^2"), 0.0) == 512

    def test_power_binds_tighter_than_unary_minus(self):
        assert ex.evaluate(ex.parse("-2^2"), 0.0) == -4

    def test_unary_minus_in_exponent(self):
        assert ex.evaluate(ex.parse("2^-2"), 0.0) == 0.25

    def test_precedence_mul_over_add(self):
        assert ex.evaluate(ex.parse("1+2*3"), 0.0) == 7

    @pytest.mark.parametrize("bad,offset", [
        ("1+", 2),
        ("(1", 2),
        ("sin 3", 4),
        ("foo(1)", 0),
        ("1 @ 2", 2),
    ])
    def test_errors_carry_offset(self, bad, offset):
        with pytest.raises(ParseError) as err:
            ex.parse(bad)
        assert err.value.offset == offset
        assert err.value.expected


class TestEvaluate:
    def test_cos_at_one(self):
        assert abs(ex.evaluate(ex.parse("cos(pi/2*t)"), 1.0)) < 1e-15

    def test_radius_formula(self):
        e = ex.parse("16/sqrt((15*cos(pi/2*t)^2+1)^3)")
        # at t=1 the cosine vanishes and the radius peaks at 16
        assert ex.evaluate(e, 1.0) == pytest.approx(16.0, abs=1e-12)
        assert ex.evaluate(e, 2.0) == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("text,t", [
        ("1/t", 0.0),
        ("sqrt(t)", -1.0),
        ("log(t)", 0.0),
        ("t^0.5", -2.0),
    ])
    def test_domain_errors(self, text, t):
        with pytest.raises(DomainError):
            ex.evaluate(ex.parse(text), t)

    def test_abs(self):
        assert ex.evaluate(ex.parse("abs(t)"), -3.0) == 3.0


def _num_deriv(e, t, h=1e-6):
    return (ex.evaluate(e, t + h) - ex.evaluate(e, t - h)) / (2 * h)


class TestDifferentiate:
    def test_power_rule(self):
        d = ex.differentiate(ex.parse("t^2"))
        assert ex.evaluate(d, 3.0) == pytest.approx(6.0)

    def test_chain_rule(self):
        d = ex.differentiate(ex.parse("sin(pi/2*t)"))
        assert ex.evaluate(d, 0.0) == pytest.approx(math.pi / 2)

    def test_abs_uses_sign(self):
        d = ex.differentiate(ex.parse("abs(t)"))
        assert ex.evaluate(d, -2.0) == pytest.approx(-1.0)
        assert ex.evaluate(d, 2.0) == pytest.approx(1.0)
        # |t| * t = -t^2 for t < 0, so the slope at -2 is +4
        d2 = ex.differentiate(ex.parse("abs(t)*t"))
        assert ex.evaluate(d2, -2.0) == pytest.approx(4.0)

    def test_general_power(self):
        d = ex.differentiate(ex.parse("t^t"))
        t = 1.7
        assert ex.evaluate(d, t) == pytest.approx(
            t ** t * (math.log(t) + 1), rel=1e-12)


def _random_expr(rng, depth=3):
    """Random expression staying in a safe real domain for |t| <= 2."""
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([
            ex.Var(),
            ex.Num(float(np.round(rng.uniform(-3, 3), 3))),
            ex.Pi(),
        ])
    kind = rng.integers(0, 6)
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    if kind == 0:
        return ex.BinOp("+", a, b)
    if kind == 1:
        return ex.BinOp("-", a, b)
    if kind == 2:
        return ex.BinOp("*", a, b)
    if kind == 3:
        # keep the denominator away from zero
        return ex.BinOp("/", a, ex.BinOp("+", ex.Num(3.0),
                                         ex.Call("sin", b)))
    if kind == 4:
        return ex.Call(str(rng.choice(["sin", "cos", "exp"])), a)
    return ex.Neg(a)


def test_finite_difference_oracle_1000_probes():
    rng = np.random.default_rng(2024)
    accepted = 0
    while accepted < 1000:
        e = _random_expr(rng)
        d = ex.differentiate(e)
        t = float(rng.uniform(-2, 2))
        try:
            exact = ex.evaluate(d, t)
            lo = ex.evaluate(e, t - 1e-6)
            hi = ex.evaluate(e, t + 1e-6)
        except DomainError:
            continue
        if not all(map(math.isfinite, (exact, lo, hi))):
            continue
        if max(abs(lo), abs(hi)) > 1e3:
            continue
        fd = (hi - lo) / 2e-6
        assert abs(exact - fd) < 1e-6 * (1 + abs(exact)), ex.to_text(e)
        accepted += 1


def test_differentiation_is_linear():
    rng = np.random.default_rng(5)
    for _ in range(100):
        e1 = _random_expr(rng)
        e2 = _random_expr(rng)
        a = float(rng.uniform(-2, 2))
        b = float(rng.uniform(-2, 2))
        combo = ex.BinOp("+", ex.BinOp("*", ex.Num(a), e1),
                         ex.BinOp("*", ex.Num(b), e2))
        t = float(rng.uniform(-2, 2))
        try:
            lhs = ex.evaluate(ex.differentiate(combo), t)
            rhs = (a * ex.evaluate(ex.differentiate(e1), t)
                   + b * ex.evaluate(ex.differentiate(e2), t))
        except DomainError:
            continue
        if not (math.isfinite(lhs) and math.isfinite(rhs)):
            continue
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# round-trip: printing a parsed AST and reparsing gives the same AST

_leaf = st.one_of(
    st.just(ex.Var()),
    st.just(ex.Pi()),
    st.floats(min_value=0, max_value=100, allow_nan=False).map(
        lambda v: ex.Num(float(v))),
)

_ast = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from("+-*/^"), inner, inner).map(
            lambda x: ex.BinOp(*x)),
        inner.map(ex.Neg),
        st.tuples(st.sampled_from(ex.FUNCTIONS), inner).map(
            lambda x: ex.Call(*x)),
    ),
    max_leaves=25,
)


@given(_ast)
@settings(max_examples=300, deadline=None)
def test_print_parse_round_trip(e):
    assert ex.parse(ex.to_text(e)) == e


def test_compile_matches_evaluate():
    e = ex.parse("16/sqrt((15*cos(pi/2*t)^2+1)^3)")
    f = ex.compile_fn(e)
    ts = np.linspace(1, 2, 11)
    want = np.array([ex.evaluate(e, t) for t in ts])
    np.testing.assert_allclose(f(ts), want, rtol=1e-15)


class TestCompiledMemo:
    def test_one_compile_per_text_and_order(self, monkeypatch):
        calls = []
        compile_fn = ex.compile_fn
        monkeypatch.setattr(ex, "compile_fn",
                            lambda e: calls.append(e) or compile_fn(e))
        parses = []
        parse = ex.parse
        monkeypatch.setattr(ex, "parse",
                            lambda text: parses.append(text) or parse(text))
        text = "sin(pi/2*t)^2"
        fns = [ex.compiled(text, k) for k in range(3)]
        assert [ex.compiled(text, k) for k in range(3)] == fns
        assert len(calls) == 3 and parses == [text]
        ts = np.linspace(0.1, 0.9, 7)
        want = [ex.parse(text)]
        want += [ex.differentiate(want[0]), ex.differentiate(
            ex.differentiate(want[0]))]
        for f, e in zip(fns, want):
            np.testing.assert_array_equal(f(ts), compile_fn(e)(ts))

    @pytest.mark.parametrize("text", ["1+*t", "sin(t", "foo(t)"])
    def test_errors_are_raised_on_every_call(self, text):
        for _ in range(3):
            with pytest.raises(ParseError):
                ex.compiled(text, 0)
        assert ex.compiled.cache_info().currsize == 0

    def test_memo_is_bounded(self):
        assert ex.compiled.cache_info().maxsize == ex.MEMO_SIZE
        assert ex._parsed.cache_info().maxsize == ex.MEMO_SIZE
        for k in range(ex.MEMO_SIZE + 20):
            ex.compiled(f"{k}+t", 0)
        assert ex.compiled.cache_info().currsize == ex.MEMO_SIZE
        assert ex._parsed.cache_info().currsize == ex.MEMO_SIZE
