"""A small expression language for real functions of one variable ``t``.

Supports literals, ``pi``, the variable ``t``, the binary operators
``+ - * / ^`` (with ``^`` right-associative and binding tightest), unary
minus, and the functions ``sin cos tan sqrt exp log abs``.  Expressions are
immutable ASTs; they can be evaluated, symbolically differentiated, printed
back to parseable text, and compiled to vectorized numpy callables.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ParseError

FUNCTIONS = ("sin", "cos", "tan", "sqrt", "exp", "log", "abs")


class Expr:
    """Base class of AST nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Pi(Expr):
    pass


@dataclass(frozen=True)
class Var(Expr):
    pass


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            # skip over pure whitespace tail
            if text[pos:].strip() == "":
                break
            bad = pos + (len(text[pos:]) - len(text[pos:].lstrip()))
            offset = len(text[:bad].encode("utf-8"))
            raise ParseError(f"unexpected character {text[bad]!r}", offset,
                             expected=("number", "name", "operator"))
        if m.lastgroup is not None:
            kind = m.lastgroup
            value = m.group(kind)
            offset = len(text[: m.start(kind)].encode("utf-8"))
            tokens.append((kind, value, offset))
        pos = m.end()
    tokens.append(("end", "", len(text.encode("utf-8"))))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, expected):
        kind, value, offset = self.peek()
        what = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"unexpected {what}", offset, expected=expected)

    def expect_op(self, op):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            self.fail((op,))
        self.advance()

    def parse(self):
        e = self.sum_()
        if self.peek()[0] != "end":
            self.fail(("+", "-", "*", "/", "^", "end of input"))
        return e

    def sum_(self):
        e = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            e = BinOp(op, e, self.term())
        return e

    def term(self):
        e = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            e = BinOp(op, e, self.unary())
        return e

    def unary(self):
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            # right-associative; unary minus allowed in the exponent
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "name":
            self.advance()
            if value == "pi":
                return Pi()
            if value == "t":
                return Var()
            if value in FUNCTIONS:
                self.expect_op("(")
                arg = self.sum_()
                self.expect_op(")")
                return Call(value, arg)
            raise ParseError(f"unknown name {value!r}", offset,
                             expected=("pi", "t") + FUNCTIONS)
        if kind == "op" and value == "(":
            self.advance()
            e = self.sum_()
            self.expect_op(")")
            return e
        self.fail(("number", "pi", "t", "function", "(", "-"))


def parse(text):
    """Parse expression text into an AST."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(e):
    if isinstance(e, BinOp):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    return 5


def to_text(e):
    """Render the AST as text; reparsing yields a structurally identical AST."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "pi"
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Call):
        return f"{e.fn}({to_text(e.arg)})"
    if isinstance(e, Neg):
        inner = to_text(e.arg)
        if _prec(e.arg) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, BinOp):
        p = _PREC[e.op]
        left = to_text(e.left)
        right = to_text(e.right)
        if e.op == "^":
            # right-associative: parenthesize a non-atomic base
            if _prec(e.left) <= p:
                left = f"({left})"
            if _prec(e.right) < p:
                right = f"({right})"
        else:
            if _prec(e.left) < p:
                left = f"({left})"
            if _prec(e.right) <= p:
                right = f"({right})"
        return f"{left}{e.op}{right}"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def evaluate(e, t):
    """Evaluate at a real t with full domain checking."""
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Pi):
        return math.pi
    if isinstance(e, Var):
        return float(t)
    if isinstance(e, Neg):
        return -evaluate(e.arg, t)
    if isinstance(e, Call):
        x = evaluate(e.arg, t)
        if e.fn == "sqrt":
            if x < 0:
                raise DomainError(f"sqrt of negative value {x}")
            return math.sqrt(x)
        if e.fn == "log":
            if x <= 0:
                raise DomainError(f"log of non-positive value {x}")
            return math.log(x)
        return getattr(math, e.fn if e.fn != "abs" else "fabs")(x)
    if isinstance(e, BinOp):
        a = evaluate(e.left, t)
        b = evaluate(e.right, t)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if e.op == "/":
            if b == 0:
                raise DomainError("division by zero")
            return a / b
        if e.op == "^":
            if b != int(b) and a <= 0:
                raise DomainError(
                    f"non-integer power of non-positive base {a}")
            if a == 0 and b < 0:
                raise DomainError("zero base with negative exponent")
            return a ** b
    raise TypeError(f"not an Expr: {e!r}")


def is_constant(e):
    """True if the expression contains no variable."""
    if isinstance(e, (Num, Pi)):
        return True
    if isinstance(e, Var):
        return False
    if isinstance(e, Neg):
        return is_constant(e.arg)
    if isinstance(e, Call):
        return is_constant(e.arg)
    if isinstance(e, BinOp):
        return is_constant(e.left) and is_constant(e.right)
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Differentiation (with constant folding only)
# ---------------------------------------------------------------------------

def _fold(e):
    """Fold a constant subexpression to a literal when it evaluates cleanly."""
    if is_constant(e) and not isinstance(e, (Num, Pi)):
        try:
            return Num(evaluate(e, 0.0))
        except DomainError:
            return e
    return e


def _is_zero(e):
    return isinstance(e, Num) and e.value == 0


def _is_one(e):
    return isinstance(e, Num) and e.value == 1


def _add(a, b):
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return _fold(BinOp("+", a, b))


def _sub(a, b):
    if _is_zero(b):
        return a
    if _is_zero(a):
        return Neg(b)
    return _fold(BinOp("-", a, b))


def _mul(a, b):
    if _is_zero(a) or _is_zero(b):
        return Num(0.0)
    if _is_one(a):
        return b
    if _is_one(b):
        return a
    return _fold(BinOp("*", a, b))


def _div(a, b):
    if _is_zero(a):
        return Num(0.0)
    if _is_one(b):
        return a
    return _fold(BinOp("/", a, b))


def _pow(a, b):
    if _is_one(b):
        return a
    if _is_zero(b):
        return Num(1.0)
    return _fold(BinOp("^", a, b))


def _neg(a):
    if isinstance(a, Num):
        return Num(-a.value)
    return Neg(a)


def differentiate(e):
    """Exact symbolic derivative with respect to t."""
    if isinstance(e, (Num, Pi)):
        return Num(0.0)
    if isinstance(e, Var):
        return Num(1.0)
    if isinstance(e, Neg):
        return _neg(differentiate(e.arg))
    if isinstance(e, Call):
        d = differentiate(e.arg)
        x = e.arg
        if e.fn == "sin":
            return _mul(Call("cos", x), d)
        if e.fn == "cos":
            return _neg(_mul(Call("sin", x), d))
        if e.fn == "tan":
            return _div(d, _pow(Call("cos", x), Num(2.0)))
        if e.fn == "sqrt":
            return _div(d, _mul(Num(2.0), Call("sqrt", x)))
        if e.fn == "exp":
            return _mul(Call("exp", x), d)
        if e.fn == "log":
            return _div(d, x)
        if e.fn == "abs":
            # sign(x) * x', valid away from 0
            return _mul(_div(x, Call("abs", x)), d)
    if isinstance(e, BinOp):
        a, b = e.left, e.right
        da, db = differentiate(a), differentiate(b)
        if e.op == "+":
            return _add(da, db)
        if e.op == "-":
            return _sub(da, db)
        if e.op == "*":
            return _add(_mul(da, b), _mul(a, db))
        if e.op == "/":
            return _div(_sub(_mul(da, b), _mul(a, db)), _pow(b, Num(2.0)))
        if e.op == "^":
            if is_constant(b):
                return _mul(_mul(b, _pow(a, _fold(_sub(b, Num(1.0))))), da)
            if is_constant(a):
                return _mul(_mul(e, Call("log", a)), db)
            # general f^g
            return _mul(e, _add(_mul(db, Call("log", a)),
                                _div(_mul(b, da), a)))
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# Compilation to vectorized numpy callables
# ---------------------------------------------------------------------------

def _codegen(e):
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Pi):
        return "np.pi"
    if isinstance(e, Var):
        return "t"
    if isinstance(e, Neg):
        return f"(-{_codegen(e.arg)})"
    if isinstance(e, Call):
        fn = {"abs": "np.abs", "log": "np.log", "sqrt": "np.sqrt",
              "sin": "np.sin", "cos": "np.cos", "tan": "np.tan",
              "exp": "np.exp"}[e.fn]
        return f"{fn}({_codegen(e.arg)})"
    if isinstance(e, BinOp):
        a, b = _codegen(e.left), _codegen(e.right)
        if e.op == "^":
            return f"np.power({a},{b})"
        return f"({a}{e.op}{b})"
    raise TypeError(f"not an Expr: {e!r}")


def compile_fn(e):
    """Compile to a callable mapping float arrays to float arrays.

    No domain checking is performed; use :func:`evaluate` for checked
    scalar evaluation.
    """
    if isinstance(e, str):
        e = parse(e)
    raw = eval("lambda t: " + _codegen(e), {"np": np, "__builtins__": {}})

    def fn(t):
        t = np.asarray(t, dtype=float)
        out = np.asarray(raw(t), dtype=float)
        if out.shape != t.shape:
            out = np.broadcast_to(out, t.shape)
        return out

    return fn


# sources whose parse and compiled derivatives are kept; the least
# recently used is dropped first
MEMO_SIZE = 64


@lru_cache(maxsize=MEMO_SIZE)
def _parsed(text):
    return parse(text)


@lru_cache(maxsize=MEMO_SIZE)
def compiled(source, order):
    """compile_fn of the order-th derivative of source, expression text or
    an Expr.

    Memoised by (source, order): compile_fn runs only on a pair that is not
    among the MEMO_SIZE most recently used, and a text is parsed once for
    all its orders.  The callables are pure, so callers share them.  An
    error is raised again on every call; none is kept.
    """
    e = _parsed(source) if isinstance(source, str) else as_expr(source)
    for _ in range(order):
        e = differentiate(e)
    return compile_fn(e)


def constant_value(source):
    """The value of expression text or an Expr without t, as its compiled
    function gives it at every parameter; None if it has t."""
    e = _parsed(source) if isinstance(source, str) else as_expr(source)
    if not is_constant(e):
        return None
    with np.errstate(all="ignore"):     # a non-finite value is the caller's
        return float(compiled(source, 0)(0.0))


def as_expr(obj):
    """Coerce text, a number, or an Expr to an Expr."""
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, str):
        return parse(obj)
    if isinstance(obj, (int, float)):
        return Num(float(obj))
    raise TypeError(f"cannot interpret {obj!r} as an expression")
