import numpy as np
import pytest

from normplane import builtin_ball, curve_from_radius, expressions
from normplane.quadrature import gauss_legendre

EXAMPLE22_RADII = [
    "1",
    "16/sqrt((15*cos(pi/2*t)^2+1)^3)",
    "4",
    "16/sqrt((15*sin(pi/2*t)^2+1)^3)",
]

EXAMPLE22_EXPLICIT = [
    ("2-t", "1+t"),
    ("16*cos(pi/2*t)/sqrt(15*cos(pi/2*t)^2+1)+1",
     "sin(pi/2*t)/sqrt(15*cos(pi/2*t)^2+1)+1"),
    ("-11+4*t", "9-4*t"),
    ("cos(pi/2*t)/sqrt(15*sin(pi/2*t)^2+1)+1",
     "16*sin(pi/2*t)/sqrt(15*sin(pi/2*t)^2+1)+1"),
]


@pytest.fixture(scope="session")
def euclidean():
    return builtin_ball("euclidean")


@pytest.fixture(scope="session")
def square():
    return builtin_ball("square")


@pytest.fixture(scope="session")
def hexagon():
    return builtin_ball("regular_2k_gon", k=3)


@pytest.fixture(scope="session")
def mixed():
    return builtin_ball("mixed_example21")


@pytest.fixture(scope="session")
def all_balls(euclidean, square, hexagon, mixed):
    return {"euclidean": euclidean, "square": square,
            "hexagon": hexagon, "mixed": mixed}


@pytest.fixture(scope="session")
def example22(mixed):
    return curve_from_radius(mixed, EXAMPLE22_RADII, basepoint=(2, 1))


@pytest.fixture(scope="session")
def rectangle(square):
    # [-a, a] x [-b, b] on the square ball
    a, b = 1.7, 0.6
    curve = curve_from_radius(square, [b, a, b, a], basepoint=(a, -b))
    curve.ab = (a, b)
    return curve


def gauss_params(ball, per_piece):
    """per_piece Gauss-Legendre nodes on every piece of ball, in order."""
    x, _ = gauss_legendre(per_piece)
    t0, t1 = ball.t0[:, None], ball.t1[:, None]
    return (0.5 * (t0 + t1) + 0.5 * (t1 - t0) * x).ravel()


def rect_curve(square, a, b):
    return curve_from_radius(square, [b, a, b, a], basepoint=(a, -b))


@pytest.fixture(autouse=True)
def fresh_expression_memo():
    """Each test starts with empty expression memos, so the compiles a test
    counts do not depend on the tests run before it."""
    expressions.compiled.cache_clear()
    expressions._parsed.cache_clear()
