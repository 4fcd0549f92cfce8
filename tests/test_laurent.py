"""Exact Laurent-polynomial arithmetic and the rational-function test oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rational_oracle import RationalFunction, evaluate_at, exact_div, variable
from tropclust.errors import (
    DimensionMismatch,
    InvariantViolation,
    NotDivisible,
    TropclustError,
)
from tropclust.laurent import LaurentPolynomial

V = ("X1", "X2")


def poly(terms):
    return LaurentPolynomial(V, terms)


@st.composite
def polys(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        e = (draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
        c = draw(st.integers(-5, 5))
        terms[e] = c
    return poly(terms)


def test_constructors_and_zero():
    assert LaurentPolynomial(V, {}).is_zero()
    assert LaurentPolynomial.one(V) == LaurentPolynomial.constant(V, 1)
    assert LaurentPolynomial.constant(V, 0).is_zero()
    m = LaurentPolynomial(V, {(2, -1): 3})
    assert len(m.terms) == 1
    assert m.terms_sorted() == [((2, -1), 3)]
    x = variable(V, "X2", -2)
    assert x.terms_sorted() == [((0, -2), 1)]


def test_zero_coefficients_are_dropped():
    assert poly({(1, 0): 0, (0, 0): 2}) == LaurentPolynomial.constant(V, 2)
    assert len(poly({(1, 0): 1, (0, 1): -1}).terms) == 2


def test_products_and_sums_drop_cancelled_terms():
    """Sums and products skip the validating constructor; where terms
    cancel they still equal its result, keep no zero coefficient, and hash
    alike."""
    x = variable(V, "X1")
    cases = [
        ((x - 1) * (x + 1), {(2, 0): 1, (0, 0): -1}),
        ((x - 1) * LaurentPolynomial(V, {}), {}),
        ((x + 1) + (-x), {(0, 0): 1}),
        ((x - 1) + (1 - x), {}),
    ]
    for got, terms in cases:
        checked = poly(terms)
        assert got == checked and hash(got) == hash(checked)
        assert got.terms == terms
        assert 0 not in got.terms.values()
    assert ((x - 1) * (x + 1)).is_zero() is False
    assert ((x - 1) * LaurentPolynomial(V, {})).is_zero()


def test_rejects_bad_input():
    with pytest.raises(InvariantViolation):
        LaurentPolynomial(("X1", "X1"), {})
    with pytest.raises(DimensionMismatch):
        poly({(1,): 1})
    with pytest.raises(InvariantViolation):
        poly({(1, 0): Fraction(1, 2)})
    with pytest.raises(InvariantViolation, match="^non-integer exponent"):
        poly({(True, 0): 1})
    with pytest.raises(InvariantViolation, match="^non-integer coefficient"):
        poly({(1, 0): True})
    with pytest.raises(DimensionMismatch):
        poly({(1, 0): 1}) + LaurentPolynomial.one(("Y",))


def test_arithmetic_small_example():
    x1 = variable(V, "X1")
    x2 = variable(V, "X2")
    p = (x1 + x2) * (x1 - x2)
    assert p == x1**2 - x2**2
    assert (1 + x1) ** 2 == 1 + 2 * x1 + x1**2
    with pytest.raises(ValueError):
        x1 ** (-1)
    assert (1 + x1) * (1 + x2) * x1 == x1 + x1**2 + x1 * x2 + x1**2 * x2


def test_power_refuses_bad_exponents_with_a_library_error():
    """A negative or non-integer exponent, a bool included, raises
    ``InvariantViolation``: a ``TropclustError`` that is still a
    ``ValueError``."""
    x1 = variable(V, "X1")
    for k in (-1, 1.5, True):
        with pytest.raises(InvariantViolation, match="^exponent must be a nonnegative integer") as info:
            x1**k
        assert isinstance(info.value, TropclustError) and isinstance(info.value, ValueError)


def test_bool_operands_are_not_constants():
    """``True`` is an ``int`` to Python, but a bool operand of ``+``, ``-``
    or ``*`` is not taken as the constant 1."""
    x1 = LaurentPolynomial(("X1",), {(1,): 1})
    for op in (
        lambda: x1 + True,
        lambda: x1 - True,
        lambda: x1 * True,
        lambda: True + x1,
        lambda: True - x1,
        lambda: True * x1,
    ):
        with pytest.raises(TypeError):
            op()


@settings(max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == LaurentPolynomial(V, {})


@settings(max_examples=60)
@given(polys(), polys())
def test_exact_div_roundtrip(f, g):
    if g.is_zero():
        return
    q = exact_div(f * g, g)
    assert q == f


def test_exact_div_failure_modes():
    x1 = variable(V, "X1")
    x2 = variable(V, "X2")
    with pytest.raises(NotDivisible):
        exact_div(1 + x1, 1 + x2)
    with pytest.raises(NotDivisible):
        exact_div(1 + x1, LaurentPolynomial.constant(V, 2))
    with pytest.raises(ZeroDivisionError):
        exact_div(x1, LaurentPolynomial(V, {}))


def test_exact_div_with_negative_exponents():
    x1 = variable(V, "X1")
    x2inv = variable(V, "X2", -1)
    f = (1 + x1) * x2inv
    assert exact_div(f, x2inv) == 1 + x1


def test_positivity_predicates():
    x1 = variable(V, "X1")
    assert (1 + x1).is_positive()
    assert not (1 - x1).is_positive()
    assert LaurentPolynomial(V, {}).is_positive()  # vacuously, by contract


def test_rational_function_equality_and_pow():
    x1 = RationalFunction.variable(V, "X1")
    x2 = RationalFunction.variable(V, "X2")
    one = RationalFunction.from_poly(LaurentPolynomial.one(V))
    assert x1 * x1 ** (-1) == one
    assert (x1 + x2) ** 2 == x1**2 + 2 * x1 * x2 + x2**2
    assert x1 ** (-2) == RationalFunction.variable(V, "X1", -2)
    with pytest.raises(ZeroDivisionError):
        RationalFunction.from_poly(LaurentPolynomial(V, {})) ** (-1)


def test_rational_function_as_laurent():
    x1 = variable(V, "X1")
    x2 = variable(V, "X2")
    r = RationalFunction(x1**2 - x2**2, x1 + x2)
    assert r.as_laurent() == x1 - x2
    monomial_quotient = RationalFunction(x1 + 1, x2).as_laurent()
    assert monomial_quotient == poly({(1, -1): 1, (0, -1): 1})
    with pytest.raises(NotDivisible):
        RationalFunction(1 + x1, 1 + x2).as_laurent()


def test_evaluate_at_substitutes_per_variable():
    x1 = variable(V, "X1")
    x2 = variable(V, "X2")
    f = x1 * x2 + variable(V, "X1", -1)
    w = ("Y1", "Y2")
    y1 = RationalFunction.variable(w, "Y1")
    y2 = RationalFunction.variable(w, "Y2")
    got = evaluate_at(f, [y1 * y2, y2 ** (-1)])
    expect = y1 * y2 * y2 ** (-1) + (y1 * y2) ** (-1)
    assert got == expect
    with pytest.raises(DimensionMismatch):
        evaluate_at(f, [y1])


def test_evaluate_at_identity_assignment():
    f = poly({(2, -1): 3, (0, 0): 1})
    xs = [RationalFunction.variable(V, v) for v in V]
    assert evaluate_at(f, xs) == f
