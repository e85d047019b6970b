"""Exactness and ordering of dyadic rationals."""

import operator
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from thermoait.dyadic import Dyadic, from_rational_ceil, int_text
from thermoait.errors import SpecError

dyadics = st.builds(Dyadic,
                    st.integers(min_value=-10**9, max_value=10**9),
                    st.integers(min_value=-60, max_value=60))


def test_canonical_form():
    d = Dyadic(12, -2)  # 12*2^-2 = 3
    assert (d.m, d.e) == (3, 0)
    assert Dyadic(0, 17) == Dyadic(0)


def test_parse_and_serialize():
    assert Dyadic.parse("3*2^-2") == Dyadic(3, -2)
    assert Dyadic.parse("-5") == Dyadic(-5)
    assert Dyadic.parse("7/8") == Dyadic(7, -3)
    assert Dyadic.parse(Dyadic(9, -5).serialize()) == Dyadic(9, -5)
    with pytest.raises(SpecError):
        Dyadic.parse("1/3")


@pytest.mark.parametrize("text, reason", [
    ("1/0", "zero denominator in '1/0'"),
    (" -3/0 ", "zero denominator in '-3/0'"),
    ("abc", "'abc' is not a number"),
    ("", "'' is not a number"),
    ("0.5", "'0.5' is not a number"),
    ("3*2^x", "'3*2^x' is not a number"),
    ("1/2/3", "'1/2/3' is not a number"),
])
def test_parse_rejects_malformed_text_naming_it(text, reason):
    with pytest.raises(SpecError, match=re.escape(reason)):
        Dyadic.parse(text)


def test_parse_reads_numerals_of_any_length():
    # past the interpreter's int-to-str digit limit, as int_from_text reads
    big = 10**5000 + 1
    assert Dyadic.parse(int_text(big)) == Dyadic(big)
    assert Dyadic.parse(f"-{int_text(big)}*2^-9") == Dyadic(-big, -9)


@given(st.integers(min_value=-2**200, max_value=2**200),
       st.integers(min_value=-300, max_value=300))
@example(0, 5)
@example(1, -7)
@example(-12, 3)
@example(2**100, 0)
def test_constructor_is_canonical_for_any_mantissa(m, e):
    d = Dyadic(m, e)
    assert d.m % 2 == 1 or (d.m, d.e) == (0, 0)
    assert d.as_fraction() == Fraction(m) * Fraction(2) ** e


def test_decimal_exact():
    assert Dyadic(3, -2).decimal() == "0.75"
    assert Dyadic(-1, -4).decimal() == "-0.0625"
    assert Dyadic(5, 1).decimal() == "10"


def test_floor_scaled():
    assert Dyadic(5, -3).floor_scaled(2) == 2  # floor(5/8 * 4)
    assert Dyadic(-1, -3).floor_scaled(2) == -1


def test_directed_rational_rounding():
    # the least multiple of 2^-8 at or above p/q
    for p, q in ((1, 3), (-1, 3), (3, 4), (0, 5)):
        hi = from_rational_ceil(p, q, 8).as_fraction()
        assert hi - Fraction(1, 256) < Fraction(p, q) <= hi
        assert (hi * 256).denominator == 1


@given(dyadics, dyadics)
def test_ring_ops_exact(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a * b).as_fraction() == fa * fb
    assert (-a).as_fraction() == -fa


def _value(x):
    return x.as_fraction() if isinstance(x, Dyadic) else Fraction(x)


@given(dyadics, dyadics | st.integers(min_value=-2**40, max_value=2**40))
@example(Dyadic(0), Dyadic(0))
@example(Dyadic(0), 0)
@example(Dyadic(-3, -2), Dyadic(0))
@example(Dyadic(5, 3), 40)
@example(Dyadic(-1, 40), -2**40)
def test_order_matches_rationals(a, b):
    # each comparison is defined on its own, so each is checked, with an
    # int on either side
    fa, fb = a.as_fraction(), _value(b)
    for x, y, fx, fy in ((a, b, fa, fb), (b, a, fb, fa)):
        assert (x < y) == (fx < fy)
        assert (x <= y) == (fx <= fy)
        assert (x > y) == (fx > fy)
        assert (x >= y) == (fx >= fy)
        assert (x == y) == (fx == fy)
        assert (x != y) == (fx != fy)
        assert _value(max(x, y)) == max(fx, fy)
        assert _value(min(x, y)) == min(fx, fy)


@given(dyadics, st.fractions())
def test_mixing_with_a_fraction_raises(a, q):
    for op in (operator.lt, operator.le, operator.gt, operator.ge,
               operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(a, q)
        with pytest.raises(TypeError):
            op(q, a)


@given(dyadics, st.integers(min_value=-40, max_value=40))
def test_scale2(a, k):
    assert a.scale2(k).as_fraction() == a.as_fraction() * Fraction(2) ** k


@given(dyadics, dyadics | st.integers(min_value=-2**40, max_value=2**40),
       st.integers(min_value=-40, max_value=40))
@example(Dyadic(0), Dyadic(3, 5), 7)
@example(Dyadic(-3, -2), 0, -4)
@example(Dyadic(0, 9), -6, 3)
def test_results_built_without_the_strip_are_canonical(a, b, k):
    # products, negation, |a| and scale2 build their result without
    # stripping trailing zeros: each must equal, field for field, the
    # canonical form of its value, zero with exponent 0
    for x in (a * b, b * a, -a, abs(a), a.scale2(k)):
        y = Dyadic.from_fraction(x.as_fraction())
        assert (x.m, x.e) == (y.m, y.e)


def test_float_wide_mantissa():
    # a 1101-bit mantissa whose value is just above 1
    assert float(Dyadic((1 << 1100) + 1, -1100)) == 1.0
    assert float(Dyadic(-((1 << 1100) + 3), -1099)) == -2.0
    assert float(Dyadic(3 * (1 << 1100) + 1, -1101)) == 1.5


def test_float_tiny_and_exact():
    assert float(Dyadic(1, -1074)) == 5e-324
    assert float(Dyadic(1, -1100)) == 0.0
    assert float(Dyadic((1 << 1100) + 1, -2100)) == 2.0**-1000
    assert float(Dyadic(3, -1075)) == 2 * 5e-324  # ties to even
    assert float(Dyadic(5, 3)) == 40.0
    assert float(Dyadic(-7, -2)) == -1.75
