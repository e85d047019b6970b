"""Exactness and ordering of dyadic rationals."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from thermoait.dyadic import Dyadic, from_rational_ceil, from_rational_floor
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


def test_decimal_exact():
    assert Dyadic(3, -2).decimal() == "0.75"
    assert Dyadic(-1, -4).decimal() == "-0.0625"
    assert Dyadic(5, 1).decimal() == "10"


def test_floor_scaled():
    assert Dyadic(5, -3).floor_scaled(2) == 2  # floor(5/8 * 4)
    assert Dyadic(-1, -3).floor_scaled(2) == -1


def test_directed_rational_rounding():
    lo = from_rational_floor(1, 3, 8)
    hi = from_rational_ceil(1, 3, 8)
    assert lo.as_fraction() <= Fraction(1, 3) <= hi.as_fraction()
    assert (hi - lo).as_fraction() <= Fraction(1, 256)


@given(dyadics, dyadics)
def test_ring_ops_exact(a, b):
    fa, fb = a.as_fraction(), b.as_fraction()
    assert (a + b).as_fraction() == fa + fb
    assert (a - b).as_fraction() == fa - fb
    assert (a * b).as_fraction() == fa * fb
    assert (-a).as_fraction() == -fa


@given(dyadics, dyadics)
def test_order_matches_rationals(a, b):
    assert (a < b) == (a.as_fraction() < b.as_fraction())
    assert (a == b) == (a.as_fraction() == b.as_fraction())


@given(dyadics, st.integers(min_value=-40, max_value=40))
def test_scale2(a, k):
    assert a.scale2(k).as_fraction() == a.as_fraction() * Fraction(2) ** k


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
