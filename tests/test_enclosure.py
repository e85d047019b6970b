"""Containment and width contracts of the certified interval layer.

mpmath at 300 bits serves as the independent reference for exp2 and log2;
every enclosure must contain the reference value and meet its width bound.
"""

import random
from fractions import Fraction

import mpmath
import pytest

from thermoait.bitstring import BitString
from thermoait.dyadic import Dyadic
from thermoait.enclosure import (
    Enclosure, bits_prefix, certified_lt, certified_positive,
    div, exp2_enclosure, ln2_enclosure, log2_enclosure,
    parse_temperature_text, prefix_value,
)
from thermoait.errors import PrecisionError

mpmath.mp.prec = 300


def ref_contains(encl, value):
    lo = mpmath.mpf(encl.lo.m) * mpmath.power(2, encl.lo.e)
    hi = mpmath.mpf(encl.hi.m) * mpmath.power(2, encl.hi.e)
    return lo <= value <= hi


def test_exp2_integer_exact():
    e = exp2_enclosure(Fraction(-3))
    assert e.lo == e.hi == Dyadic(1, -3)


def test_exp2_width_contract():
    for prec in (16, 53, 120):
        e = exp2_enclosure(Fraction(-5, 3), prec)
        assert e.width().as_fraction() <= Fraction(1, 2**prec)
        assert ref_contains(e, mpmath.power(2, mpmath.mpf(-5) / 3))


def test_exp2_random_containment():
    rng = random.Random(20260826)
    for _ in range(300):
        p = rng.randint(-600, 200)
        q = rng.randint(1, 97)
        x = Fraction(p, q)
        e = exp2_enclosure(x, 64)
        ref = mpmath.power(2, mpmath.mpf(p) / q)
        assert ref_contains(e, ref)
        assert e.width().as_fraction() <= Fraction(1, 2**64) * max(1, 2**(x.numerator // x.denominator + 1))


def test_log2_exact_power_of_two():
    e = log2_enclosure(Enclosure.point(Dyadic(1, -2)))
    assert e.lo == e.hi == Dyadic(-2)


def test_log2_random_containment():
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randint(1, 10**9)
        ex = rng.randint(-40, 40)
        d = Dyadic(m, ex)
        e = log2_enclosure(Enclosure.point(d), 64)
        ref = mpmath.log(mpmath.mpf(m), 2) + ex
        assert ref_contains(e, ref)
        assert e.width().as_fraction() <= Fraction(1, 2**60)


def test_log2_rejects_nonpositive():
    with pytest.raises(PrecisionError):
        log2_enclosure(Enclosure.point(Dyadic(0)))


def test_div_contract():
    a = Enclosure.point(Dyadic(1))
    b = Enclosure.point(Dyadic(3))
    q = div(a, b, 64)
    assert q.contains(Fraction(1, 3))
    assert q.width().as_fraction() <= Fraction(1, 2**64)
    with pytest.raises(PrecisionError):
        div(a, Enclosure(Dyadic(-1), Dyadic(1)))


def test_div_random_containment():
    rng = random.Random(99)
    for _ in range(200):
        a = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))
        b = Fraction(rng.randint(1, 10**6), rng.randint(1, 999))
        q = div(Enclosure.from_rational(a), Enclosure.from_rational(b), 64)
        assert q.contains(a / b)


def test_inv_refines_monotonically():
    prev = None
    for prec in (16, 32, 64, 128):
        e = div(Enclosure.point(1), Enclosure.point(Dyadic(7)), prec)
        assert e.contains(Fraction(1, 7))
        if prev is not None:
            assert prev.lo <= e.lo and e.hi <= prev.hi
        prev = e


def test_ln2_reference():
    e = ln2_enclosure(100)
    assert ref_contains(e, mpmath.log(2))
    assert e.width().as_fraction() <= Fraction(1, 2**96)


def test_certified_comparisons():
    a = Enclosure(Dyadic(1, -2), Dyadic(1, -1))
    b = Enclosure(Dyadic(3, -2), Dyadic(1))
    assert certified_lt(a, b) is True
    assert certified_lt(b, a) is False
    c = Enclosure(Dyadic(1, -2), Dyadic(1))
    assert certified_lt(a, c) is None
    assert certified_positive(a) is True


def test_bits_prefix_dyadic():
    assert bits_prefix(Dyadic(5, -3), 6) == BitString("101000")
    assert bits_prefix(Dyadic(5, -3), 0) == BitString("")


def test_bits_prefix_enclosure():
    alpha = Enclosure(Dyadic(0x2C, -6) + Dyadic(1, -20),
                      Dyadic(0x2C, -6) + Dyadic(1, -19))
    assert bits_prefix(alpha, 6) == BitString("101100")
    straddle = Enclosure(Dyadic(1, -1) - Dyadic(1, -30), Dyadic(1, -1) + Dyadic(1, -30))
    with pytest.raises(PrecisionError):
        bits_prefix(straddle, 6)


def test_bits_prefix_bracket_property():
    # 0.alpha_n <= alpha < 0.alpha_n + 2^-n for fractional alpha in [0,1)
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 30)
        a = Dyadic(rng.randint(0, 2**40 - 1), -40)
        p = prefix_value(bits_prefix(a, n))
        assert p.as_fraction() <= a.as_fraction() < (p + Dyadic(1, -n)).as_fraction()


def test_enclosure_arithmetic_containment():
    a = Enclosure(Dyadic(1, -2), Dyadic(1, -1))
    b = Enclosure(Dyadic(-1), Dyadic(2))
    for x in (Fraction(1, 4), Fraction(3, 8)):
        for y in (Fraction(-1), Fraction(0), Fraction(2)):
            assert (a + b).contains(x + y)
            assert (a - b).contains(x - y)
            assert (a * b).contains(x * y)


def test_clamp_nonnegative():
    e = Enclosure(Dyadic(-1, -10), Dyadic(1, -5)).clamp_nonnegative()
    assert e.lo == Dyadic(0)
    with pytest.raises(PrecisionError):
        Enclosure(Dyadic(-2), Dyadic(-1)).clamp_nonnegative()


def test_temperature_validation():
    assert parse_temperature_text("0.11") == Dyadic(3, -2)
    assert parse_temperature_text("0.101") == Dyadic(5, -3)
