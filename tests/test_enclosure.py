"""Containment and width contracts of the certified interval layer.

mpmath serves as the independent reference for exp2 and log2, at 300 bits
or 64 bits above the drawn precision; every enclosure must contain the
reference value and meet its width bound.  Products and quotients are
checked against exact Fraction corners.
"""

import random
from fractions import Fraction
from math import ceil, floor, gcd

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from thermoait.bitstring import BitString
from thermoait.dyadic import Dyadic
import thermoait.enclosure as enclosure
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


PRECISIONS = st.integers(16, 1024)
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)


@PROPERTY
@given(st.integers(-600, 200), st.integers(1, 97), PRECISIONS)
def test_exp2_random_containment(p, q, prec):
    x = Fraction(p, q)
    e = exp2_enclosure(x, prec)
    with mpmath.workprec(prec + 64):
        assert ref_contains(e, mpmath.power(2, mpmath.mpf(p) / q))
    assert e.width().as_fraction() <= Fraction(1, 2**prec) * max(1, 2**(x.numerator // x.denominator + 1))


@PROPERTY
@given(st.fractions(max_denominator=10**12) | st.integers(-10**6, 10**6),
       st.integers(4, 300))
@example(Fraction(-7, 3), 64)
@example(Fraction(-8, 4), 64)
def test_exp2_split_is_the_fraction_split(x, prec):
    # exp2 splits x = n + f with one divmod of its numerator; the reference
    # splits it in Fractions, f = x - floor(x), and runs the same kernel
    x = Fraction(x)
    n = floor(x)
    f = x - n
    if f == 0:
        want = Enclosure.point(Dyadic(1, n))
    else:
        w = prec + enclosure._GUARD
        l2_lo, l2_hi = enclosure._ln2_fixed(w)
        f_lo = (f.numerator << w) // f.denominator
        f_hi = -((-f.numerator << w) // f.denominator)
        s_lo, s_hi = enclosure._exp_fixed(f_lo * l2_lo >> w,
                                          -(-f_hi * l2_hi >> w), w)
        want = Enclosure(Dyadic(s_lo, n - w), Dyadic(s_hi, n - w))
    got = exp2_enclosure(x, prec)
    assert (got.lo, got.hi) == (want.lo, want.hi)


def test_log2_exact_power_of_two():
    e = log2_enclosure(Enclosure.point(Dyadic(1, -2)))
    assert e.lo == e.hi == Dyadic(-2)


@PROPERTY
@given(st.integers(1, 2**400), st.integers(-40, 40), PRECISIONS)
def test_log2_random_containment(m, ex, prec):
    # a mantissa wider than the working scale 2^w is the wide case of the
    # integer reduction z = (m - h)/(m + h)
    e = log2_enclosure(Enclosure.point(Dyadic(m, ex)), prec)
    with mpmath.workprec(max(prec, m.bit_length()) + 64):
        assert ref_contains(e, mpmath.log(mpmath.mpf(m), 2) + ex)
    assert e.width().as_fraction() <= Fraction(1, 2**(prec - 4))


def _two_series_log2(v, prec):
    # the reference: one atanh series per end, each over its own end's z
    w = prec + enclosure._GUARD
    l2_lo, l2_hi = enclosure._ln2_fixed(w)
    (g_lo, z_lo, z_lo_up), (g_hi, z_hi_dn, z_hi) = (
        enclosure._binade(d, w) for d in (v.lo, v.hi))
    s_lo = enclosure._atanh_fixed(z_lo, z_lo_up, w)[0]
    s_hi = enclosure._atanh_fixed(z_hi_dn, z_hi, w)[1]
    return Enclosure(
        Dyadic(g_lo) + Dyadic((s_lo << (w + 1)) // l2_hi, -w),
        Dyadic(g_hi) + Dyadic(-(-(s_hi << (w + 1)) // l2_lo), -w))


@PROPERTY
@given(st.integers(1, 2**200), st.integers(-40, 40), st.integers(0, 2**64),
       st.integers(0, 1100), st.booleans(), PRECISIONS)
def test_log2_one_series_per_binade(m, ex, gap, shift, straddle, prec):
    # [m 2^ex, m 2^ex + gap 2^(ex - shift)], or with straddle an interval
    # from just below the power of two 2^top to just above it
    if straddle:
        top = ex + m.bit_length()
        lo = Dyadic(1, top) - Dyadic(gap + 1, top - shift - 66)
        hi = Dyadic(1, top) + Dyadic(m, top - shift - 202)
    else:
        lo = Dyadic(m, ex)
        hi = lo + Dyadic(gap, ex - shift)
    v = Enclosure(lo, hi)
    e, ref = log2_enclosure(v, prec), _two_series_log2(v, prec)
    assert e.hi == ref.hi
    assert ref.lo <= e.lo
    bits = max(prec, lo.m.bit_length(), hi.m.bit_length()) + 64
    with mpmath.workprec(bits):
        lo_ref = mpmath.log(mpmath.mpf(lo.m) * mpmath.power(2, lo.e), 2)
        hi_ref = mpmath.log(mpmath.mpf(hi.m) * mpmath.power(2, hi.e), 2)
        assert ref_contains(e, lo_ref) and ref_contains(e, hi_ref)


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


DYADICS = st.builds(Dyadic, st.just(0) | st.integers(-2**300, 2**300),
                    st.integers(-300, 300))
NONNEGATIVE = st.builds(Dyadic, st.just(0) | st.integers(1, 2**300),
                        st.integers(-300, 300))
POSITIVE = st.builds(Dyadic, st.integers(1, 2**300), st.integers(-300, 300))


def _sorted_enclosure(x, y):
    return Enclosure(min(x, y), max(x, y))


# every sign case: nonnegative, nonpositive, straddling 0, zero endpoints
INTERVALS = (st.builds(_sorted_enclosure, NONNEGATIVE, NONNEGATIVE)
             | st.builds(lambda e: -e, st.builds(_sorted_enclosure,
                                                 NONNEGATIVE, NONNEGATIVE))
             | st.builds(lambda x, y: Enclosure(-x, y), NONNEGATIVE, NONNEGATIVE)
             | st.builds(_sorted_enclosure, DYADICS, DYADICS))
DIVISORS = (st.builds(_sorted_enclosure, POSITIVE, POSITIVE)
            | st.builds(lambda e: -e, st.builds(_sorted_enclosure,
                                                POSITIVE, POSITIVE)))


def _corners(a, b, op):
    return [op(x.as_fraction(), y.as_fraction())
            for x in (a.lo, a.hi) for y in (b.lo, b.hi)]


def _eight_quotient_hull(a, b, n):
    """The reference division: every directed quotient of the four
    endpoint pairs, keeping the extremes."""
    lo = min(enclosure._div_dyadic(x, y, n, up=False)
             for x in (a.lo, a.hi) for y in (b.lo, b.hi))
    hi = max(enclosure._div_dyadic(x, y, n, up=True)
             for x in (a.lo, a.hi) for y in (b.lo, b.hi))
    return lo, hi


@PROPERTY
@given(INTERVALS, DIVISORS, PRECISIONS)
def test_div_random_containment(a, b, prec):
    q = div(a, b, prec)
    for exact in _corners(a, b, lambda x, y: x / y):
        assert q.contains(exact)
    lo, hi = _eight_quotient_hull(a, b, prec + enclosure._GUARD)
    assert lo <= q.lo and q.hi <= hi


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


@PROPERTY
@given(INTERVALS, INTERVALS)
def test_enclosure_arithmetic_containment(a, b):
    # ring operations are exact: the product is the hull of the four
    # corner products, whichever sign case picks its endpoints
    products = _corners(a, b, lambda x, y: x * y)
    c = a * b
    assert (c.lo.as_fraction(), c.hi.as_fraction()) == (min(products), max(products))
    s, d = a + b, a - b
    assert s.lo.as_fraction() == a.lo.as_fraction() + b.lo.as_fraction()
    assert s.hi.as_fraction() == a.hi.as_fraction() + b.hi.as_fraction()
    assert d.lo.as_fraction() == a.lo.as_fraction() - b.hi.as_fraction()
    assert d.hi.as_fraction() == a.hi.as_fraction() - b.lo.as_fraction()


@PROPERTY
@given(DYADICS, DYADICS)
@example(Dyadic(3, -1), Dyadic(1))      # 3/2 > 1: hi's exponent larger
@example(Dyadic(5), Dyadic(1, 2))       # 5 > 4: hi's exponent larger
@example(Dyadic(1, 2), Dyadic(7, -1))   # 4 > 7/2: lo's exponent larger
@example(Dyadic(1, 2), Dyadic(9, -1))   # 4 <= 9/2
def test_inverted_enclosure_raises(lo, hi):
    if hi.as_fraction() < lo.as_fraction():
        with pytest.raises(ValueError, match="inverted"):
            Enclosure(lo, hi)
    else:
        e = Enclosure(lo, hi)
        assert (e.lo, e.hi) == (lo, hi)


def _from_rational_reference(q: Fraction, prec: int):
    """(lo, hi) as (m, e) pairs: q itself where it is dyadic, else q
    rounded down and up to the grid 2^-(prec + guard), in Fractions."""
    d = q.denominator
    if d & (d - 1) == 0:
        x = Dyadic.from_fraction(q)
        return (x.m, x.e), (x.m, x.e)
    n = prec + enclosure._GUARD
    lo = Dyadic(floor(q * 2**n), -n)
    hi = Dyadic(ceil(q * 2**n), -n)
    return (lo.m, lo.e), (hi.m, hi.e)


RATIONALS = (DYADICS | st.integers(-2**100, 2**100)
             | st.fractions(max_denominator=2**70)
             | st.builds(lambda m, k: Fraction(m, 1 << k),
                         st.integers(-2**100, 2**100), st.integers(0, 200)))


@PROPERTY
@given(RATIONALS, PRECISIONS)
@example(Dyadic(0), 64)
@example(Dyadic(-3, -7), 64)
@example(-5, 64)
@example(Fraction(7, 8), 64)
@example(Fraction(-1, 3), 16)
def test_from_rational_matches_the_fraction_reference(q, prec):
    e = Enclosure.from_rational(q, prec)
    q = q.as_fraction() if isinstance(q, Dyadic) else Fraction(q)
    assert ((e.lo.m, e.lo.e), (e.hi.m, e.hi.e)
            ) == _from_rational_reference(q, prec)


def test_clamp_nonnegative():
    e = Enclosure(Dyadic(-1, -10), Dyadic(1, -5)).clamp_nonnegative()
    assert e.lo == Dyadic(0)
    with pytest.raises(PrecisionError):
        Enclosure(Dyadic(-2), Dyadic(-1)).clamp_nonnegative()


@PROPERTY
@given(DYADICS, DYADICS)
@example(Dyadic(0), Dyadic(0))
@example(Dyadic(-1, -10), Dyadic(0))
@example(Dyadic(-2), Dyadic(-1))
def test_clamp_nonnegative_is_max_with_zero(a, b):
    lo, hi = min(a, b), max(a, b)
    zero = Dyadic(0)
    if hi < zero:
        with pytest.raises(PrecisionError):
            Enclosure(lo, hi).clamp_nonnegative()
        return
    e = Enclosure(lo, hi).clamp_nonnegative()
    assert ((e.lo.m, e.lo.e), (e.hi.m, e.hi.e)) == (
        (max(lo, zero).m, max(lo, zero).e), (max(hi, zero).m, max(hi, zero).e))


@PROPERTY
@given(st.integers(-2**40, 2**40), st.integers(1, 2**40), PRECISIONS)
@example(-7, 1, 64)
@example(-1, 3, 16)
@example(5, 8, 64)
def test_exp2_ratio_is_exp2_of_the_fraction(num, den, prec):
    g = gcd(num, den)
    num, den = num // g, den // g
    got = enclosure._exp2_ratio(num, den, prec)
    want = exp2_enclosure(Fraction(num, den), prec)
    assert ((got.lo.m, got.lo.e), (got.hi.m, got.hi.e)) == (
        (want.lo.m, want.lo.e), (want.hi.m, want.hi.e))


def test_temperature_validation():
    assert parse_temperature_text("0.11") == Dyadic(3, -2)
    assert parse_temperature_text("0.101") == Dyadic(5, -3)
