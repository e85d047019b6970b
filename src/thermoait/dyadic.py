"""Exact dyadic rational arithmetic.

A dyadic rational is m * 2**e with unbounded integer mantissa m and signed
integer exponent e.  Addition, subtraction, multiplication and scaling by
powers of two are exact; division is not closed and lives in the enclosure
layer, where it rounds outward.

The comparisons <, <=, > and >= are defined directly, each one shift by
the exponent difference and one integer compare.  A Dyadic operand of
the arithmetic and the comparisons is read as it is; an int is
converted first, and any other type (a Fraction too) raises TypeError,
or for == compares unequal.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .errors import SpecError

_DYADIC_RE = re.compile(r"^(-?\d+)\*2\^(-?\d+)$")
_NUMERAL_RE = re.compile(r"[+-]?[0-9]+")


class Dyadic:
    """Exact number mantissa * 2**exponent, kept in canonical form
    (mantissa odd or zero; zero has exponent 0)."""

    __slots__ = ("m", "e")

    def __init__(self, mantissa: int, exponent: int = 0):
        if mantissa & 1:  # odd: canonical as given
            self.m, self.e = mantissa, exponent
            return
        if mantissa == 0:
            self.m, self.e = 0, 0
            return
        shift = (mantissa & -mantissa).bit_length() - 1
        self.m = mantissa >> shift
        self.e = exponent + shift

    # -- constructors -------------------------------------------------

    @classmethod
    def from_fraction(cls, q: Fraction | int) -> "Dyadic":
        q = Fraction(q)
        d = q.denominator
        if d & (d - 1):
            raise SpecError(f"{q} is not dyadic (denominator not a power of two)")
        return cls(q.numerator, -(d.bit_length() - 1))

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse 'm*2^e', a plain integer, or 'p/q' with q a power of two;
        any other text raises SpecError naming it."""
        text = text.strip()
        m = _DYADIC_RE.match(text)
        if m:
            return cls(int_from_text(m.group(1)), int(m.group(2)))
        try:
            if "/" not in text:
                return cls(int_from_text(text))
            q = Fraction(text)
        except ZeroDivisionError:
            raise SpecError(f"zero denominator in {text!r}") from None
        except ValueError:
            raise SpecError(f"{text!r} is not a number: expected m*2^e, "
                            "an integer or p/q") from None
        return cls.from_fraction(q)

    # -- conversions --------------------------------------------------

    def as_fraction(self) -> Fraction:
        if self.e >= 0:
            return Fraction(self.m << self.e)
        return Fraction(self.m, 1 << -self.e)

    def __float__(self) -> float:
        # integer true division rounds correctly for any mantissa width
        if self.e >= 0:
            return float(self.m << self.e)
        return self.m / (1 << -self.e)

    def serialize(self) -> str:
        return f"{int_text(self.m)}*2^{self.e}"

    def decimal(self) -> str:
        """Exact decimal rendering (finite because the value is dyadic)."""
        if self.e >= 0:
            return int_text(self.m << self.e)
        digits = -self.e
        scaled = self.m * 5**digits  # m / 2^d = m*5^d / 10^d
        sign = "-" if scaled < 0 else ""
        s = int_text(abs(scaled)).rjust(digits + 1, "0")
        return f"{sign}{s[:-digits]}.{s[-digits:]}"

    def __repr__(self) -> str:
        return f"Dyadic({self.serialize()})"

    # -- arithmetic (exact) -------------------------------------------

    def __add__(self, other):
        if type(other) is not Dyadic:
            other = _coerce(other)
        d = self.e - other.e
        if d >= 0:
            return Dyadic((self.m << d) + other.m, other.e)
        return Dyadic(self.m + (other.m << -d), self.e)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not Dyadic:
            other = _coerce(other)
        d = self.e - other.e
        if d >= 0:
            return Dyadic((self.m << d) - other.m, other.e)
        return Dyadic(self.m - (other.m << -d), self.e)

    def __rsub__(self, other):
        return _coerce(other) - self

    # a product of odd mantissas is odd, and so are -m and |m|: these
    # results are canonical as built

    def __mul__(self, other):
        if type(other) is not Dyadic:
            other = _coerce(other)
        return _canonical(self.m * other.m, self.e + other.e)

    __rmul__ = __mul__

    def __neg__(self):
        return _canonical(-self.m, self.e)

    def __abs__(self):
        return _canonical(abs(self.m), self.e)

    def scale2(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k."""
        return _canonical(self.m, self.e + k)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other):
        if type(other) is not Dyadic:
            if not isinstance(other, (Dyadic, int)):
                return NotImplemented
            other = _coerce(other)
        return self.m == other.m and self.e == other.e

    # each compares the mantissas shifted to the smaller exponent

    def __lt__(self, other):
        if type(other) is not Dyadic:
            other = _coerce(other)
        d = self.e - other.e
        if d >= 0:
            return self.m << d < other.m
        return self.m < other.m << -d

    def __le__(self, other):
        if type(other) is not Dyadic:
            other = _coerce(other)
        d = self.e - other.e
        if d >= 0:
            return self.m << d <= other.m
        return self.m <= other.m << -d

    def __gt__(self, other):
        if type(other) is not Dyadic:
            other = _coerce(other)
        d = self.e - other.e
        if d >= 0:
            return self.m << d > other.m
        return self.m > other.m << -d

    def __ge__(self, other):
        if type(other) is not Dyadic:
            other = _coerce(other)
        d = self.e - other.e
        if d >= 0:
            return self.m << d >= other.m
        return self.m >= other.m << -d

    def __hash__(self):
        return hash(self.as_fraction())

    @property
    def sign(self) -> int:
        return (self.m > 0) - (self.m < 0)

    # -- rounding -----------------------------------------------------

    def floor_scaled(self, n: int) -> int:
        """floor(self * 2**n) as an exact integer."""
        s = self.e + n
        if s >= 0:
            return self.m << s
        return self.m >> -s


def int_text(n: int) -> str:
    """str(n) for an int of any size.  Decimal converts from the binary
    digits, so the interpreter's int-to-str digit limit does not apply."""
    return str(Decimal(n))


def int_from_text(text: str) -> int:
    """int(text) for a decimal numeral of any length, by way of Decimal
    (exact, and free of the digit limit); any other text goes to int()."""
    if _NUMERAL_RE.fullmatch(text):
        return int(Decimal(text))
    return int(text)


def fraction_text(q: Fraction) -> str:
    """str(q) ('num/den', or 'num' for an integer) of any size."""
    if q.denominator == 1:
        return int_text(q.numerator)
    return f"{int_text(q.numerator)}/{int_text(q.denominator)}"


_new = object.__new__


def _canonical(m: int, e: int) -> Dyadic:
    """The Dyadic m * 2**e for an m known to be odd or zero, built without
    the trailing-zero strip of __init__; zero keeps exponent 0."""
    d = _new(Dyadic)
    if m:
        d.m, d.e = m, e
    else:
        d.m = d.e = 0
    return d


def _coerce(x) -> Dyadic:
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x)
    raise TypeError(f"cannot mix Dyadic with {type(x).__name__}")


def from_rational_ceil(p: int, q: int, precision_bits: int) -> Dyadic:
    """Least dyadic with 2**-precision_bits resolution that is >= p/q (q > 0)."""
    n = precision_bits
    return Dyadic(-((-p << n) // q), -n)
