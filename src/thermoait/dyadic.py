"""Exact dyadic rational arithmetic.

A dyadic rational is m * 2**e with unbounded integer mantissa m and signed
integer exponent e.  Addition, subtraction, multiplication and scaling by
powers of two are exact; division is not closed and lives in the enclosure
layer, where it rounds outward.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from functools import total_ordering

from .errors import SpecError

_DYADIC_RE = re.compile(r"^(-?\d+)\*2\^(-?\d+)$")
_NUMERAL_RE = re.compile(r"[+-]?[0-9]+")


@total_ordering
class Dyadic:
    """Exact number mantissa * 2**exponent, kept in canonical form
    (mantissa odd or zero; zero has exponent 0)."""

    __slots__ = ("m", "e")

    def __init__(self, mantissa: int, exponent: int = 0):
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
        """Parse 'm*2^e', a plain integer, or 'p/q' with q a power of two."""
        text = text.strip()
        m = _DYADIC_RE.match(text)
        if m:
            return cls(int(m.group(1)), int(m.group(2)))
        if "/" in text:
            return cls.from_fraction(Fraction(text))
        return cls(int(text))

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

    def _aligned(self, other: "Dyadic") -> tuple[int, int, int]:
        e = min(self.e, other.e)
        return self.m << (self.e - e), other.m << (other.e - e), e

    def __add__(self, other):
        other = _coerce(other)
        a, b, e = self._aligned(other)
        return Dyadic(a + b, e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        a, b, e = self._aligned(other)
        return Dyadic(a - b, e)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        return Dyadic(self.m * other.m, self.e + other.e)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.m, self.e)

    def __abs__(self):
        return Dyadic(abs(self.m), self.e)

    def scale2(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k."""
        return Dyadic(self.m, self.e + k)

    # -- comparisons --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, (Dyadic, int)):
            return NotImplemented
        other = _coerce(other)
        return self.m == other.m and self.e == other.e

    def __lt__(self, other):
        other = _coerce(other)
        a, b, _ = self._aligned(other)
        return a < b

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


def _coerce(x) -> Dyadic:
    if isinstance(x, Dyadic):
        return x
    if isinstance(x, int):
        return Dyadic(x)
    raise TypeError(f"cannot mix Dyadic with {type(x).__name__}")


ZERO = Dyadic(0)
ONE = Dyadic(1)


def from_rational_floor(p: int, q: int, precision_bits: int) -> Dyadic:
    """Largest dyadic with 2**-precision_bits resolution that is <= p/q (q > 0)."""
    n = precision_bits
    return Dyadic((p << n) // q, -n)


def from_rational_ceil(p: int, q: int, precision_bits: int) -> Dyadic:
    n = precision_bits
    return Dyadic(-((-p << n) // q), -n)
