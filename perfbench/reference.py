"""Independent reference values for the benchmark's correctness checks.

Closed-form partition functions, evaluated with mpmath at 512 bits, for
the three machines the workloads use.  With x = 2^(-1/T) and c_l the
number of domain elements of length l, Z(x) = sum c_l x^l is rational:

    geometric  c_l = 1 (l >= 1)              Z = x / (1 - x)
    literal    c_(2n+1) = 2^n                Z = x / (1 - 2x^2)
    sdm4       c_(2m+2) = d(m), d(m) = 2 d(m-1) + 3 d(m-2), d(0) = 1, d(1) = 2
                                             Z = x^2 / (1 - 2x^2 - 3x^4)

W and Y come from derivatives: W = T^2 Z'(T) / ln 2 = x dZ/dx and
Y = T^2 W'(T) / ln 2 = x dZ/dx + x^2 d^2Z/dx^2, carried exactly through a
second-order jet in x.  F, E, S and C follow from their definitions.
Nothing here imports the library under test.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpf

PREC = 512
# a reference may sit this far (relative) from the true value
_SLACK_BITS = PREC - 32

mp.prec = PREC


class Jet:
    """Value with first and second derivative in one variable."""

    __slots__ = ("v", "d1", "d2")

    def __init__(self, v, d1=0, d2=0):
        self.v, self.d1, self.d2 = mpf(v), mpf(d1), mpf(d2)

    def __add__(self, o):
        o = _jet(o)
        return Jet(self.v + o.v, self.d1 + o.d1, self.d2 + o.d2)

    def __neg__(self):
        return Jet(-self.v, -self.d1, -self.d2)

    def __sub__(self, o):
        return self + -_jet(o)

    def __rsub__(self, o):
        return _jet(o) - self

    def __mul__(self, o):
        o = _jet(o)
        return Jet(self.v * o.v, self.d1 * o.v + self.v * o.d1,
                   self.d2 * o.v + 2 * self.d1 * o.d1 + self.v * o.d2)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = _jet(o)
        q = self.v / o.v
        q1 = (self.d1 - q * o.d1) / o.v
        q2 = (self.d2 - 2 * q1 * o.d1 - q * o.d2) / o.v
        return Jet(q, q1, q2)


def _jet(o) -> Jet:
    return o if isinstance(o, Jet) else Jet(o)


_GENERATING = {
    "geometric": lambda x: x / (1 - x),
    "literal": lambda x: x / (1 - 2 * x * x),
    "sdm4": lambda x: (x * x) / (1 - 2 * (x * x) - 3 * (x * x) * (x * x)),
}


def thermo(machine: str, T: Fraction) -> dict[str, mpf]:
    """Z, W, Y, F, E, S, C of the full (infinite) domain at temperature T."""
    Tm = mpf(T.numerator) / T.denominator
    x = mpf(2) ** (-1 / Tm)
    g = _GENERATING[machine](Jet(x, 1, 0))
    Z = g.v
    W = x * g.d1
    Y = x * g.d1 + x * x * g.d2
    F = -Tm * mp.log(Z, 2)
    E = W / Z
    S = (E - F) / Tm
    C = mp.ln2 / (Tm * Tm) * (Y / Z - E * E)
    return {"Z": Z, "W": W, "Y": Y, "F": F, "E": E, "S": S, "C": C}


def geometric_partial_Z(T: Fraction, k: int) -> mpf:
    """Sum of the weights of the geometric machine's first k programs."""
    x = mpf(2) ** (-mpf(T.denominator) / T.numerator)
    return x * (1 - x ** k) / (1 - x)


def to_fraction(v: mpf) -> Fraction:
    man, exp = v.man_exp
    return Fraction(man) * Fraction(2) ** exp


def dyadic_round(v: mpf, bits: int) -> Fraction:
    """v rounded to a dyadic with denominator 2^bits."""
    return Fraction(int(mp.nint(v * mpf(2) ** bits)), 1 << bits)


def frac_bits(v: mpf, n: int) -> str:
    """First n bits of the base-two expansion of v - floor(v)."""
    scaled = int(mp.floor(v * mpf(2) ** n))
    return format(scaled % (1 << n), "b").zfill(n) if n else ""


def parse_dyadic(text: str) -> Fraction:
    """Exact value of the library's 'm*2^e' rendering."""
    m, e = text.split("*2^")
    return Fraction(int(m)) * Fraction(2) ** int(e)


def encloses(lo: Fraction, hi: Fraction, ref: mpf) -> bool:
    """True when [lo, hi] contains the reference, up to its own error."""
    r = to_fraction(ref)
    slack = max(abs(r), Fraction(1)) / (1 << _SLACK_BITS)
    return lo - slack <= r <= hi + slack


def ulp(lo: Fraction, hi: Fraction, precision_bits: int) -> Fraction:
    """One unit in the last place of the larger endpoint at the working
    precision plus the library's 16 guard bits."""
    mag = max(abs(lo), abs(hi))
    exp = math.floor(math.log2(mag.numerator) - math.log2(mag.denominator))
    return Fraction(2) ** (exp - precision_bits - 16)


def nudged_off(lo: Fraction, hi: Fraction, ref: mpf,
               precision_bits: int) -> tuple[Fraction, Fraction]:
    """The enclosure shifted down until its upper end lies one ulp below
    the reference: the smallest miss a checker must still catch."""
    shift = hi - to_fraction(ref) + ulp(lo, hi, precision_bits)
    return lo - shift, hi - shift


def log2_width(lo: Fraction, hi: Fraction) -> float | None:
    w = hi - lo
    if w <= 0:
        return None
    return math.log2(w.numerator) - math.log2(w.denominator)
