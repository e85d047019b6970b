"""Directed-rounding interval arithmetic over dyadic rationals.

An Enclosure is a pair of dyadics [lo, hi] guaranteed to contain an exact
real value.  Ring operations on dyadic endpoints are exact; division and
the two transcendental kernels (exp2, log2) round outward.

Products and quotients pick their endpoints by sign (Moore, Kearfott & Cloud
2009, ch. 2): nonnegative factors give [lo*lo, hi*hi].  Division negates both
operands of a negative divisor, then rounds two quotients outward:
a.lo / (b.hi if a.lo >= 0 else b.lo) and a.hi / (b.lo if a.hi >= 0 else b.hi).

The kernels work on integers scaled by 2**W (W = precision_bits + guard):
exp2 splits off the integer exponent and sums exp(f*ln2) with an explicit
tail bound; log2 normalises into [1,2) and uses ln(u) = 2*atanh((u-1)/(u+1)),
whose argument stays in [0, 1/3] so the series tail is dominated by its
first omitted term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .bitstring import BitString
from .dyadic import Dyadic
from .errors import PrecisionError

DEFAULT_PRECISION = 64
_GUARD = 16

RationalLike = Fraction | int | Dyadic


def _as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, Dyadic):
        return x.as_fraction()
    return Fraction(x)


# ---------------------------------------------------------------------------
# fixed-point kernels (integers scaled by 2**W; all values nonnegative)
#
# A product rescales as a * b >> w, rounded down, or -(-a * b >> w), rounded
# up; a quotient as a // n or -(-a // n).
# ---------------------------------------------------------------------------

def _atanh_fixed(z_lo: int, z_hi: int, w: int) -> tuple[int, int]:
    """Enclose atanh(z) for z in [z_lo, z_hi]*2**-w, requiring z <= ~1/3.

    Tail after the z**(2k+1) term is bounded by z**(2k+3)/(1-z**2) <= that
    term's value, since z**2 <= 1/8 on the admissible range.
    """
    if z_hi == 0:
        return 0, 0
    z2_lo = z_lo * z_lo >> w
    z2_hi = -(-z_hi * z_hi >> w)
    p_lo, p_hi = z_lo, z_hi
    s_lo, s_hi = z_lo, z_hi
    k = 1
    while p_hi > 4:
        p_lo = p_lo * z2_lo >> w
        p_hi = -(-p_hi * z2_hi >> w)
        s_lo += p_lo // (2 * k + 1)
        s_hi += -(-p_hi // (2 * k + 1))
        k += 1
    return s_lo, s_hi + p_hi + 2


_LN2_CACHE: dict[int, tuple[int, int]] = {}


def _ln2_fixed(w: int) -> tuple[int, int]:
    """ln 2 = 2*atanh(1/3), enclosed at scale 2**w."""
    if w not in _LN2_CACHE:
        scale = 1 << w
        lo, hi = _atanh_fixed(scale // 3, scale // 3 + 1, w)
        _LN2_CACHE[w] = (2 * lo, 2 * hi)
    return _LN2_CACHE[w]


def _exp_fixed(y_lo: int, y_hi: int, w: int) -> tuple[int, int]:
    """Enclose exp(y) for y in [y_lo, y_hi]*2**-w with 0 <= y < 0.7.

    Tail after term k is at most that term, because y/(k+1) <= 0.35 and the
    remaining series is geometric with ratio below 0.35/(1-0.35) < 1.
    """
    scale = 1 << w
    t_lo = t_hi = scale
    s_lo = s_hi = scale
    k = 1
    while t_hi > 4:
        t_lo = (t_lo * y_lo >> w) // k
        t_hi = -((-t_hi * y_hi >> w) // k)
        s_lo += t_lo
        s_hi += t_hi
        k += 1
    return s_lo, s_hi + t_hi + 2


# ---------------------------------------------------------------------------
# Enclosure
# ---------------------------------------------------------------------------

class Enclosure:
    """Certified interval [lo, hi] of dyadic rationals."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Dyadic, hi: Dyadic):
        if hi < lo:
            raise ValueError(f"inverted enclosure [{lo!r}, {hi!r}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x: Dyadic | int) -> "Enclosure":
        d = x if isinstance(x, Dyadic) else Dyadic(x)
        return cls(d, d)

    @classmethod
    def from_rational(cls, q: RationalLike, precision_bits: int = DEFAULT_PRECISION) -> "Enclosure":
        q = _as_fraction(q)
        d = q.denominator
        if d & (d - 1) == 0:
            return cls.point(Dyadic.from_fraction(q))
        n = precision_bits + _GUARD
        lo = Dyadic((q.numerator << n) // d, -n)
        hi = Dyadic(-((-q.numerator << n) // d), -n)
        return cls(lo, hi)

    # -- queries ------------------------------------------------------

    def width(self) -> Dyadic:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        q = _as_fraction(x)
        return self.lo.as_fraction() <= q <= self.hi.as_fraction()

    def overlaps(self, other: "Enclosure") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

    def mag_hi(self) -> Dyadic:
        return max(abs(self.lo), abs(self.hi))

    def __repr__(self):
        return f"Enclosure[{self.lo.serialize()}, {self.hi.serialize()}]"

    # -- exact ring operations ----------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        if self.lo.m >= 0 and other.lo.m >= 0:
            return Enclosure(self.lo * other.lo, self.hi * other.hi)
        prods = [self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi]
        return Enclosure(min(prods), max(prods))

    __rmul__ = __mul__

    def __neg__(self):
        return Enclosure(-self.hi, -self.lo)

    def scale2(self, k: int) -> "Enclosure":
        return Enclosure(self.lo.scale2(k), self.hi.scale2(k))

    def clamp_nonnegative(self) -> "Enclosure":
        """Intersect with [0, inf); caller must know the value is >= 0."""
        zero = Dyadic(0)
        if self.hi < zero:
            raise PrecisionError("cannot clamp a certified-negative enclosure")
        return Enclosure(max(self.lo, zero), max(self.hi, zero))


def _coerce(x) -> Enclosure:
    if isinstance(x, Enclosure):
        return x
    if isinstance(x, (Dyadic, int)):
        return Enclosure.point(x)
    raise TypeError(f"cannot mix Enclosure with {type(x).__name__}")


# ---------------------------------------------------------------------------
# division (outward rounded)
# ---------------------------------------------------------------------------

def _div_dyadic(a: Dyadic, b: Dyadic, n: int, up: bool) -> Dyadic:
    """a/b rounded in the given direction to at least n significant bits,
    more when a's mantissa is wider than b's: the grid depends on the pair,
    so a nearer exact quotient can round to a farther dyadic."""
    if a.m == 0:
        return Dyadic(0)
    num, den = a.m, b.m
    if den < 0:
        num, den = -num, -den
    # shift enough that the quotient keeps n significant bits even when the
    # denominator mantissa is much wider than the numerator's
    shift = n + max(0, den.bit_length() - num.bit_length())
    if up:
        m = -((-num << shift) // den)
    else:
        m = (num << shift) // den
    return Dyadic(m, a.e - b.e - shift)


def div(a: Enclosure, b: Enclosure, precision_bits: int = DEFAULT_PRECISION) -> Enclosure:
    a, b = _coerce(a), _coerce(b)
    if b.lo.m <= 0 <= b.hi.m:
        raise PrecisionError("division by an interval containing 0")
    if b.hi.m < 0:
        a, b = -a, -b
    n = precision_bits + _GUARD
    lo = _div_dyadic(a.lo, b.hi if a.lo.m >= 0 else b.lo, n, up=False)
    hi = _div_dyadic(a.hi, b.lo if a.hi.m >= 0 else b.hi, n, up=True)
    return Enclosure(lo, hi)


# ---------------------------------------------------------------------------
# transcendental kernels
# ---------------------------------------------------------------------------

def exp2_enclosure(x: RationalLike, precision_bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Certified enclosure of 2**x for rational x.

    Integer x is exact; otherwise width <= 2**-precision_bits * max(1, 2**x).
    """
    if precision_bits < 4:
        raise ValueError("precision_bits must be >= 4")
    x = _as_fraction(x)
    n = x.numerator // x.denominator  # floor
    f = x - n
    if f == 0:
        return Enclosure.point(Dyadic(1, n))
    w = precision_bits + _GUARD
    f_lo = (f.numerator << w) // f.denominator
    f_hi = -((-f.numerator << w) // f.denominator)
    l2_lo, l2_hi = _ln2_fixed(w)
    y_lo = f_lo * l2_lo >> w
    y_hi = -(-f_hi * l2_hi >> w)
    s_lo, s_hi = _exp_fixed(y_lo, y_hi, w)
    return Enclosure(Dyadic(s_lo, n - w), Dyadic(s_hi, n - w))


def _binade(d: Dyadic, w: int) -> tuple[int, int, int]:
    """(g, z_lo, z_hi) for d > 0: d = 2^g m/h with m/h in [1, 2), and
    ln(m/h) = 2 atanh(z), z = (m - h)/(m + h) in [0, 1/3) rounded down and
    up at scale 2^w."""
    bl = d.m.bit_length()
    h = 1 << (bl - 1)
    num, den = (d.m - h) << w, d.m + h
    return d.e + bl - 1, num // den, -(-num // den)


def log2_enclosure(v: Enclosure | Dyadic, precision_bits: int = DEFAULT_PRECISION) -> Enclosure:
    """Ends in one binade share one atanh series over [z(lo), z(hi)]: its
    upper end reads z(hi) alone, and its lower end sums at least the terms
    that a series of z(lo) alone would."""
    v = _coerce(v)
    if v.lo.sign <= 0:
        raise PrecisionError("log2 requires a certified-positive input")
    w = precision_bits + _GUARD
    g_lo, z_lo, z_lo_up = _binade(v.lo, w)
    g_hi, z_hi_dn, z_hi = _binade(v.hi, w)
    s_lo, s_hi = _atanh_fixed(z_lo, z_hi if g_lo == g_hi else z_lo_up, w)
    if g_lo != g_hi:
        s_hi = _atanh_fixed(z_hi_dn, z_hi, w)[1]
    l2_lo, l2_hi = _ln2_fixed(w)
    lo = (s_lo << (w + 1)) // l2_hi
    hi = -((-s_hi << (w + 1)) // l2_lo)
    return Enclosure(Dyadic(g_lo) + Dyadic(lo, -w), Dyadic(g_hi) + Dyadic(hi, -w))


_LN2_ENCL_CACHE: dict[int, Enclosure] = {}


def ln2_enclosure(precision_bits: int = DEFAULT_PRECISION) -> Enclosure:
    if precision_bits not in _LN2_ENCL_CACHE:
        w = precision_bits + _GUARD
        lo, hi = _ln2_fixed(w)
        _LN2_ENCL_CACHE[precision_bits] = Enclosure(Dyadic(lo, -w), Dyadic(hi, -w))
    return _LN2_ENCL_CACHE[precision_bits]


# ---------------------------------------------------------------------------
# certified comparisons
# ---------------------------------------------------------------------------

def certified_lt(a: Enclosure, b: Enclosure) -> Optional[bool]:
    """True/False when the order is certain, None when unresolved."""
    a, b = _coerce(a), _coerce(b)
    if a.hi < b.lo:
        return True
    if b.hi <= a.lo:
        return False
    return None


def certified_gt(a: Enclosure, b: Enclosure) -> Optional[bool]:
    return certified_lt(b, a)


def certified_positive(a: Enclosure) -> Optional[bool]:
    return certified_lt(Enclosure.point(0), a)


# ---------------------------------------------------------------------------
# base-two expansion prefixes
# ---------------------------------------------------------------------------

def bits_prefix(alpha: Dyadic | Enclosure, n: int) -> BitString:
    """First n bits of the base-two expansion of alpha - floor(alpha).

    Dyadic rationals take the terminating expansion padded with zeros.  An
    enclosure input must be narrower than 2**-(n+2) and must not straddle a
    dyadic of resolution 2**-n, otherwise more precision is needed.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if isinstance(alpha, Dyadic):
        scaled = alpha.floor_scaled(n)
        return BitString.from_int(scaled % (1 << n) if n else 0, n)
    if not isinstance(alpha, Enclosure):
        raise TypeError("alpha must be a Dyadic or an Enclosure")
    width = alpha.width()
    if not width < Dyadic(1, -n - 2):
        raise PrecisionError(
            f"enclosure width {width.serialize()} too large for {n} bits")
    a_lo = alpha.lo.floor_scaled(n)
    a_hi = alpha.hi.floor_scaled(n)
    if a_lo != a_hi:
        raise PrecisionError(
            f"enclosure straddles a dyadic of resolution 2^-{n}; need more precision")
    return BitString.from_int(a_lo % (1 << n) if n else 0, n)


def prefix_value(bits: BitString) -> Dyadic:
    """0.b1 b2 ... bn as an exact dyadic."""
    if len(bits) == 0:
        return Dyadic(0)
    return Dyadic(int(bits.bits, 2), -len(bits))


# ---------------------------------------------------------------------------
# temperatures
# ---------------------------------------------------------------------------

def parse_temperature_text(text: str) -> Dyadic:
    """Accepts 'p/q' with q a power of two, or a binary literal '0.b1b2...'."""
    text = text.strip()
    if text.startswith("0.") and set(text[2:]) <= {"0", "1"} and len(text) > 2:
        return prefix_value(BitString(text[2:]))
    return Dyadic.parse(text)
