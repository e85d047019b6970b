"""Certified evaluation of partition-function thermodynamics.

For an ensemble with program lengths |p_1| <= |p_2| <= ... and a rational
temperature 0 < T < 1, the depth-k weighted moments are

    mu_j(k) = sum_{i<=k} |p_i|^j * 2^(-|p_i|/T),      j = 0, 1, 2, ...

with Z = mu_0, W = mu_1, Y = mu_2, and the derived quantities

    F = -T log2 Z,   E = W/Z,   S = (E - F)/T,
    C = (ln 2 / T^2) (Y/Z - (W/Z)^2).

Limit evaluation (k = "limit") covers the whole, possibly infinite,
domain: from the rational generating function of the snapshot's machine
(sdm4, literal, geometric; series_moments), with no census sum and a tail
bound of 0, or else (gamma_literal, an anonymous census) by summing the
census up to a cutoff and adding a certified tail bound per order from
the census Kraft slack, which holds for any prefix-free domain.  Both paths
take x = 2^(-1/T) from _exp2_ratio(-den, num, p), exp2's integer entry,
with T = num/den read as two integers: no Fraction -1/T is built.

Only this module turns weights into sums.  The weights come from a
WeightChain: 2^(-l/T) as the outward-rounded l-th power of 2^(-1/T), held
as raw (mantissa, exponent) integer pairs for the lower and upper
endpoints, with exact point weights where l/T is an integer.  Two integer
kernels sum count(l) * l^j times each endpoint exactly, bit for bit alike:
CensusWalk, the fast one, aligns a list of groups once and gives the sums
at known depths (moment_sums is its last prefix); _RunningWalk draws
groups lazily for readers that stop early or act once per group (the
certificate re-check, the procedures), where an eager walk would weigh
every group of the census and align it to the last one.
A Kraft-slack limit bounds the tails of all its orders in one call, which
computes the census slack tau once, as (2^L - sum_{l<=L} census(l)
2^(L-l)) / 2^L in integers.  Every chain belongs to the call that builds
it; nothing is cached at module level.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import ceil, log2
from operator import mul
from typing import Callable, NamedTuple

from .dyadic import Dyadic
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, _as_fraction, _exp2_ratio, certified_gt,
    div, ln2_enclosure, log2_enclosure,
)
from .ensembles import (
    EnsembleSnapshot, Machine, get_machine, kraft_tail_bounds,
    moment_numerators,
)
from .errors import RangeError, SpecError

QUANTITIES = ("Z", "W", "Y", "F", "E", "S", "C")
_CUTOFF_ORDER = 4  # one cutoff for the orders up to 4, so that sums agree


def _temp_frac(T, allow_high: bool = False) -> Fraction:
    """Normalise a temperature argument to an exact Fraction in range."""
    q = _as_fraction(T)
    limit = 2 if allow_high else 1
    num = q.numerator
    if not 0 < num < limit * q.denominator:
        raise RangeError(f"temperature {q} outside (0, {limit})")
    return q


class WeightChain:
    """The weights 2^(-l/T), l = 0, 1, 2, ..., at one temperature and
    precision, for one caller and one computation (there is no shared
    cache).

    Entry l is the l-th power of 2^(-1/T), built as an outward-rounded
    power chain: entry 1 is exp2_enclosure(-1/T) and entry l is entry
    l-1 times entry 1, rounded outward to precision_bits + 32 significant
    bits (relative error about l * 2^-precision_bits).  The chain is held
    as raw (m_lo, e_lo, m_hi, e_hi) integers, extended lazily; a length
    whose l/T is an integer gets its exact point weight instead, while the
    chain still passes through it.  Only __getitem__ builds an Enclosure.
    """

    __slots__ = ("T", "precision_bits", "_chain", "_num", "_den")

    def __init__(self, T, precision_bits: int):
        self.T = _as_fraction(T)
        self.precision_bits = precision_bits
        self._chain = [(1, 0, 1, 0)]
        # read on every raw() call: Fraction's properties cost a call each
        self._num, self._den = self.T.numerator, self.T.denominator

    def raw(self, length: int) -> tuple[int, int, int, int]:
        """(m_lo, e_lo, m_hi, e_hi) with weight in
        [m_lo 2^e_lo, m_hi 2^e_hi]; mantissas are positive but need not be
        odd."""
        num = self._num
        if length % num == 0:  # l/T = l den/num is an integer
            e = -(length // num) * self._den
            return 1, e, 1, e
        chain = self._chain
        if len(chain) <= length:
            self._extend(length)
        return chain[length]

    def __getitem__(self, length: int) -> Enclosure:
        a, ea, b, eb = self.raw(length)
        return Enclosure(Dyadic(a, ea), Dyadic(b, eb))

    def _extend(self, length: int) -> None:
        chain = self._chain
        if len(chain) == 1:
            x = _exp2_ratio(-self._den, self._num, self.precision_bits)
            chain.append((x.lo.m, x.lo.e, x.hi.m, x.hi.e))
        xa, xea, xb, xeb = chain[1]
        n = self.precision_bits + _CHAIN_GUARD
        a, ea, b, eb = chain[-1]
        for _ in range(len(chain), length + 1):
            # round outward to n significant bits: floor below, ceil above
            a *= xa
            ea += xea
            excess = a.bit_length() - n
            if excess > 0:
                a >>= excess
                ea += excess
            b *= xb
            eb += xeb
            excess = b.bit_length() - n
            if excess > 0:
                b = -(-b >> excess)
                eb += excess
            chain.append((a, ea, b, eb))


_CHAIN_GUARD = 32


class CensusWalk:
    """Exact moment sums over census groups at one temperature.  One
    WeightChain, extended once to the longest length (not at all when
    every l/T is an integer), gives each group's weight endpoints, aligned
    to the smallest exponent of each endpoint.  So the sum over the first
    k programs is one integer per endpoint at any k, inside a group too,
    and equals moment_sums over those programs bit for bit (the sums are
    exact and Dyadic is canonical).  chain, when given, is the caller's
    WeightChain at the same T and precision, which the walk extends and
    keeps for a running walk that goes on past its groups."""

    __slots__ = ("groups", "lengths", "weights", "e_lo", "e_hi", "chain")

    def __init__(self, length_counts, T: Fraction, precision_bits: int,
                 chain: WeightChain | None = None):
        self.groups = length_counts
        self.lengths = lengths = [l for l, _ in length_counts]
        if chain is None:
            chain = WeightChain(T, precision_bits)
        self.chain = chain
        if lengths and chain.T.numerator > 1:
            chain._extend(max(lengths))
        self.weights = [chain.raw(l) for l in lengths]
        self.e_lo = min((w[1] for w in self.weights), default=0)
        self.e_hi = min((w[3] for w in self.weights), default=0)

    def sums(self, orders, depths=None) -> list[dict[int, Enclosure]]:
        """For each depth k in depths (ascending; default the walk's end),
        enclosures of the sum over the first k programs of l^j 2^(-l/T),
        j in orders.  Order j+1's terms are order j's times l."""
        groups, lengths, weights = self.groups, self.lengths, self.weights
        e_lo, e_hi = self.e_lo, self.e_hi
        # each depth is the groups before index g plus `take` programs of g
        spots = [(len(groups), 0)]
        if depths is not None:
            starts = list(accumulate((c for _, c in groups), initial=0))
            spots = []
            for k in depths:
                g = bisect_right(starts, k) - 1
                spots.append((g, k - starts[g]))
        top = spots[-1][0]  # no whole group past it is summed
        if top < len(groups):
            groups = groups[:top]
        lo = [c * a << (ea - e_lo)
              for (_, c), (a, ea, _, _) in zip(groups, weights)]
        hi = [c * b << (eb - e_hi)
              for (_, c), (_, _, b, eb) in zip(groups, weights)]
        out = [{} for _ in spots]
        for j in range(max(orders) + 1):
            if j:
                lo = list(map(mul, lo, lengths))
                hi = list(map(mul, hi, lengths))
            if j not in orders:
                continue
            run_lo = run_hi = done = 0
            for sums, (g, take) in zip(out, spots):
                run_lo += sum(lo[done:g])
                run_hi += sum(hi[done:g])
                done = g
                part_lo, part_hi = run_lo, run_hi
                if take:
                    a, ea, b, eb = weights[g]
                    lj = take * lengths[g] ** j
                    part_lo += lj * a << (ea - e_lo)
                    part_hi += lj * b << (eb - e_hi)
                sums[j] = Enclosure(Dyadic(part_lo, e_lo),
                                    Dyadic(part_hi, e_hi))
        return out


# a _RunningWalk shifts its sums this many bits below a new lowest weight
# exponent, so that it shifts them about once per 16 bits of decay while
# its terms stay short
_ALIGN_SLACK = 16


class _RunningWalk:
    """Running exact sums of count(l) l^j w_l, j in orders, over (length,
    count) groups drawn lazily, with chain the WeightChain at T.  Iterating
    yields each group's (l, count); while the walk stands there, term(j) is
    one of its programs' l^j w and exact(j, i) the sum over the groups
    before it plus i of its programs, both as (m_lo, e, m_hi, e), and
    at(j, i) is that sum as an Enclosure.  After the last group, exact(j)
    and at(j) are the totals."""

    __slots__ = ("_groups", "_chain", "_lo", "_hi", "_step", "_e")

    def __init__(self, length_counts, chain: WeightChain, orders):
        self._groups, self._chain = length_counts, chain
        self._lo, self._hi = dict.fromkeys(orders, 0), dict.fromkeys(orders, 0)
        self._step, self._e = (0, 0, 0), 0

    def __iter__(self):
        raw, lo, hi = self._chain.raw, self._lo, self._hi
        e = 0
        for l, count in self._groups:
            a, ea, b, eb = raw(l)
            if ea < e or eb < e:
                shift = e - min(ea, eb) + _ALIGN_SLACK
                for j in lo:
                    lo[j] <<= shift
                    hi[j] <<= shift
                e = self._e = e - shift
            a <<= ea - e
            b <<= eb - e
            self._step = l, a, b
            yield l, count
            for j in lo:
                c = count * l**j
                lo[j] += c * a
                hi[j] += c * b

    def term(self, j: int) -> tuple[int, int, int, int]:
        l, a, b = self._step
        c = l**j
        return a * c, self._e, b * c, self._e

    def exact(self, j: int, i: int = 0) -> tuple[int, int, int, int]:
        if not i:
            return self._lo[j], self._e, self._hi[j], self._e
        l, a, b = self._step
        c = i * l**j
        return self._lo[j] + c * a, self._e, self._hi[j] + c * b, self._e

    def at(self, j: int, i: int = 0) -> Enclosure:
        a, e, b, _ = self.exact(j, i)
        return Enclosure(Dyadic(a, e), Dyadic(b, e))


def moment_sums(length_counts, T: Fraction, orders, precision_bits: int) -> dict[int, Enclosure]:
    """Enclosures of sum_l count(l) * l^j * 2^(-l/T) for each j in orders:
    the last prefix of a CensusWalk over length_counts."""
    return CensusWalk(length_counts, T, precision_bits).sums(orders)[-1]


# ---------------------------------------------------------------------------
# census cutoffs
# ---------------------------------------------------------------------------

def _census_cutoff(snapshot: EnsembleSnapshot, T: Fraction,
                   precision_bits: int) -> int:
    """Length beyond which the certified tail bound of each order up to
    _CUTOFF_ORDER is already below the working precision, so summing
    further census terms cannot tighten the result.  Float arithmetic here
    only picks the cutoff; certification comes from the tail bound itself.
    The terms of a census growing by `growth` bits per length shrink by
    delta bits per length; below the Kraft bound's 1, growth is priced at
    9/10 of the rate: near T = 1, where the terms shrink slowly, the sum
    runs a little longer.  The sum reaches the shortest census length at
    least, so that Z is certifiably positive however small its terms are."""
    growth = snapshot.machine.growth if snapshot.machine else 1
    delta = 1 / float(T) - growth
    if 0 < growth < 1:
        delta = 0.9 * delta
    if delta <= 0:
        return snapshot.max_length
    target = precision_bits + 12
    L = (target + 8) / delta
    L = (target + _CUTOFF_ORDER * log2(max(2.0, L))) / delta
    shortest = snapshot.groups()[0][0] if snapshot.total else 0
    return min(snapshot.max_length, max(8, ceil(L), shortest))


def summed_lengths(snapshot: EnsembleSnapshot, T: Fraction, k,
                   precision_bits: int) -> list[tuple[int, int]]:
    """The (length, count) pairs a depth-k (k an int) or limit (k ==
    "limit") census sum covers: the first k programs, or the census up to
    the cutoff past which the tails take over."""
    if k != "limit":
        return snapshot.length_counts_up_to(int(k))
    return snapshot.groups(_census_cutoff(snapshot, T, precision_bits))


def limit_moments(snapshot: EnsembleSnapshot, T: Fraction, orders,
                  precision_bits: int) -> tuple[dict[int, Enclosure], dict[int, Dyadic]]:
    """Moments of the full (possibly infinite) domain and the tail bound
    each includes: from the machine's generating function (tails 0), or
    census sums up to a cutoff plus a [0, bound] Kraft-slack tail."""
    if snapshot.series:
        return (series_moments(snapshot.machine, T, orders, precision_bits),
                dict.fromkeys(orders, Dyadic(0)))
    L = _census_cutoff(snapshot, T, precision_bits)
    tails = kraft_tail_bounds(snapshot, L, T, orders, precision_bits)
    sums = moment_sums(snapshot.groups(L), T, orders, precision_bits)
    moments = {j: sums[j] + Enclosure(Dyadic(0), tails[j]) for j in orders}
    return moments, tails


def _horner(poly, m: int, s: int) -> int:
    """2^(s n) poly(m 2^-s), n = len(poly) - 1, exactly in integers."""
    acc = 0
    for i, a in enumerate(reversed(poly)):
        acc = acc * m + (a << s * i)
    return acc


def _rounded_quotient(num: int, den: int, e: int, n: int, up: bool) -> Dyadic:
    """num/den 2^e (num, den > 0) rounded down, or up, to an n-bit
    significand: the quotient scaled by 2^shift lies in [2^(n-1), 2^n)."""
    shift = n + den.bit_length() - num.bit_length()
    if shift >= 0:
        num <<= shift
    else:
        den <<= -shift
    if num >= den << n:  # one bit too many: halve the quotient's scale
        shift -= 1
        if shift >= 0:
            num >>= 1
        else:
            den <<= 1
    q, r = divmod(num, den)
    return Dyadic(q + (up and r > 0), e - shift)


def series_moments(machine: Machine, T: Fraction, orders,
                   precision_bits: int) -> dict[int, Enclosure]:
    """Enclosures of the moments M_j = sum_l census(l) l^j x^l, x =
    2^(-1/T) < 1/2, of the census with generating function machine.series
    (N, D): M_j = P_j / D^(j+1), with P_j the machine's numerators
    (moment_numerators), a series with nonnegative coefficients and so
    rising with x below the pole, where D > 0.  Its exact values at the
    ends of one exp2 enclosure of x are rounded outward to precision_bits
    + 32 significant bits.  x is its only source of width, so it is taken
    16 bits finer than the working precision."""
    tn, td = T.numerator, T.denominator
    if tn >= td:
        raise RangeError("generating-function limits require T < 1")
    x = _exp2_ratio(-td, tn, precision_bits + 16)
    D, P = machine.series[1], machine.numerators
    if len(P) <= max(orders):  # an order past those the machine holds
        P = moment_numerators(machine.series, max(orders))
    ends = []
    for end, up in ((x.lo, False), (x.hi, True)):
        m, s = end.m, -end.e  # poly(x) = _horner(poly, m, s) 2^(-s deg)
        d = _horner(D, m, s)
        if d <= 0:
            raise RangeError(f"T = {T} is past the generating function's pole")
        ends.append([_rounded_quotient(
            _horner(P[j], m, s), d ** (j + 1),
            s * ((len(D) - 1) * (j + 1) - len(P[j]) + 1),
            precision_bits + _CHAIN_GUARD, up) for j in orders])
    return {j: Enclosure(lo, hi) for j, lo, hi in zip(orders, *ends)}


def moments(snapshot: EnsembleSnapshot, T: Fraction, k, orders,
            precision_bits: int) -> dict[int, Enclosure]:
    """Moment enclosures at depth k (k an int) or in the limit (k ==
    "limit"); limit_moments gives a limit's tails too."""
    if k == "limit":
        return limit_moments(snapshot, T, orders, precision_bits)[0]
    return moment_sums(summed_lengths(snapshot, T, k, precision_bits), T,
                       orders, precision_bits)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

class ThermoEvaluation(NamedTuple):
    ensemble_id: str
    temperature: Fraction
    k: int | str  # a depth, or "limit"
    precision_bits: int
    Z: Enclosure
    W: Enclosure
    Y: Enclosure
    F: Enclosure
    E: Enclosure
    S: Enclosure
    C: Enclosure
    tail_bounds: dict  # quantity -> Dyadic, limit only (empty at a depth)

    def quantity(self, name: str) -> Enclosure:
        if name not in QUANTITIES:
            raise SpecError(f"unknown quantity {name!r}")
        return getattr(self, name)


def minus_free_energy(Z: Enclosure, Tq: Enclosure, p: int) -> Enclosure:
    """-F = T log2 Z, with Tq the enclosure of T."""
    return Tq * log2_enclosure(Z, p)


def entropy(E: Enclosure, minus_F: Enclosure, Tq: Enclosure,
            p: int) -> Enclosure:
    """S = (E - F)/T, from -F, clamped at zero (see derive_quantities)."""
    return div(E + minus_F, Tq, p).clamp_nonnegative()


class Increasing(NamedTuple):
    """A quantity that rises with the temperature, as fixedpoint certifies
    and solves it: value(mu, x, p) encloses it at x from the moments mu of
    its orders, and slope(Z, W, Y, x, v, ln2), v its value, is its
    derivative as (num, den), den > 0, in ring operations alone, so that
    enclosures and dyadic midpoints read one formula (Y for E and S only)."""
    name: str
    orders: tuple[int, ...]
    value: Callable[[dict, Fraction | Dyadic, int], Enclosure]
    slope: Callable[..., tuple]


def _entropy_value(mu, x, p: int) -> Enclosure:
    t = Enclosure.from_rational(x, p)
    return entropy(div(mu[1], mu[0], p), minus_free_energy(mu[0], t, p), t, p)


def _capacity(Z, W, Y, ln2, x2):  # C x^2 / x2 = ln2 (Y Z - W^2) / (Z^2 x2)
    return ln2 * (Y * Z - W * W), Z * Z * x2


# Z' = ln2 W / x^2, (-F)' = S = (W + v Z) / (Z x) as v = x log2 Z, E' = C
# and S' = C / x
INCREASING = (
    Increasing("Z", (0,), lambda mu, x, p: mu[0],
               lambda Z, W, Y, x, v, ln2: (ln2 * W, x * x)),
    Increasing("-F", (0,), lambda mu, x, p: minus_free_energy(
                   mu[0], Enclosure.from_rational(x, p), p),
               lambda Z, W, Y, x, v, ln2: (W + v * Z, Z * x)),
    Increasing("E", (0, 1), lambda mu, x, p: div(mu[1], mu[0], p),
               lambda Z, W, Y, x, v, ln2: _capacity(Z, W, Y, ln2, x * x)),
    Increasing("S", (0, 1), _entropy_value,
               lambda Z, W, Y, x, v, ln2: _capacity(Z, W, Y, ln2, x * x * x)),
)


def derive_quantities(Z: Enclosure, W: Enclosure, Y: Enclosure,
                      T: Fraction, precision_bits: int):
    """F, E, S, C from the first three moments.  S and C are clamped at
    zero: both are provably nonnegative (Gibbs and variance forms), so the
    clamp only trims rounding slack."""
    Tq = Enclosure.from_rational(T, precision_bits)
    minus_F = minus_free_energy(Z, Tq, precision_bits)
    E = div(W, Z, precision_bits)
    S = entropy(E, minus_F, Tq, precision_bits)
    ln2 = ln2_enclosure(precision_bits)
    var = div(Y, Z, precision_bits) - E * E
    C = (div(ln2, Enclosure.from_rational(T * T, precision_bits), precision_bits)
         * var).clamp_nonnegative()
    return -minus_F, E, S, C


def eval_partial(snapshot: EnsembleSnapshot, T, k: int,
                 precision_bits: int = DEFAULT_PRECISION) -> ThermoEvaluation:
    """Depth-k evaluation over the first k programs in canonical order."""
    Tf = _temp_frac(T)
    if k < 1:
        raise SpecError("depth k must be >= 1")
    sums = moments(snapshot, Tf, k, (0, 1, 2), precision_bits)
    Z, W, Y = sums[0], sums[1], sums[2]
    F, E, S, C = derive_quantities(Z, W, Y, Tf, precision_bits)
    return ThermoEvaluation(snapshot.ensemble_id, Tf, k, precision_bits,
                            Z, W, Y, F, E, S, C, {})


def eval_limit(snapshot: EnsembleSnapshot, T,
               precision_bits: int = DEFAULT_PRECISION) -> ThermoEvaluation:
    """Full-domain evaluation: census to the cutoff plus certified tails."""
    Tf = _temp_frac(T)
    sums, tails = limit_moments(snapshot, Tf, (0, 1, 2), precision_bits)
    Z, W, Y = sums[0], sums[1], sums[2]
    F, E, S, C = derive_quantities(Z, W, Y, Tf, precision_bits)
    return ThermoEvaluation(snapshot.ensemble_id, Tf, "limit", precision_bits,
                            Z, W, Y, F, E, S, C,
                            {"Z": tails[0], "W": tails[1], "Y": tails[2]})


def evaluate(snapshot: EnsembleSnapshot, T, k="limit",
             precision_bits: int = DEFAULT_PRECISION) -> ThermoEvaluation:
    if k == "limit":
        return eval_limit(snapshot, T, precision_bits)
    return eval_partial(snapshot, T, int(k), precision_bits)


def power_sum(snapshot: EnsembleSnapshot, T, n: int, k,
              precision_bits: int = DEFAULT_PRECISION) -> Enclosure:
    """sum_i (2^(-|p_i|/T))^n, i.e. the depth-k partition sum at T/n.

    Implemented literally as the Z evaluator at temperature T/n, so the two
    agree bit for bit.
    """
    if n < 1:
        raise SpecError("power n must be >= 1")
    Tf = _temp_frac(T) / n
    return moments(snapshot, Tf, k, (0,), precision_bits)[0]


def divergence_probe(kind: str, T, threshold, length_cap: int,
                     precision_bits: int = DEFAULT_PRECISION) -> tuple[int, Enclosure]:
    """At a temperature above 1, grow the partial partition sum length by
    length until it certifiably exceeds the threshold.  Returns the first
    such max_length and the partial-sum enclosure there; raises RangeError
    if the cap is reached first."""
    Tf = _temp_frac(T, allow_high=True)
    if Tf <= 1:
        raise RangeError("divergence probe expects a temperature above 1")
    thr = Enclosure.from_rational(Fraction(threshold), precision_bits)
    walk = _RunningWalk(get_machine(kind).census(length_cap),
                        WeightChain(Tf, precision_bits), (0,))
    for L, c in walk:
        Z = walk.at(0, c)
        if certified_gt(Z, thr):
            return L, Z
    raise RangeError(
        f"partial sum still below {threshold} at length cap {length_cap}")
