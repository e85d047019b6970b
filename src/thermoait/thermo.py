"""Certified evaluation of partition-function thermodynamics.

For an ensemble with program lengths |p_1| <= |p_2| <= ... and a rational
temperature 0 < T < 1, the depth-k weighted moments are

    mu_j(k) = sum_{i<=k} |p_i|^j * 2^(-|p_i|/T),      j = 0, 1, 2, ...

with Z = mu_0, W = mu_1, Y = mu_2, and the derived quantities

    F = -T log2 Z,   E = W/Z,   S = (E - F)/T,
    C = (ln 2 / T^2) (Y/Z - (W/Z)^2).

Limit evaluation (k = "limit") aggregates the per-length census up to the
snapshot's max_length and adds a certified tail bound for each moment.
The tail belongs to the snapshot (ensembles.Tail): a builtin machine's
own tail when the snapshot carries that machine, otherwise the census
Kraft slack, which holds for any prefix-free domain.

All moments go through one integer kernel, moment_sums.  The weights come
from a WeightChain: 2^(-l/T) as the outward-rounded l-th power of
2^(-1/T), held as raw (mantissa, exponent) integer pairs for the lower and
upper endpoints, with exact point weights where l/T is an integer.  The
kernel adds count(l) * l^j times each endpoint exactly, into one integer
accumulator per order and endpoint aligned to the smallest exponent, so no
Dyadic or Enclosure is built per term.  A limit evaluation computes the
census slack tau once, as (2^L - sum_{l<=L} census(l) 2^(L-l)) / 2^L in
integers, and shares it across the tail bounds of all orders.  Every chain
belongs to the call that builds it; nothing is cached at module level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil

from .dyadic import Dyadic
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, certified_gt, div, exp2_enclosure,
    ln2_enclosure, log2_enclosure,
)
from .ensembles import EnsembleSnapshot, get_machine, kraft_slack
from .errors import RangeError, SpecError

QUANTITIES = ("Z", "W", "Y", "F", "E", "S", "C")


def _temp_frac(T, allow_high: bool = False) -> Fraction:
    """Normalise a temperature argument to an exact Fraction in range."""
    if isinstance(T, Dyadic):
        q = T.as_fraction()
    else:
        q = Fraction(T)
    limit = 2 if allow_high else 1
    if not 0 < q < limit:
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

    __slots__ = ("T", "precision_bits", "_chain")

    def __init__(self, T, precision_bits: int):
        self.T = Fraction(T)
        self.precision_bits = precision_bits
        self._chain = [(1, 0, 1, 0)]

    def raw(self, length: int) -> tuple[int, int, int, int]:
        """(m_lo, e_lo, m_hi, e_hi) with weight in
        [m_lo 2^e_lo, m_hi 2^e_hi]; mantissas are positive but need not be
        odd."""
        num, den = self.T.numerator, self.T.denominator
        if length % num == 0:  # l/T = l den/num is an integer
            e = -(length // num) * den
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
            x = exp2_enclosure(Fraction(-1) / self.T, self.precision_bits)
            chain.append((x.lo.m, x.lo.e, x.hi.m, x.hi.e))
        xa, xea, xb, xeb = chain[1]
        n = self.precision_bits + _CHAIN_GUARD
        a, ea, b, eb = chain[-1]
        for _ in range(len(chain), length + 1):
            # round_outward to n significant bits: floor below, ceil above
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


def moment_sums(length_counts, T: Fraction, orders, precision_bits: int) -> dict[int, Enclosure]:
    """Enclosures of sum_l count(l) * l^j * 2^(-l/T) for each j in orders.

    The sums are exact: every weight endpoint is scaled by count * l^j and
    added into one integer accumulator per order and endpoint, aligned to
    the smallest exponent of that endpoint."""
    chain = WeightChain(T, precision_bits)
    terms = [(l, count, *chain.raw(l)) for l, count in length_counts]
    if not terms:
        return {j: Enclosure.point(0) for j in orders}
    e_lo = min(t[3] for t in terms)
    e_hi = min(t[5] for t in terms)
    acc_lo = dict.fromkeys(orders, 0)
    acc_hi = dict.fromkeys(orders, 0)
    for l, count, a, ea, b, eb in terms:
        a = count * a << (ea - e_lo)
        b = count * b << (eb - e_hi)
        for j in orders:
            f = l**j
            acc_lo[j] += a * f
            acc_hi[j] += b * f
    return {j: Enclosure(Dyadic(acc_lo[j], e_lo), Dyadic(acc_hi[j], e_hi))
            for j in orders}


# ---------------------------------------------------------------------------
# tail bounds
# ---------------------------------------------------------------------------

def moment_tail_bound(snapshot: EnsembleSnapshot, L: int, T: Fraction,
                      j: int, precision_bits: int = DEFAULT_PRECISION,
                      slack: Fraction | None = None) -> Dyadic:
    """Certified upper bound on sum over |p| > L of |p|^j 2^(-|p|/T), from
    the snapshot's tail.  slack, when given, must be the census slack
    kraft_slack(census, L)."""
    return snapshot.tail.bound(snapshot.census, L, T, j, precision_bits, slack)


def _census_cutoff(snapshot: EnsembleSnapshot, T: Fraction, max_order: int,
                   precision_bits: int) -> int:
    """Length beyond which the certified tail bound is already below the
    working precision, so summing further census terms cannot tighten the
    result.  Float arithmetic here only picks the cutoff; certification
    comes from the tail bound itself."""
    from math import log2
    delta = snapshot.tail.decay(T)
    if delta <= 0:
        return snapshot.max_length
    target = precision_bits + 12
    L = (target + 8) / delta
    L = (target + max_order * log2(max(2.0, L))) / delta
    return min(snapshot.max_length, max(8, ceil(L)))


def summed_lengths(snapshot: EnsembleSnapshot, T: Fraction, k,
                   precision_bits: int) -> list[tuple[int, int]]:
    """The (length, count) pairs a depth-k (k an int) or limit (k ==
    "limit") evaluation sums: the first k programs, or the census up to
    the cutoff past which the limit's tails take over."""
    if k != "limit":
        return snapshot.length_counts_up_to(int(k))
    # the cutoff deliberately ignores which orders were requested so that
    # evaluations sharing (snapshot, T, precision) sum identical terms
    L = _census_cutoff(snapshot, T, 4, precision_bits)
    return [(l, c) for l, c in sorted(snapshot.census.items()) if l <= L]


def limit_moments(snapshot: EnsembleSnapshot, T: Fraction, orders,
                  precision_bits: int) -> tuple[dict[int, Enclosure], dict[int, Dyadic]]:
    """Moments of the full (possibly infinite) domain: census partial sums
    up to a cutoff length plus a [0, bound] tail per order."""
    L = _census_cutoff(snapshot, T, 4, precision_bits)
    items = summed_lengths(snapshot, T, "limit", precision_bits)
    sums = moment_sums(items, T, orders, precision_bits)
    slack = kraft_slack(items, L)
    tails = {j: moment_tail_bound(snapshot, L, T, j, precision_bits, slack)
             for j in orders}
    moments = {j: sums[j] + Enclosure(Dyadic(0), tails[j]) for j in orders}
    return moments, tails


def moments(snapshot: EnsembleSnapshot, T: Fraction, k, orders,
            precision_bits: int) -> tuple[dict[int, Enclosure], dict[int, Dyadic]]:
    """Moment enclosures at depth k (k an int) or in the limit (k ==
    "limit"), plus the tail upper bound of each order (zero at a depth)."""
    if k == "limit":
        return limit_moments(snapshot, T, orders, precision_bits)
    sums = moment_sums(summed_lengths(snapshot, T, k, precision_bits), T,
                       orders, precision_bits)
    return sums, {j: Dyadic(0) for j in orders}


def moment_hull(snapshot: EnsembleSnapshot, t_lo: Fraction, t_hi: Fraction,
                k, orders, precision_bits: int) -> dict[int, Enclosure]:
    """Hull of mu_j over the temperature interval [t_lo, t_hi]; valid
    because every term 2^(-l/t) increases with t."""
    lo, _ = moments(snapshot, t_lo, k, orders, precision_bits)
    hi, _ = moments(snapshot, t_hi, k, orders, precision_bits)
    return {j: Enclosure(lo[j].lo, hi[j].hi) for j in orders}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThermoEvaluation:
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
    tail_bounds: dict = field(default_factory=dict)  # quantity -> Dyadic, limit only

    def quantity(self, name: str) -> Enclosure:
        if name not in QUANTITIES:
            raise SpecError(f"unknown quantity {name!r}")
        return getattr(self, name)


def derive_quantities(Z: Enclosure, W: Enclosure, Y: Enclosure,
                      T: Fraction, precision_bits: int):
    """F, E, S, C from the first three moments.  S and C are clamped at
    zero: both are provably nonnegative (Gibbs and variance forms), so the
    clamp only trims rounding slack."""
    Tq = Enclosure.from_rational(T, precision_bits)
    logZ = log2_enclosure(Z, precision_bits)
    F = -(Tq * logZ)
    E = div(W, Z, precision_bits)
    S = div(E - F, Tq, precision_bits).clamp_nonnegative()
    ln2 = ln2_enclosure(precision_bits)
    var = div(Y, Z, precision_bits) - E * E
    C = (div(ln2, Enclosure.from_rational(T * T, precision_bits), precision_bits)
         * var).clamp_nonnegative()
    return F, E, S, C


def eval_partial(snapshot: EnsembleSnapshot, T, k: int,
                 precision_bits: int = DEFAULT_PRECISION) -> ThermoEvaluation:
    """Depth-k evaluation over the first k programs in canonical order."""
    Tf = _temp_frac(T)
    if k < 1:
        raise SpecError("depth k must be >= 1")
    sums, _ = moments(snapshot, Tf, k, (0, 1, 2), precision_bits)
    Z, W, Y = sums[0], sums[1], sums[2]
    F, E, S, C = derive_quantities(Z, W, Y, Tf, precision_bits)
    return ThermoEvaluation(snapshot.ensemble_id, Tf, k, precision_bits,
                            Z, W, Y, F, E, S, C)


def eval_limit(snapshot: EnsembleSnapshot, T,
               precision_bits: int = DEFAULT_PRECISION) -> ThermoEvaluation:
    """Full-domain evaluation: census to the cutoff plus certified tails."""
    Tf = _temp_frac(T)
    sums, tails = moments(snapshot, Tf, "limit", (0, 1, 2), precision_bits)
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
    return moments(snapshot, Tf, k, (0,), precision_bits)[0][0]


def sweep(snapshot: EnsembleSnapshot, temperatures, k="limit",
          precision_bits: int = DEFAULT_PRECISION) -> list[ThermoEvaluation]:
    """Evaluate at each temperature in turn (deterministic order)."""
    return [evaluate(snapshot, T, k, precision_bits) for T in temperatures]


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
    weights = WeightChain(Tf, precision_bits)
    Z = Enclosure.point(0)
    for L, c in get_machine(kind).census(length_cap):
        Z = Z + weights[L] * c
        if certified_gt(Z, thr):
            return L, Z
    raise RangeError(
        f"partial sum still below {threshold} at length cap {length_cap}")
