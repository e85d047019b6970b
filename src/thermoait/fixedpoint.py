"""Effective procedures around certified monotone quantities.

A QuantityHandle packages one increasing function of temperature
g(x, k) (the depth-k value of Z, -F, E or S) together with a certificate
of explicit constants:

  a        slope upper exponent:   g(x,k) - g(T,k) <= 2^a (x - T)
  a_lower  slope lower exponent:   g(x,k) - g(T,k) >= 2^-a_lower (x - T)
  b, c     increment bracket:      |p|^c 2^(-|p|/T - b)
                                     <= g(T,k+1) - g(T,k)
                                     <= |p|^b 2^(-|p|/T + c)
  k0       index from which all four inequalities hold
  t        validity window (T, t), t = (T+1)/2

The constants are computed from enclosures (never guessed) and then
re-verified on the census, whatever program records the snapshot stores;
a violation is a hard CertificationError, not a tuning knob.  Each
inequality is proved at every depth k >= k0, past the census too, along
one path (_verify_certificate):

  increments  the increment of Z is w itself, so its bracket is the
              inequality l^c 2^-b <= 1 <= l^b 2^c, monotone in l and so
              checked at the census's shortest and longest lengths, and
              past the census by c <= 0 <= b.  The increments of -F, E
              and S fall across a length group (Z_k grows, Z_k l - W_k
              stays fixed), so one integer cross-multiplication at each
              end decides a group.  The walk at T checks the groups up to
              the slope reach, the first group end at or past 2 k0 + 2,
              and a closed argument covers the depths past it: from Z_K
              <= Z_k <= Z_lim and W_k <= W_lim, each increment per unit
              weight lies between bounds linear in the length l, whose
              comparison with l^c 2^-b and l^b 2^c holds at every longer
              length once it holds, with its slope, at the first
              unchecked one (b >= 1, c <= 1).  Where it fails, the walk
              checks one more group and tries again; at the census end l
              is the last census length + 1, unless no program can follow.
  slopes      Z' = ln2 W_k/x^2 and (-F)' = S_k rise with k and x, so their
              bounds at depth k0 (or 1) and in the limit hold at every
              depth.  For E and S, C_k <= ln2 Y_lim(t) / (T^2 Z_1(T)), and
              C_k is bounded below in the pair form of the variance, whose
              pair sum rises with the temperature and with the depth, split
              at K = 2 k0 + 2 between Z_K and Z_lim
              (_min_capacity_on_window).
              Samples at depths k0, k0 + 1 and 2 k0 + 2 cross-check all
              four bounds.

Every sum is thermo's: certify's depth sets come from one exact integer
thermo.CensusWalk per temperature, each over the slope reach; the
increment re-check and the procedures' depths come from thermo's lazy
running walk over the whole census, which stops where its reader stops.
One search on that walk (_exceeding_depth) finds all three procedures'
first depth past a value: of the quantity at r for witness_search and
semidecide_above, of beta's partial sums at u for reconstruct_T.
Each quantity's orders, value and slope are its thermo.INCREASING record;
its part of the certificate is one row of _CERTIFICATES.

On top of the handle:
  solve_temperature  monotone inversion in one shared bracket [a, b]: a is
                     the bracket's low end or a point whose limit value is
                     certifiably below the target, b the high end or a
                     point certifiably above it.  Newton steps steered by
                     the probes' own moments choose where to probe (about
                     ten limit evaluations per solve), with bisection as
                     the fallback; the ends move only on certified
                     comparisons, so the probe choice cannot affect
                     soundness.  The working precision is set by tol;
  witness_search     given n bits of T, finds a depth k_e past which all
                     programs are certifiably longer than T(n - a - b),
                     and a short string none of them outputs;
  semidecide_above   sound semidecision of "T < r" from an upper oracle;
  reconstruct_T      recovers T to within 2^(a_lower + c - n) from
                     ceil(Tn/u) bits of beta = sum |p_i|^b 2^(-|p_i|/u).

The last two sum no depth whose comparison a certified bound decides.
reconstruct_T's slope floor g(A, k_e) >= g(T, k_e) + 2^-a_lower (A - T)
(k_e >= k0) decides g(A, k_e) < B False wherever it reaches B.  The
search's ceiling, an upper end of the limit of what it walks, decides
every comparison with a value at or above it: the upper end of f(r) for
semidecide_above, of beta (already evaluated for floor(beta)) for
reconstruct_T.  The oracles are still drawn in order (A and B in
lockstep, each passed-over value at its budget), so the answers and the
values consumed are those of summing every depth.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import ceil, inf
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .bitstring import BitString, successor
from .dyadic import Dyadic
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, _as_fraction, bits_prefix, certified_gt,
    certified_lt, certified_positive, div, ln2_enclosure, prefix_value,
)
from .ensembles import EnsembleSnapshot
from .errors import (
    CertificationError, OracleExhausted, PrecisionError, RangeError, SpecError,
)
from .thermo import (
    INCREASING, CensusWalk, Increasing, WeightChain, _RunningWalk,
    _temp_frac, moments,
)

QUANTITY_CHOICES = tuple(record.name for record in INCREASING)

# points sampled in (T, t) at each checked depth of the slope check
SLOPE_SAMPLES = 3

# significant bits beyond the handle's precision that the increment
# re-check keeps when it rounds its running sums outward
_RECHECK_GUARD = 32


def _floor_log2(d: Dyadic) -> int:
    if d.sign <= 0:
        raise ValueError("log2 of nonpositive dyadic")
    return d.e + d.m.bit_length() - 1


def _ceil_log2(d: Dyadic) -> int:
    f = _floor_log2(d)
    return f if d.m == 1 else f + 1  # canonical mantissa is 1 iff power of 2


# ---------------------------------------------------------------------------
# handle
# ---------------------------------------------------------------------------

class QuantityHandle(NamedTuple):
    snapshot: EnsembleSnapshot
    quantity: str
    T: Fraction
    t: Fraction
    a: int
    a_lower: int
    b: int
    c: int
    k0: int
    precision_bits: int

    @property
    def record(self) -> Increasing:
        """The quantity's thermo.Increasing: its orders, value and slope."""
        return INCREASING[QUANTITY_CHOICES.index(self.quantity)]

    def g(self, x, k: int) -> Enclosure:
        """Depth-k value at x: eval_partial's, bit for bit, at any x it takes."""
        x = _temp_frac(x)
        if k < 1:
            raise SpecError("depth k must be >= 1")
        q = self.record
        mu = moments(self.snapshot, x, k, q.orders, self.precision_bits)
        return q.value(mu, x, self.precision_bits)

    def f(self, x=None, precision_bits: Optional[int] = None) -> Enclosure:
        """Limit value at x (default: the certified T): eval_limit's, bit
        for bit, at any x it takes."""
        x = self.T if x is None else _temp_frac(x)
        p = self.precision_bits if precision_bits is None else precision_bits
        q = self.record
        return q.value(moments(self.snapshot, x, "limit", q.orders, p), x, p)

    def radius(self, n: int) -> Dyadic:
        return Dyadic(1, self.a_lower + self.c - n)


class WitnessReport(NamedTuple):
    T: Fraction
    n: int
    k_e: int
    length_threshold: Dyadic
    witness: BitString
    verified_through: int


class ReconstructionReport(NamedTuple):
    T_true: Fraction
    n: int
    u: Fraction
    beta_bits_used: int
    candidate: Dyadic
    radius: Dyadic


# ---------------------------------------------------------------------------
# running partial sums (incremental in k)
# ---------------------------------------------------------------------------

def _depth_runs(handle: QuantityHandle, x: Fraction,
                q: Optional[Increasing] = None,
                ) -> Iterator[tuple[int, int, Callable[[int], Enclosure]]]:
    """(k, m, g) for each run of depths k, ..., k + m - 1 >= k0 inside one
    census group, with g(i) = g(x, k + i) from one running walk's exact
    sums, valid until the next run is drawn; the last run is the census
    total alone.  g is q's value, by default the handle's record's."""
    k0, p = handle.k0, handle.precision_bits
    q = q or handle.record
    walk = _RunningWalk(handle.snapshot.groups(), WeightChain(x, p), q.orders)

    def at(i: int) -> Enclosure:
        return q.value({j: walk.at(j, i) for j in q.orders}, x, p)

    k = 0
    for _, count in walk:
        first = min(count, max(k0 - k, 0))  # the programs before k0
        if first < count:
            yield k + first, count - first, lambda i, s=first: at(s + i)
        k += count
    if k < k0:
        raise RangeError("enumeration exhausted")
    yield k, 1, at


def _exceeding_depth(handle: QuantityHandle, x: Fraction,
                     upper_oracle: Iterable[Dyadic], budget: float,
                     ceiling: Optional[Dyadic] = None,
                     q: Optional[Increasing] = None) -> Optional[int]:
    """The first depth k >= k0 with g(x, k) certifiably above the oracle's
    first value, or None if the oracle is empty or budget depths are
    compared first.  Once the depths run out, each later value is compared
    at the census total, at one unit of budget each.  g is q's value, by
    default the handle's record's: the one search of all three procedures
    walks the quantity at r for witness_search and semidecide_above, and
    beta's partial sums, the order-b moment at u, for reconstruct_T.

    g(x, k) rises with k, so one comparison at a run's last depth stands
    for the whole run, and bisection finds the first depth inside the run
    that exceeds the value: a census group of any size costs about log2 of
    its count comparisons.  Should rounding make an enclosure's lower end
    fall within a run, the depth returned could only be a later one, and
    it is certified all the same.

    ceiling, if given, is an upper end of g's limit: of f(x) for
    semidecide_above, of beta for reconstruct_T.  g(x, k) rises to its
    limit (lengths never fall), so no depth is certifiably above a value
    h >= ceiling: such a value is passed over with no sum, at the budget
    its comparisons would have spent (the total - k0 + 1 depths for the
    first value, one unit for a later one)."""
    values = iter(upper_oracle)
    h = next(values, None)
    if h is None:
        return None
    runs = _depth_runs(handle, x, q)
    g = None  # the last run's g, at the census total, once drawn
    if ceiling is not None and h >= ceiling:
        total = handle.snapshot.total
        if total < handle.k0:
            raise RangeError("enumeration exhausted")
        spent = total - handle.k0 + 1
        if spent > budget:
            return None
    else:
        h = Enclosure.point(h)
        spent = 0
        for k, m, g in runs:
            if spent + m > budget:  # not min(): m may be past any float
                m = budget - spent
            if m < 1:
                return None
            spent += m
            if certified_gt(g(m - 1), h):
                i, j = 0, m - 1  # depth k + j exceeds h
                while i < j:
                    mid = (i + j) // 2
                    i, j = (i, mid) if certified_gt(g(mid), h) else (mid + 1, j)
                return k + j
    for h in values:  # at the census total k, where g(0) is the total
        if spent >= budget:
            return None
        spent += 1
        if ceiling is not None and h >= ceiling:
            continue
        if g is None:  # walk on to the census total
            for k, _, g in runs:
                pass
        if certified_gt(g(0), Enclosure.point(h)):
            return k
    return None


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def _min_capacity_on_window(snapshot, k0: int, T: Fraction, t: Fraction,
                            precision_bits: int,
                            walks: dict[Fraction, CensusWalk],
                            Z_t: Enclosure) -> Dyadic:
    """Certified positive lower bound on C_k over [T, t] at every depth k
    >= k0, on four equal pieces, in the pair form of the variance.  With
    P = Z Y - W^2, C = ln2 P / (x^2 Z^2), and by the Lagrange identity

      P = 1/2 sum_a sum_b c_a c_b w_a w_b (l_a - l_b)^2

    over length groups a, b with counts c and weights w = 2^(-l/x).  Every
    pair term is nonnegative and rises with x and with each weight, and so
    does x^2 Z^2; a deeper sum only adds pair terms and weights.  So on a
    piece [x0, x1], with K = 2 k0 + 2 (at most the census total),

      C_k >= ln2 / x1^2 min(P_k0(x0) / Z_K(x1)^2, P_K(x0) / Z_lim(x1)^2),

    the first term for k0 <= k <= K and the second for k >= K.  The
    identity holds for any weights, so Z Y - W^2 of the exact lower-endpoint
    sums at x0 is the pair sum at weights below the true ones, a lower
    bound on P(x0); Z_K(x1) and Z_lim(x1) are bounded by upper endpoints.
    A piece's bound is positive exactly when P_k0 is, that is when the
    first k0 programs have two lengths, on every piece alike.

    walks maps temperatures to CensusWalks over the slope reach
    (certify's at T, at t and at the slope samples, which the piece ends
    T + (t - T) i/4 meet); a piece end that none covers is summed over the
    slope reach too, taken from the census if T has no walk.  Z_lim is one
    limit evaluation of order 0 per piece end, except that Z_t, the limit
    of Z at t, serves at t.  Each point is summed once."""
    p = precision_bits
    ln2 = ln2_enclosure(p)
    reach = (walks[T].groups if T in walks
             else _slope_reach(snapshot.groups(), k0))
    K = min(2 * k0 + 2, sum(count for _, count in reach))
    points = {}

    def at(x: Fraction) -> list[dict[int, Enclosure]]:
        if x not in points:
            walk = walks.get(x) or CensusWalk(reach, x, p)
            points[x] = walk.sums((0, 1, 2), (k0, K))
        return points[x]

    bounds = []
    ends = _window_points(T, t, 4)
    for x0, x1 in zip(ends, ends[1:]):
        P_k0, P_K = (mu[0].lo * mu[2].lo - mu[1].lo * mu[1].lo
                     for mu in at(x0))
        if P_k0.sign <= 0:
            raise CertificationError(f"cannot certify positive heat capacity"
                                     f" on [{T}, {t}] at k0={k0}")
        Z_K = at(x1)[1][0].hi
        Z_lim = (Z_t if x1 == t
                 else moments(snapshot, x1, "limit", (0,), p)[0]).hi
        # the smaller of P_k0 / Z_K^2 and P_K / Z_lim^2, compared exactly
        P, Z = ((P_k0, Z_K) if P_k0 * Z_lim * Z_lim <= P_K * Z_K * Z_K
                else (P_K, Z_lim))
        bounds.append(div(ln2 * Enclosure.point(P),
                          Enclosure.from_rational(x1 * x1, p)
                          * Enclosure.point(Z * Z), p).lo)
    return min(bounds)


def _slope_reach(groups, k0: int) -> list[tuple[int, int]]:
    """The census groups through the first group end at or past depth
    2 k0 + 2, the slope check's deepest sample (all of them where the census
    is shorter): what every walk certify builds covers.  A walk ends at a
    group end because the re-check decides each group at its extremes."""
    K = 0
    for g, (_, count) in enumerate(groups):
        K += count
        if K >= 2 * k0 + 2:
            return groups[:g + 1]
    return groups


def _window_points(T: Fraction, t: Fraction, n: int) -> list[Fraction]:
    """T + (t - T) i/n for i = 0, ..., n, each built from integers as
    (a d n + i (c b - a d)) / (b d n), with T = a/b and t = c/d."""
    a, b, c, d = T.numerator, T.denominator, t.numerator, t.denominator
    base, step, den = a * d * n, c * b - a * d, b * d * n
    return [Fraction(base + i * step, den) for i in range(n + 1)]


def _slope_points(T: Fraction, t: Fraction) -> list[Fraction]:
    """The points of (T, t) at which the slope check samples g."""
    return _window_points(T, t, SLOPE_SAMPLES + 1)[1:-1]


# each quantity's part of the certificate: the limit orders certify reads
# at T (Z and W, for the increments past the census and the conditions on
# k0) and at t (for the slope bounds: W for Z, Z and W for S_lim(t) of -F,
# Z and Y for the capacity of E and S); and (cL, cN, cD) from T = tn/td,
# the increment per unit weight r = (cL dlog + cN dE) / cD that
# _check_increments and _increment_bounds read.  Z's increment is w itself.
_CERTIFICATES = {
    "Z": ((), (1,), None),
    "-F": ((0, 1), (0, 1), lambda tn, td: (tn, 0, td)),
    "E": ((0, 1), (0, 2), lambda tn, td: (0, 1, 1)),
    "S": ((0, 1), (0, 2), lambda tn, td: (tn, td, tn)),
}


def certify(snapshot: EnsembleSnapshot, quantity: str, T,
            precision_bits: int = DEFAULT_PRECISION) -> QuantityHandle:
    """Compute the certificate constants from enclosures, then re-verify
    every claimed inequality on the census (_verify_certificate)."""
    if quantity not in QUANTITY_CHOICES:
        raise SpecError(f"quantity must be one of {QUANTITY_CHOICES}")
    Tf = _temp_frac(T)
    t = (Tf + 1) / 2
    xs = _slope_points(Tf, t)
    p = precision_bits
    ln2 = ln2_enclosure(p)
    orders_T, orders_t, _ = _CERTIFICATES[quantity]
    lim_T = moments(snapshot, Tf, "limit", orders_T, p) if orders_T else None
    lim_t = moments(snapshot, t, "limit", orders_t, p)
    groups = snapshot.groups()
    if len(groups) < 2:
        raise CertificationError("ensemble has a single program length; "
                                 "slopes cannot be certified")
    # the chain at T: its first weight sets k0, and k0 sets how far the
    # walk at T, which extends the same chain, reaches
    chain = WeightChain(Tf, p)
    l1, first_distinct = groups[0]  # |p_k| = l1 for k <= first_distinct
    w1 = chain[l1]
    Z1_lo = w1.lo
    walks = {}

    def walk_over_reach(k0: int, *xs: Fraction) -> CensusWalk:
        # the walks over the slope reach: the one at T, which the re-check
        # and the slope check reuse, and one at each of xs
        reach = _slope_reach(groups, k0)
        walks[Tf] = CensusWalk(reach, Tf, p, chain)
        walks.update((x, CensusWalk(reach, x, p)) for x in xs)
        return walks[Tf]

    def first_k(cond: Callable[[int], bool]) -> int:
        # smallest k > first_distinct, k < n - 1 (n the census total), with
        # cond(|p_{k+1}|)
        K = 0
        for g, (l, count) in enumerate(groups):
            k = max(K, first_distinct + 1)
            K += count
            if k < K - (g == len(groups) - 1) and cond(l):
                return k
        raise CertificationError("no enumerated index satisfies the "
                                 "certificate precondition")

    if quantity == "Z":
        b = c = 0
        k0 = 1
        walk_over_reach(k0)
        # slope: Z' = (ln2/x^2) W(x), between (ln2/t^2) W_1(T) and
        # (ln2/T^2) W(t)
        up = div(ln2 * lim_t[1], Enclosure.from_rational(Tf * Tf, p), p)
        lo = div(ln2 * (w1 * l1),
                 Enclosure.from_rational(t * t, p), p)
        a = max(0, _ceil_log2(up.hi))
        a_lower = max(0, -_floor_log2(lo.lo))
    elif quantity == "-F":
        c = 0
        # increment factor T/(Z ln2) between T/(Z_lim ln2) and T/(Z_k0 ln2)
        factor_lo = div(Enclosure.from_rational(Tf, p), lim_T[0] * ln2, p).lo
        b = max(1, -_floor_log2(factor_lo)) if factor_lo < Dyadic(1) else 1
        U = div(Enclosure.from_rational(Tf, p),
                Enclosure.point(Z1_lo) * ln2, p).hi
        k0 = first_k(lambda l: U <= l ** b)
        # slope is S_k(x): between S_{k0}(T) and S_lim(t)
        mu = walk_over_reach(k0).sums((0, 1), (k0,))[0]
        s_lo = INCREASING[QUANTITY_CHOICES.index("S")].value(mu, Tf, p)
        if not certified_positive(s_lo):
            raise CertificationError("entropy at k0 not certifiably positive")
        s_hi = INCREASING[QUANTITY_CHOICES.index("S")].value(lim_t, t, p)
        a = max(0, _ceil_log2(s_hi.hi))
        a_lower = max(0, -_floor_log2(s_lo.lo))
    else:  # E and S share the capacity-based slope machinery
        # l >= max(2 E_sup, 1 / (2 Z_1)), E_sup the upper end of E_lim(T),
        # multiplied out
        E_up = div(lim_T[1], lim_T[0], p).hi.scale2(1)

        def long_enough(l: int) -> bool:
            return E_up <= l and Z1_lo * (2 * l) >= 1

        if quantity == "E":
            b, c = 2, 1
            k0 = first_k(long_enough)
        else:
            b, c = 3, 1
            # and l^2 >= (1/T + 1/ln2) / (2 Z_1), with T = tn/td and the
            # upper end of 1/ln2: 2 l^2 Z_1 tn >= td + tn/ln2
            tn, td = Tf.numerator, Tf.denominator
            V = div(Enclosure.point(1), ln2, p).hi * tn + td
            k0 = first_k(lambda l: long_enough(l)
                         and Z1_lo * (2 * l * l * tn) >= V)
        # slope is C_k(x) (or C_k(x)/x for S): uniform upper bound
        # (ln2/T^2) Y_lim(t)/Z_1(T), lower bound min C_k on [T, t] over
        # every k >= k0
        c_up = div(ln2 * lim_t[2],
                   Enclosure.from_rational(Tf * Tf, p)
                   * Enclosure.point(Z1_lo), p).hi
        # the slope samples' walks and the one at t, built once for the
        # capacity pieces that end at them and for the slope check
        walk_over_reach(k0, *xs, t)
        c_lo = _min_capacity_on_window(snapshot, k0, Tf, t, p, walks,
                                       lim_t[0])
        if quantity == "S":
            c_up = div(Enclosure.point(c_up),
                       Enclosure.from_rational(Tf, p), p).hi
            c_lo = div(Enclosure.point(c_lo),
                       Enclosure.from_rational(t, p), p).lo
        a = max(0, _ceil_log2(c_up))
        a_lower = max(0, -_floor_log2(c_lo))

    handle = QuantityHandle(snapshot, quantity, Tf, t, a, a_lower, b, c, k0, p)
    _verify_certificate(handle, walks, lim_T, xs)
    return handle


def _verify_certificate(handle: QuantityHandle,
                        walks: Optional[dict[Fraction, CensusWalk]] = None,
                        limit: Optional[dict[int, Enclosure]] = None,
                        xs: Optional[list[Fraction]] = None) -> None:
    """Re-check the increment bracket at every depth k >= k0, then sample
    the slope bounds on (T, t).

    walks maps T, and any of the slope samples, to its CensusWalk over the
    slope reach, limit holds the limit moments at T of orders 0 and 1, and
    xs are the slope samples (_slope_points), as certify built them
    (whatever is not given is built here).

    The claimed bounds l^c 2^(-b) w and l^b 2^c w depend on a program's
    length l and weight w alone, so the depths are checked one census
    length group (l, count) at a time, from the exact sums Z_K, W_K over
    the K programs before the group; Z_k = Z_K + (k - K) w.  Within a group
    every increment falls as k grows, because Z_k grows by w at each
    program:

      Z   the increment is w itself, so the bracket is the inequality
          l^c 2^(-b) <= 1 <= l^b 2^c, read at no weight; each side is
          monotone in l, so it holds at every census length when it holds
          at the shortest and the longest, and at every longer length too
          when c <= 0 <= b;
      -F  T log2(1 + w/Z_k) falls as Z_k grows;
      E   w (Z_k l - W_k) / (Z_k Z_{k+1}): Z_k l - W_k = sum (l - l_i) w_i
          is the same at every k in the group, and Z_k Z_{k+1} grows;
      S   dE/T + log2(1 + w/Z_k), and both terms fall.

    So the upper bound binds at the group's first checked depth and the
    lower bound at its last, and one comparison each decides the whole
    group (_check_increments).  A -F, E or S handle's groups come from a
    running walk at T over the census (_argued_groups): up to the slope
    reach every group is checked, and from there on _increments_close is
    tried at each group's start, which proves the bracket at every later
    depth at once; where it fails that group is checked too.  A falsified
    bound raises CertificationError, an unresolved one PrecisionError; the
    first group with either decides, and within it a falsified bound
    outranks an unresolved one.  A bracket left unproved past the census
    raises CertificationError too, unless no program can follow the census
    (_census_is_the_domain).
    """
    snapshot, quantity = handle.snapshot, handle.quantity
    k0, b, c = handle.k0, handle.b, handle.c
    groups = snapshot.groups()
    reach = _slope_reach(groups, k0)
    depth = sum(count for _, count in reach)  # the census total if < 2 k0 + 2
    if depth <= k0:
        raise CertificationError(f"census check depth {depth} is not beyond "
                                 f"k0 = {k0}; nothing to verify")
    if k0 < 1 and quantity != "Z":
        raise PrecisionError("increment bound unresolved at k=0: g(T, 0) "
                             "is undefined")
    p = handle.precision_bits
    walks = walks or {}
    walk = walks.get(handle.T) or CensusWalk(reach, handle.T, p)
    if quantity == "Z":
        def holds(l: int) -> bool:  # l^c 2^-b <= 1 <= l^b 2^c
            return _at_most_one(l, c, -b) and _at_most_one(l, -b, -c)

        K = g = 0  # the programs before group g, which holds depth k0
        while K + groups[g][1] <= k0:
            K, g = K + groups[g][1], g + 1
        if not (holds(groups[g][0]) and holds(groups[-1][0])):
            for l, count in groups[g:]:
                if not holds(l):
                    raise CertificationError(
                        f"increment bound falsified at k={max(K, k0)}, "
                        f"length {l}")
                K += count
        if (c > 0 or b < 0) and not _census_is_the_domain(snapshot):
            raise _unproved_past_census(sum(count for _, count in groups),
                                        groups[-1][0])
    else:
        limit = limit or moments(snapshot, handle.T, "limit", (0, 1), p)
        running = _RunningWalk(groups, walk.chain, (0, 1))
        _check_increments(
            handle, _argued_groups(handle, running, depth, limit), k0)

    # the slope bounds at depths k0, k0 + 1 and 2 k0 + 2, at sample points
    # of (T, t), from one walk per point; each point's bounds dx 2^a and
    # dx 2^(-a_lower), dx = x - T, serve all its depths
    T, t = handle.T, handle.t
    ks = sorted({k0, k0 + 1, min(2 * k0 + 2, depth)})
    xs = xs or _slope_points(T, t)
    q = handle.record
    at_T = walk.sums(q.orders, ks)
    at_x = [(walks.get(x) or CensusWalk(reach, x, p)).sums(q.orders, ks)
            for x in xs]
    slopes = [(dx.scale2(handle.a), dx.scale2(-handle.a_lower))
              for dx in (Enclosure.from_rational(x - T, p) for x in xs)]
    for i, k in enumerate(ks):
        gT = q.value(at_T[i], T, p)
        for x, mu, (up, down) in zip(xs, at_x, slopes):
            diff = q.value(mu[i], x, p) - gT
            if certified_lt(up, diff):
                raise CertificationError(
                    f"slope upper bound falsified at k={k}, x={x}")
            if certified_lt(diff, down):
                raise CertificationError(
                    f"slope lower bound falsified at k={k}, x={x}")


def _argued_groups(handle: QuantityHandle, walk: _RunningWalk, reach: int,
                   limit: dict[int, Enclosure]):
    """The census groups that the -F, E or S increments of handle need
    checked, as _check_increments reads them: (K, l, count, e, w, Z, W),
    with K the programs before the group and, as (lo, hi) integer pairs at
    2^e, its weight w and the exact sums Z and W of 2^(-l/T) and l 2^(-l/T)
    over the first K programs, from walk, a running walk at T with orders
    0 and 1.  Every group up to depth reach is drawn; past it, a group is
    drawn only where _increments_close fails at its start, with l its
    length.  At the census end l is the last length + 1, and a failure there
    raises CertificationError, unless no program can follow the census
    (_census_is_the_domain)."""
    K = l = 0
    for l, count in walk:
        Z_lo, e, Z_hi, _ = walk.exact(0)
        if K >= reach and _increments_close(handle, limit, Dyadic(Z_lo, e), l):
            return
        a, _, b, _ = walk.term(0)
        W_lo, _, W_hi, _ = walk.exact(1)
        yield K, l, count, e, (a, b), (Z_lo, Z_hi), (W_lo, W_hi)
        K += count
    Z_lo, e, _, _ = walk.exact(0)
    if not (_increments_close(handle, limit, Dyadic(Z_lo, e), l + 1)
            or _census_is_the_domain(handle.snapshot)):
        raise _unproved_past_census(K, l)


def _at_most_one(l: int, i: int, j: int) -> bool:
    """Whether l^i 2^j <= 1, for a length l >= 1, in integers."""
    return l ** max(i, 0) << max(j, 0) <= l ** max(-i, 0) << max(-j, 0)


def _census_is_the_domain(snapshot: EnsembleSnapshot) -> bool:
    """Whether no program can follow the census: without a generating
    function, a census whose Kraft sum is 1 is a complete prefix code."""
    return snapshot.series is None and snapshot.kraft_partial() == 1


def _unproved_past_census(n: int, l: int) -> CertificationError:
    return CertificationError(f"increment bound unproved at k={n}, past the "
                              f"census's last length {l}")


def _check_increments(handle: QuantityHandle, prefixes, start: int) -> None:
    """The increment brackets of a -F, E or S handle at the depths k >=
    start of the groups of prefixes (_argued_groups); see
    _verify_certificate.

    Per unit of its weight w, an increment is r = (cL dlog + cN dE) / cD:
    T dlog for -F, dE for E and dE/T + dlog for S, with dE = (Z_k l - W_k)
    / (Z_k Z_{k+1}) and dlog = log2(1 + q) / w, q = w/Z_k <= 1.  log2(1 +
    q) lies in [q - q^2/2, q] / ln 2, and q - q^2/2 rises on [0, 1], so
    dlog lies in [(2 Z_k - w_lo) / (2 Z_k^2 ln 2), 1 / (Z_k ln 2)], taken
    at the upper and the lower ends of Z_k and ln 2.  The increment lies
    in [w_lo r_lo, w_hi r_hi], so with rho = w_hi/w_lo the upper bound
    l^b 2^c w holds when r_hi rho < l^b 2^c and is falsified when r_lo >=
    rho l^b 2^c; the lower bound l^c 2^-b w holds when rho l^c 2^-b < r_lo
    and is falsified when l^c 2^-b >= rho r_hi.  A falsified upper bound
    is named at the group's first checked program; a falsified lower
    bound at the first program where it fails, found by bisection, since
    r_hi falls across the group."""
    b, c = handle.b, handle.c
    bits = handle.precision_bits + _RECHECK_GUARD
    cL, cN, cD = _CERTIFICATES[handle.quantity][2](handle.T.numerator,
                                                   handle.T.denominator)
    ln2 = ln2_enclosure(handle.precision_bits)
    l0, e0, l1, e1 = ln2.lo.m, ln2.lo.e, ln2.hi.m, ln2.hi.e

    def rounded(m: int, up: bool) -> tuple[int, int]:
        # (r, x): m rounded down or up to r 2^x, r of `bits` bits at most
        x = m.bit_length() - bits
        if x <= 0:
            return m, 0
        return (-(-m >> x) if up else m >> x), x

    def below(u: int, v: int, s: int) -> bool:  # u 2^s < v
        return u << s < v if s >= 0 else u < v << -s

    def ratio(i: int, up: bool) -> tuple[int, int, int]:
        """(num, den, e): r_hi if up, else r_lo, as num 2^e / den at the
        group's program i, from the lower ends of Z_k, Z_{k+1} and ln 2
        and the upper end of N = Z_k l - W_k if up, else the other ends."""
        w = A if up else B
        Z = (Z_lo if up else Z_hi) + i * w
        z, xz = rounded(Z, not up)
        zn, xn = rounded(Z + w, not up) if cN else (1, 0)
        n, xN = N[up]
        if up:  # r = (cL / L + cN N / Zn) / (cD Z)
            u, U, L = -e0, cL * zn, l0
        elif cL:  # with 2 Z - w_lo over 2 Z in place of 1
            g, xg = rounded((z << xz + 1) - A, False)
            u, U, L = xg - xz - e1 - 1, cL * g * zn, l1 * z
        else:
            u, U, L = 0, 0, l1 * z
        v = xN - xn
        s = u if u < v else v
        return ((U << u - s) + (cN * n * L << v - s), cD * z * L * zn,
                s - xz - base)

    for K, l, count, base, (A, B), (Z_lo, Z_hi), (W_lo, W_hi) in prefixes:
        first, last = max(start - K, 0), count - 1
        if first > last:
            continue
        N = ((rounded(l * Z_lo - W_lo, False),
              rounded(l * Z_hi - W_hi, True)) if cN else ((0, 0),) * 2)
        Un, Ud = (l**b, 1) if b >= 0 else (1, l**-b)  # l^b 2^c
        Ln, Ld = (l**c, 1) if c >= 0 else (1, l**-c)  # l^c 2^-b
        num, den, e = ratio(first, True)  # rho = B / A
        hi_ok = below(num * B * Ud, den * A * Un, e - c)
        num, den, e = ratio(last, False)
        lo_ok = below(B * Ln * den, num * A * Ld, -b - e)
        if not (hi_ok and lo_ok):
            def lo_bad_at(i: int) -> bool:
                num, den, e = ratio(i, True)
                return not below(Ln * A * den, B * num * Ld, -e - b)

            num, den, e = ratio(first, False)
            hi_bad = not (hi_ok or below(num * A * Ud, den * B * Un, e - c))
            if hi_bad or not lo_ok and lo_bad_at(last):
                i, j = first, last  # the lower bound fails from i on
                while not hi_bad and i < j:
                    mid = (i + j) // 2
                    i, j = (i, mid) if lo_bad_at(mid) else (mid + 1, j)
                raise CertificationError(
                    f"increment bound falsified at k={K + i}, length {l}")
            k = K + (last if hi_ok else first)
            raise PrecisionError(
                f"increment bound unresolved at k={k}, with "
                f"{handle.precision_bits} bits of working precision; raise "
                f"precision")


def _increment_bounds(handle: QuantityHandle, limit: dict[int, Enclosure],
                      Z_K: Dyadic
                      ) -> tuple[tuple[Dyadic, Dyadic, Dyadic],
                                 tuple[Dyadic, Dyadic, Dyadic]]:
    """((A, B, P), (G, H, Q)), with P, Q > 0, such that, per unit of weight,
    every increment of a -F, E or S handle at a depth k >= K, whose
    program k + 1 has length l, lies in [(A l + B) / P, (G l + H) / Q].
    They come from Z_K <= Z_k <= Z_{k+1} <= Z_lim and W_k <= W_lim: Z_K is
    a lower end of the sum over the first K programs, Z_lim and W_lim the
    upper ends of limit (the limit moments at T).  With the increment r =
    (cL dlog + cN dE) / cD of _CERTIFICATES, dE and dlog as in
    _check_increments, and the ends of ln2_enclosure taken outward:

      dE    [(Z_K l - W_lim) / Z_lim^2, l / Z_K]: Z_k l - W_k is at least 0
            (no earlier program is longer) and at least Z_K l - W_lim, and
            Z_k Z_{k+1} <= Z_lim^2;
      dlog  [1 / (Z_lim ln 2), 1 / (Z_K ln 2)], since q / (1 + q) <=
            ln(1 + q) <= q and Z_k + w = Z_{k+1}.

    Each pair is put over one denominator, so that every end is exact in
    dyadics."""
    cL, cN, cD = _CERTIFICATES[handle.quantity][2](handle.T.numerator,
                                                   handle.T.denominator)
    ln2 = ln2_enclosure(handle.precision_bits)
    L_lo, L_hi = ln2.lo, ln2.hi
    Z_lim, W_lim = limit[0].hi, limit[1].hi
    return ((Z_K * L_hi * cN, Z_lim * cL - W_lim * L_hi * cN,
             Z_lim * Z_lim * L_hi * cD),
            (L_lo * cN, Dyadic(cL), Z_K * L_lo * cD))


def _increments_close(handle: QuantityHandle, limit: dict[int, Enclosure],
                      Z_K: Dyadic, l: int) -> bool:
    """Whether every increment of a -F, E or S handle at a depth k >= K
    provably lies in its bracket, by an argument closed in the length:
    Z_K and limit are as in _increment_bounds, and l is the length of
    program K + 1, at most every later one.  With the increment in
    [alpha l + beta, gamma l + delta] (alpha = A/P and so on), the lower
    bound l^c 2^-b holds at every length past l when alpha l + beta >=
    l^c 2^-b and alpha >= c l^(c-1) 2^-b, because for c <= 1 the slope of
    their difference never falls below the smaller of its value at l and
    alpha >= 0; the upper bound l^b 2^c when gamma l + delta <= l^b 2^c and
    gamma <= b l^(b-1) 2^c, because for b >= 1 the slope of l^b 2^c never
    falls.  Each condition is compared multiplied out by the positive P or
    Q, 2^b and a power of l.  For b < 1 or c >= 2 the argument is declined
    (False), and so it is wherever a condition fails."""
    b, c = handle.b, handle.c
    if b < 1 or c > 1:
        return False
    (A, B, P), (G, H, Q) = _increment_bounds(handle, limit, Z_K)
    return (P * l ** max(c, 0) <= (A * l + B).scale2(b) * l ** max(-c, 0)
            and P * c <= A.scale2(b) * l ** (1 - c)
            and G * l + H <= (Q * l ** b).scale2(c)
            and G <= (Q * (b * l ** (b - 1))).scale2(c))


# ---------------------------------------------------------------------------
# monotone inversion
# ---------------------------------------------------------------------------

# bits of working precision beyond the tolerance's: the limit values must
# resolve differences of about slope * tol/32 between the final probes
SOLVE_GUARD_BITS = 24

# the temperatures solve_temperature searches
SOLVE_BRACKET = (Fraction(1, 64), Fraction(63, 64))


def _mid(e: Enclosure) -> Dyadic:
    return (e.lo + e.hi).scale2(-1)


def _slope_estimate(quantity: str, mu: dict[int, Enclosure], x: Dyadic,
                    value: Dyadic, ln2: Dyadic) -> tuple[Dyadic, Dyadic]:
    """d/dx of the limit quantity at x as a quotient (num, den) of dyadics,
    den > 0: the slope of the quantity's thermo.Increasing at the midpoints
    Z, W and Y of the moments the probe already summed (Y where it summed
    it) and its value's midpoint.  It only picks probes; num <= 0 means no
    usable estimate."""
    Z, W, Y = (_mid(mu[j]) if j in mu else None for j in range(3))
    return INCREASING[QUANTITY_CHOICES.index(quantity)].slope(
        Z, W, Y, x, value, ln2)


def _newton_point(x: Dyadic, value: Dyadic, aim: Dyadic,
                  slope: tuple[Dyadic, Dyadic], grid: int
                  ) -> tuple[Dyadic, tuple[Dyadic, Dyadic]]:
    """(on, size): the Newton point x* = x + (aim - value) den/num, for
    slope = (num, den), rounded down to the 2^-grid by one integer floor
    division, and the step |x* - x| as a quotient (dist, num) of dyadics.
    A slope with num <= 0 is read as (0, 1), so x* = x."""
    num, den = slope
    if num.m > 0:
        gap = (aim - value) * den
    else:
        num, gap = Dyadic(1), Dyadic(0)
    N = x * num + gap  # x* = N / num
    s = N.e - num.e + grid
    on = Dyadic((N.m << s) // num.m if s >= 0 else N.m // (num.m << -s),
                -grid)
    return on, (abs(gap), num)


def _window_probe(lo: Dyadic, hi: Dyadic, x: Dyadic, w: Dyadic) -> Dyadic:
    """A probe that can close the region (lo, hi), wider than w, to width w
    around the estimate x: the point w from an end within 3w/4 of x,
    otherwise the point w/2 below x."""
    reach = w.scale2(-2) * 3
    if hi - x <= reach:
        return hi - w
    if x - lo <= reach:
        return lo + w
    return x - w.scale2(-1)


def _unresolved(target: Enclosure, overlap: Optional[Enclosure], p: int,
                tol: Dyadic) -> PrecisionError:
    """Name what kept the edges apart: the target's own width, or the
    width of the limit values at the working precision."""
    if overlap is not None and not target.width() < overlap.width():
        return PrecisionError(
            f"the target enclosure (width {target.width().serialize()}) is "
            f"too wide to localise the temperature to width {tol.serialize()}")
    return PrecisionError(
        f"at {p} bits of working precision the limit values left the edge "
        f"comparisons unresolved; could not localise the temperature to "
        f"width {tol.serialize()}")


def solve_temperature(handle: QuantityHandle, target: Enclosure,
                      tol: Dyadic) -> Enclosure:
    """Invert the increasing limit function: returns a temperature
    enclosure [a, b] of width <= tol that contains every x in
    SOLVE_BRACKET whose image meets the target (a rational target is
    rounded outward at the working precision).

    One bracket is shared by both edges.  a is the bracket's low end or a
    probe whose value is certifiably below the target; b is the high end
    or a probe certifiably above it; neither end moves on any other
    evidence, so where the solver probes cannot affect soundness, only
    how many limit evaluations it takes.  Each probe is one limit
    evaluation at p = max(handle precision, tol bits + 24) bits.  Probes
    are chosen by a Newton step from the last probe, with a slope
    estimated from the moments that probe summed, and fall back to
    bisection when the step leaves the bracket, the slope estimate is not
    positive, or the steps stop halving.  Once the step is below the goal
    width tol/8, the probes sit just either side of the estimate, so the
    result is at most tol/8 wide.  A probe whose value overlaps the
    target joins the overlap core, and each edge is then finished in the
    gap between the core and its end, to within tol/16 of the core.
    PrecisionError says whether the target's width or the working
    precision kept the edges more than tol apart.
    """
    if tol.sign <= 0:
        raise SpecError("tol must be positive")
    p = max(handle.precision_bits, SOLVE_GUARD_BITS - _floor_log2(tol))
    if not isinstance(target, Enclosure):
        target = Enclosure.from_rational(target, p)
    quantity, q = handle.quantity, handle.record
    orders = (*q.orders, max(q.orders) + 1)  # as the slope reads
    ln2 = ln2_enclosure(p).lo
    goal = tol.scale2(-3)
    half = goal.scale2(-1)
    grid = max(0, 4 - _floor_log2(goal))  # Newton probes lie on 2^-grid
    aim_mid, aim_lo, aim_hi = _mid(target), target.lo, target.hi

    ends = tuple(map(Dyadic.from_fraction, SOLVE_BRACKET))
    a, b = ends
    unchecked = list(ends)  # bracket ends not yet probed
    core: Optional[tuple[Dyadic, Dyadic]] = None  # hull of overlapping probes
    overlap: Optional[Enclosure] = None  # the last overlapping value
    # the last probe's (x, value midpoint, slope estimate), and its Newton
    # step's size (_newton_point) if it was a Newton probe
    last: Optional[tuple[Dyadic, Dyadic, tuple[Dyadic, Dyadic]]] = None
    step: Optional[tuple[Dyadic, Dyadic]] = None
    # after an estimate misleads, bisect `skip` times before the next
    # Newton step; the penalty doubles with each miss
    skip, penalty = 0, 1

    def probe(y: Dyadic) -> None:
        nonlocal a, b, core, overlap, last
        mu = moments(handle.snapshot, y.as_fraction(), "limit", orders, p)
        v = q.value(mu, y, p)
        value = _mid(v)
        last = (y, value, _slope_estimate(quantity, mu, y, value, ln2))
        if y in unchecked:
            unchecked.remove(y)
        if certified_lt(v, target):
            a = y
        elif certified_gt(v, target):
            b = y
        else:
            core = (y, y) if core is None else (min(core[0], y),
                                                max(core[1], y))
            overlap = v
        if core is not None and (core[0] < a or b < core[1]):
            core = None  # an overlap that a certified probe has outranged
        if b == ends[0] or a == ends[1]:
            side = "below" if b == ends[0] else "above"
            raise RangeError(f"target {side} the quantity's range on "
                             f"[{SOLVE_BRACKET[0]}, {SOLVE_BRACKET[1]}]")

    halvings = ceil((ends[1] - ends[0]).as_fraction()
                    / goal.as_fraction()).bit_length()
    for _ in range(4 * halvings + 16):  # a bound no converging solve meets
        # the region still to close, the value whose crossing it aims at,
        # and the width that closes it
        if core is None:
            if b - a <= goal:
                break
            lo, hi, aim, w = a, b, aim_mid, goal
        else:
            if b - a <= goal or (core[0] - a <= half and b - core[1] <= half):
                break
            if core[1] - core[0] > tol:
                raise _unresolved(target, overlap, p, tol)
            if core[0] - a >= b - core[1]:
                lo, hi, aim, w = a, core[0], aim_lo, half
            else:
                lo, hi, aim, w = core[1], b, aim_hi, half
        y = estimate = newton_step = None
        if skip:
            skip -= 1
        elif last is not None and (last[2][0].m > 0 or core is not None):
            x, value, slope = last
            if slope[0].m <= 0:
                # no slope to steer by: seek the edge at the core
                x = hi if hi == core[0] else lo
            on, size = _newton_point(x, value, aim, slope, grid)
            if size[0] < goal * size[1] and lo - w < on < hi + w:
                # converged: probe just either side of the estimate
                estimate = min(max(on, lo), hi)
                y = _window_probe(lo, hi, estimate, w)
            elif not lo < on < hi:
                # past an end not yet probed: probe it, which also checks
                # that the target is in range
                end = lo if on <= lo else hi
                if end in unchecked:
                    y = end
            elif (step is None  # size <= step/2, cross-multiplied
                  or (size[0] * step[1]).scale2(1) <= step[0] * size[1]):
                y, newton_step = on, size
            else:  # the Newton steps stopped halving
                skip, penalty = penalty - 1, 2 * penalty
        step = newton_step
        probe((lo + hi).scale2(-1) if y is None else y)
        if estimate is not None and not a <= estimate <= b:
            # the probe contradicted the estimate it was placed by
            skip, penalty = penalty, 2 * penalty
    else:
        raise _unresolved(target, overlap, p, tol)
    for end in ends:
        if end in unchecked and (end == a or end == b):
            probe(end)
    result = Enclosure(a, b)
    if result.width() > tol:
        raise _unresolved(target, overlap, p, tol)
    return result


# ---------------------------------------------------------------------------
# witness search (effective incompressibility)
# ---------------------------------------------------------------------------

def witness_search(handle: QuantityHandle, T_n_bits: BitString,
                   upper_oracle: Iterable[Dyadic]) -> WitnessReport:
    n = len(T_n_bits)
    if n < 1:
        raise SpecError("need at least one bit of T")
    T = Dyadic.from_fraction(handle.T)  # a non-dyadic T raises here, named
    r = prefix_value(T_n_bits) + Dyadic(1, -n)
    r_frac = r.as_fraction()
    if not handle.T < r_frac < handle.t:
        raise RangeError(
            f"0.T_n + 2^-{n} = {r.serialize()} outside the certificate "
            f"window ({handle.T}, {handle.t}); n below n0")
    k_e = _exceeding_depth(handle, r_frac, upper_oracle, inf)
    if k_e is None:
        raise OracleExhausted("oracle ended before g(r, k) exceeded it")

    threshold = T * (n - handle.a - handle.b)
    verified_through = min(10 * k_e, handle.snapshot.total)
    if k_e < verified_through:
        # lengths never fall, so program k_e + 1 is the shortest checked
        l = handle.snapshot.length_counts_up_to(k_e + 1)[-1][0]
        if not threshold < Dyadic(l):
            raise CertificationError(
                f"program {k_e + 1} has length {l} <= threshold "
                f"{threshold.serialize()}; certificate falsified")

    records = handle.snapshot.programs
    if len(records) < k_e:
        raise RangeError(f"snapshot stores {len(records)} program records; "
                         f"listing outputs needs the first k_e = {k_e}")
    outputs = {rec.output for rec in records[:k_e] if rec.output is not None}
    s = BitString("")
    while s in outputs:
        s = successor(s)
    return WitnessReport(handle.T, n, k_e, threshold, s, verified_through)


# ---------------------------------------------------------------------------
# semidecision of T < r
# ---------------------------------------------------------------------------

def semidecide_above(handle: QuantityHandle, r,
                     upper_oracle: Iterable[Dyadic], budget: int = 256) -> str:
    """`yes` only with a certificate h(m) < g(r, k); sound because
    g(r, k) <= f(r) and h(m) >= f(T), so yes implies f(T) < f(r), i.e.
    T < r.  `unknown` on budget exhaustion.

    The upper end of f(r), one limit evaluation, is the walk's ceiling
    (_exceeding_depth): an oracle value at or above it is passed over with
    no depth sums, at the budget it would have spent.  Where f(r) is
    unresolved at the handle's precision, every value is compared."""
    r_frac = _temp_frac(r)
    if not r_frac < handle.t:
        raise RangeError(f"r = {r_frac} outside the certificate window")
    try:
        ceiling = handle.f(r_frac).hi
    except PrecisionError:
        ceiling = None
    k = _exceeding_depth(handle, r_frac, upper_oracle, budget, ceiling)
    return "unknown" if k is None else "yes"


# ---------------------------------------------------------------------------
# reconstruction of T from beta bits
# ---------------------------------------------------------------------------

def reconstruct_T(handle: QuantityHandle, u, n: int, beta_prefix: BitString,
                  A_oracle: Iterable[Dyadic], B_oracle: Iterable[Dyadic],
                  ) -> ReconstructionReport:
    u = _u_in_window(handle.T, u)
    if n < 1:
        raise SpecError("n must be >= 1")
    p, b = handle.precision_bits, handle.b
    expected_bits = -((-handle.T * n) // u)  # ceil(T n / u)
    if len(beta_prefix) != expected_bits:
        raise SpecError(f"beta_prefix must carry exactly {expected_bits} "
                        f"bits, got {len(beta_prefix)}")
    beta = moments(handle.snapshot, u, "limit", (b,), p)[b]
    floor_lo = beta.lo.floor_scaled(0)
    if beta.hi.floor_scaled(0) != floor_lo:
        raise PrecisionError(f"integer part of beta unresolved at {p} bits "
                             f"of working precision")
    target = Dyadic(floor_lo) + prefix_value(beta_prefix)

    # step 1: the first depth k >= k0 whose beta partial sum, the order-b
    # moment at u, certifiably exceeds the prefix; beta's upper end is the
    # search's ceiling, so a prefix at or above it ends the search unwalked
    k_e = _exceeding_depth(handle, u, (target,), inf, beta.hi,
                           Increasing("beta", (b,), lambda mu, x, p: mu[b],
                                      None))
    if k_e is None:
        raise OracleExhausted("enumeration exhausted before the beta "
                              "partial sum cleared the prefix value")

    # the power-raising tail step: past k_e the quantity's own tail at T
    # must fit under 2^(c - n); verified, not assumed
    g_T = handle.g(handle.T, k_e).lo
    gap_hi = handle.f().hi - g_T
    if not gap_hi < Dyadic(1, handle.c - n):
        raise CertificationError(
            f"tail past k_e={k_e} is {gap_hi.serialize()}, not below "
            f"2^{handle.c - n}; certificate falsified")

    # step 2: close the bracket g(A, k_e) < B.  Since k_e >= k0, the slope
    # floor g(A, k_e) >= g(T, k_e) + 2^-a_lower (A - T) holds, so the
    # comparison is False with no sum wherever the floor reaches B, and
    # the sum is made only where (B - g(T, k_e)) 2^a_lower - (A - T) > 0,
    # multiplied out by td for T = tn/td; A and B are drawn in lockstep
    # all the same.  Both tests run in integers: A = an 2^-sa, t = un/ud,
    # B 2^a_lower = bm 2^be and g(T, k_e) 2^a_lower = gm 2^ge, over the
    # common exponent s, which is negative since A in (T, t) is no integer
    tn, td = handle.T.numerator, handle.T.denominator
    un, ud = handle.t.numerator, handle.t.denominator
    gm, ge = g_T.m, g_T.e + handle.a_lower
    A_iter, B_iter = iter(A_oracle), iter(B_oracle)
    A = _next_or_exhausted(A_iter, "A")
    B = _next_or_exhausted(B_iter, "B")
    for _ in range(4096):
        an, sa = (A.m, -A.e) if A.e < 0 else (A.m << A.e, 0)
        if not (tn << sa < an * td and an * ud < un << sa):
            raise RangeError(f"A oracle value {A.serialize()} outside (T, t)")
        bm, be = B.m, B.e + handle.a_lower
        s = min(be, ge, -sa)
        slack = (bm << be - s) - (gm << ge - s) - (an << -sa - s)
        if (slack * td + (tn << -s) > 0
                and certified_lt(handle.g(A.as_fraction(), k_e),
                                 Enclosure.point(B))):
            return ReconstructionReport(handle.T, n, u, int(expected_bits),
                                        A, handle.radius(n))
        A = _next_or_exhausted(A_iter, "A")
        B = max(B, _next_or_exhausted(B_iter, "B"))
    raise OracleExhausted("A/B oracles did not close the bracket")


def _u_in_window(T: Fraction, u) -> Fraction:
    u = _as_fraction(u)
    if not T < u < 1:
        raise RangeError(f"u = {u} outside (T, 1) = ({T}, 1)")
    return u


def _next_or_exhausted(it: Iterator[Dyadic], name: str) -> Dyadic:
    try:
        return next(it)
    except StopIteration:
        raise OracleExhausted(f"{name} oracle exhausted") from None


# ---------------------------------------------------------------------------
# oracle factories (explicit streams; `closed-form` uses the handle's own
# certified evaluator at doubling precision: f(T) is evaluated once each at
# 16, 32, 64, ... bits, and the m-th value is an end of the first of those
# evaluations made at 16 + 8m bits or more, uncut, so values 0, 2, 6, 14,
# 30 and 62 are the ends at exactly 16 + 8m bits and every other one is an
# end of a tighter enclosure; 64 values cost 7 limit evaluations)
# ---------------------------------------------------------------------------

# values each oracle stream yields (the grid oracle one more)
ORACLE_STEPS = 64


def _doubling_ends(handle: QuantityHandle, end: str) -> Iterator[Dyadic]:
    """The named end of f(T), for m < ORACLE_STEPS, at the first of 16, 32,
    64, ... bits that is at least 16 + 8m; one doubling always suffices."""
    p = 16
    value = getattr(handle.f(precision_bits=p), end)
    for m in range(ORACLE_STEPS):
        if p < 16 + 8 * m:
            p *= 2
            value = getattr(handle.f(precision_bits=p), end)
        yield value


def descending_upper_oracle(handle: QuantityHandle):
    """Dyadics >= f(T), descending toward it."""
    yield from accumulate(_doubling_ends(handle, "hi"), min)


def ascending_lower_oracle(handle: QuantityHandle):
    """Dyadics <= f(T), ascending toward it."""
    yield from accumulate(_doubling_ends(handle, "lo"), max)


def approach_oracle(handle: QuantityHandle) -> Iterator[Dyadic]:
    """Dyadics in (T, t), descending to T: A_l = T + (t - T) 2^-l.  A T
    that is not dyadic raises SpecError at the call, naming T."""
    T = Dyadic.from_fraction(handle.T)
    span = Dyadic.from_fraction(handle.t) - T
    return (T + span.scale2(-l) for l in range(1, ORACLE_STEPS + 1))


def beta_bits(handle: QuantityHandle, u, n: int) -> BitString:
    """The ceil(Tn/u) bits after the point of beta = sum |p|^b 2^(-|p|/u),
    the prefix reconstruct_T reads: the limit of order b at u, evaluated
    at 32 bits past the handle's precision.  A u outside (T, 1) raises
    RangeError, named, before beta is evaluated."""
    u = _u_in_window(handle.T, u)
    beta = moments(handle.snapshot, u, "limit", (handle.b,),
                   handle.precision_bits + 32)[handle.b]
    return bits_prefix(beta, -((-handle.T * n) // u))


def file_oracle(path):
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    for line in lines:
        line = line.strip()
        if line:
            yield Dyadic.parse(line)


def grid_oracle(handle: QuantityHandle, step: Dyadic):
    """Coarse upper oracle, descending: the upper end of f(T) at 32 bits
    plus step m, for m = ORACLE_STEPS, ..., 1, 0."""
    base = handle.f(precision_bits=32).hi
    for m in range(ORACLE_STEPS, -1, -1):
        yield base + step * m
