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
re-verified exhaustively on every enumerated increment; a violation is a
hard CertificationError, not a tuning knob.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import ceil
from typing import Callable, Iterable, Iterator, Optional

from .bitstring import BitString, successor
from .dyadic import Dyadic
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, certified_gt, certified_lt,
    certified_positive, div, ln2_enclosure, log2_enclosure, prefix_value,
)
from .ensembles import EnsembleSnapshot
from .errors import (
    CertificationError, OracleExhausted, PrecisionError, RangeError, SpecError,
)
from .thermo import WeightChain, _temp_frac, moment_hull, moments

QUANTITY_CHOICES = ("Z", "-F", "E", "S")

MAX_DEPTH_CAP = 1 << 20


def _floor_log2(d: Dyadic) -> int:
    if d.sign <= 0:
        raise ValueError("log2 of nonpositive dyadic")
    return d.e + d.m.bit_length() - 1


def _ceil_log2(d: Dyadic) -> int:
    f = _floor_log2(d)
    return f if d.m == 1 else f + 1  # canonical mantissa is 1 iff power of 2


def _log2_1p(q: Enclosure, precision_bits: int) -> Enclosure:
    """log2(1 + q) for an enclosure 0 <= q < 1, with relative accuracy
    preserved for tiny q: ln(1+x) is bracketed by [x - x^2/2, x]."""
    if q.lo.sign < 0 or not q.hi < Dyadic(1):
        raise ValueError("q must lie in [0, 1)")
    lo = q.lo - (q.lo * q.lo).scale2(-1)
    ln1p = Enclosure(lo, q.hi)
    return div(ln1p, ln2_enclosure(precision_bits), precision_bits)


def _g_from_moments(quantity: str, Z: Enclosure, W: Enclosure, x: Fraction,
                    precision_bits: int) -> Enclosure:
    if quantity == "Z":
        return Z
    p = precision_bits
    logZ = log2_enclosure(Z, p)
    if quantity == "-F":
        return Enclosure.from_rational(x, p) * logZ
    E = div(W, Z, p)
    if quantity == "E":
        return E
    if quantity == "S":
        return div(E, Enclosure.from_rational(x, p), p) + logZ
    raise SpecError(f"unknown quantity {quantity!r}")


# ---------------------------------------------------------------------------
# handle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuantityHandle:
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
    def max_depth(self) -> int:
        return min(sum(self.snapshot.census.values()), MAX_DEPTH_CAP)

    def lengths(self, k: int) -> list[int]:
        return self.snapshot.lengths_up_to(k)

    def g(self, x: Fraction, k: int) -> Enclosure:
        """Depth-k value at temperature x."""
        x = Fraction(x)
        sums, _ = moments(self.snapshot, x, k, (0, 1), self.precision_bits)
        return _g_from_moments(self.quantity, sums[0], sums[1], x,
                               self.precision_bits)

    def f(self, x: Optional[Fraction] = None,
          precision_bits: Optional[int] = None) -> Enclosure:
        """Limit value at temperature x (default: the certified T)."""
        x = self.T if x is None else Fraction(x)
        p = self.precision_bits if precision_bits is None else precision_bits
        mu, _ = moments(self.snapshot, x, "limit", (0, 1), p)
        return _g_from_moments(self.quantity, mu[0], mu[1], x, p)

    def radius(self, n: int) -> Dyadic:
        return Dyadic(1, self.a_lower + self.c - n)


@dataclass(frozen=True)
class WitnessReport:
    T: Fraction
    n: int
    k_e: int
    length_threshold: Dyadic
    witness: BitString
    verified_through: int


@dataclass(frozen=True)
class ReconstructionReport:
    T_true: Fraction
    n: int
    u: Fraction
    beta_bits_used: int
    candidate: Dyadic
    radius: Dyadic


# ---------------------------------------------------------------------------
# running partial sums (incremental in k)
# ---------------------------------------------------------------------------

class _PartialSeries:
    """Z_k and W_k at a fixed temperature, extended one program at a time."""

    def __init__(self, handle: QuantityHandle, x: Fraction):
        self.handle = handle
        self.x = Fraction(x)
        self.lengths = islice(handle.snapshot.iter_lengths(), handle.max_depth)
        self.weights = WeightChain(self.x, handle.precision_bits)
        self.k = 0
        self.Z = Enclosure.point(0)
        self.W = Enclosure.point(0)

    def advance(self) -> None:
        l = next(self.lengths, None)
        if l is None:
            raise RangeError("enumeration exhausted")
        w = self.weights[l]
        self.Z = self.Z + w
        self.W = self.W + w * l
        self.k += 1

    def g(self) -> Enclosure:
        return _g_from_moments(self.handle.quantity, self.Z, self.W, self.x,
                               self.handle.precision_bits)


# ---------------------------------------------------------------------------
# certification
# ---------------------------------------------------------------------------

def _min_capacity_on_window(snapshot, k0: int, T: Fraction, t: Fraction,
                            precision_bits: int) -> Dyadic:
    """Certified positive lower bound on C_{k0} over [T, t], by subdividing
    the window until interval evaluation resolves the sign."""
    p = precision_bits
    ln2 = ln2_enclosure(p)
    for pieces in (4, 8, 16, 32):
        lo_min: Optional[Dyadic] = None
        ok = True
        for i in range(pieces):
            x0 = T + (t - T) * Fraction(i, pieces)
            x1 = T + (t - T) * Fraction(i + 1, pieces)
            mu = moment_hull(snapshot, x0, x1, k0, (0, 1, 2), p)
            m1 = div(mu[1], mu[0], p)
            v = div(mu[2], mu[0], p) - m1 * m1
            tau2 = Enclosure(Enclosure.from_rational(x0 * x0, p).lo,
                             Enclosure.from_rational(x1 * x1, p).hi)
            C = div(ln2 * v, tau2, p)
            if C.lo.sign <= 0:
                ok = False
                break
            lo_min = C.lo if lo_min is None else min(lo_min, C.lo)
        if ok:
            return lo_min
    raise CertificationError(
        f"cannot certify positive heat capacity on [{T}, {t}] at k0={k0}")


def _increment_bounds(handle: QuantityHandle, w: Enclosure,
                      l: int) -> tuple[Enclosure, Enclosure]:
    """Claimed bracket of the increment whose program has length l and
    weight w = 2^(-l/T)."""
    lower = (w * l**handle.c).scale2(-handle.b)
    upper = (w * l**handle.b).scale2(handle.c)
    return lower, upper


def _observed_increment(handle: QuantityHandle, series: _PartialSeries,
                        w: Enclosure, l: int) -> Enclosure:
    """g(T,k+1) - g(T,k) for the program of length l and weight w,
    computed with relative (not absolute) accuracy so certification
    resolves even for increments near 2^-l/T."""
    p = handle.precision_bits
    q = handle.quantity
    if q == "Z":
        return w
    ratio = div(w, series.Z, p)
    dlog = _log2_1p(ratio, p)
    if q == "-F":
        return Enclosure.from_rational(handle.T, p) * dlog
    Z_next = series.Z + w
    dE = div((series.Z * l - series.W) * w, Z_next * series.Z, p)
    if q == "E":
        return dE
    return div(dE, Enclosure.from_rational(handle.T, p), p) + dlog  # S


def certify(snapshot: EnsembleSnapshot, quantity: str, T,
            precision_bits: int = DEFAULT_PRECISION,
            slope_samples: int = 3) -> QuantityHandle:
    """Compute the certificate constants from enclosures, then re-verify
    every claimed inequality on all enumerated increments."""
    if quantity not in QUANTITY_CHOICES:
        raise SpecError(f"quantity must be one of {QUANTITY_CHOICES}")
    Tf = _temp_frac(T)
    t = (Tf + 1) / 2
    p = precision_bits
    ln2 = ln2_enclosure(p)
    lim_T, _ = moments(snapshot, Tf, "limit", (0, 1, 2), p)
    lim_t, _ = moments(snapshot, t, "limit", (0, 1, 2), p)
    Z_T, W_T = lim_T[0], lim_T[1]
    n = min(sum(snapshot.census.values()), MAX_DEPTH_CAP)
    # (k, |p_{k+1}|) for k < n, read once: first_k resumes past first_distinct
    lengths = enumerate(islice(snapshot.iter_lengths(), n))
    _, l1 = next(lengths, (0, None))
    first_distinct = next((k for k, l in lengths if l != l1), None)
    if first_distinct is None:
        raise CertificationError("ensemble has a single program length; "
                                 "slopes cannot be certified")
    w1 = WeightChain(Tf, p)[l1]
    Z1_lo = w1.lo

    def first_k(cond: Callable[[int], bool]) -> int:
        # smallest k > first_distinct, k < n - 1, with cond(|p_{k+1}|)
        for k, l in lengths:
            if k < n - 1 and cond(l):
                return k
        raise CertificationError("no enumerated index satisfies the "
                                 "certificate precondition")

    if quantity == "Z":
        b = c = 0
        k0 = 1
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
        factor_lo = div(Enclosure.from_rational(Tf, p), Z_T * ln2, p).lo
        b = max(1, -_floor_log2(factor_lo)) if factor_lo < Dyadic(1) else 1
        U = div(Enclosure.from_rational(Tf, p),
                Enclosure.point(Z1_lo) * ln2, p).hi
        k0 = first_k(lambda l: Fraction(l) ** b >= U.as_fraction())
        # slope is S_k(x): between S_{k0}(T) and S_lim(t)
        mu, _ = moments(snapshot, Tf, k0, (0, 1), p)
        s_lo = _g_from_moments("S", mu[0], mu[1], Tf, p)
        if not certified_positive(s_lo):
            raise CertificationError("entropy at k0 not certifiably positive")
        s_hi = _g_from_moments("S", lim_t[0], lim_t[1], t, p)
        a = max(0, _ceil_log2(s_hi.hi))
        a_lower = max(0, -_floor_log2(s_lo.lo))
    else:  # E and S share the capacity-based slope machinery
        E_sup = div(W_T, Z_T, p).hi.as_fraction()
        need = max(2 * E_sup, Fraction(1, 2) / Z1_lo.as_fraction())
        if quantity == "E":
            b, c = 2, 1
            k0 = first_k(lambda l: l >= need)
        else:
            b, c = 3, 1
            D = ((1 / Tf + div(Enclosure.point(1), ln2, p).hi.as_fraction())
                 / Z1_lo.as_fraction())
            k0 = first_k(lambda l: l >= need and Fraction(l) ** 2 >= D / 2)
        # slope is C_k(x) (or C_k(x)/x for S): uniform upper bound
        # (ln2/T^2) Y_lim(t)/Z_1(T), lower bound min C_{k0} on [T, t]
        c_up = div(ln2 * lim_t[2],
                   Enclosure.from_rational(Tf * Tf, p)
                   * Enclosure.point(Z1_lo), p).hi
        c_lo = _min_capacity_on_window(snapshot, k0, Tf, t, p)
        if quantity == "S":
            c_up = div(Enclosure.point(c_up),
                       Enclosure.from_rational(Tf, p), p).hi
            c_lo = div(Enclosure.point(c_lo),
                       Enclosure.from_rational(t, p), p).lo
        a = max(0, _ceil_log2(c_up))
        a_lower = max(0, -_floor_log2(c_lo))

    handle = QuantityHandle(snapshot, quantity, Tf, t, a, a_lower, b, c, k0, p)
    _verify_certificate(handle, slope_samples)
    return handle


def _verify_certificate(handle: QuantityHandle, slope_samples: int) -> None:
    """Exhaustive increment re-check over the enumerated programs plus
    sampled slope checks on (T, t)."""
    series = _PartialSeries(handle, handle.T)
    n_programs = min(len(handle.snapshot.programs), handle.max_depth)
    if n_programs <= handle.k0:
        raise CertificationError("not enough enumerated programs to verify "
                                 f"beyond k0 = {handle.k0}")
    lengths = islice(handle.snapshot.iter_lengths(), n_programs)
    for k, l in enumerate(lengths):
        if k >= handle.k0:
            w = series.weights[l]
            lower, upper = _increment_bounds(handle, w, l)
            delta = _observed_increment(handle, series, w, l)
            if handle.quantity == "Z":
                # bounds coincide with the increment by construction
                ok_lo = lower.lo == delta.lo and lower.hi == delta.hi
                ok_hi = ok_lo
            else:
                ok_lo = certified_lt(lower, delta)
                ok_hi = certified_lt(delta, upper)
            if ok_lo is False or ok_hi is False:
                raise CertificationError(
                    f"increment bound falsified at k={k}, length {l}")
            if ok_lo is None or ok_hi is None:
                raise PrecisionError(
                    f"increment bound unresolved at k={k}; raise precision")
        series.advance()

    ks = sorted({handle.k0, handle.k0 + 1,
                 min(2 * handle.k0 + 2, n_programs),
                 n_programs})
    for k in ks:
        gT = handle.g(handle.T, k)
        for i in range(1, slope_samples + 1):
            x = handle.T + (handle.t - handle.T) * Fraction(i, slope_samples + 1)
            diff = handle.g(x, k) - gT
            dx = Enclosure.from_rational(x - handle.T, handle.precision_bits)
            if certified_lt(dx.scale2(handle.a), diff):
                raise CertificationError(
                    f"slope upper bound falsified at k={k}, x={x}")
            if certified_lt(diff, dx.scale2(-handle.a_lower)):
                raise CertificationError(
                    f"slope lower bound falsified at k={k}, x={x}")


# ---------------------------------------------------------------------------
# monotone inversion
# ---------------------------------------------------------------------------

# bits of working precision beyond the tolerance's: the limit values must
# resolve differences of about slope * tol/32 between the final probes
SOLVE_GUARD_BITS = 24


def _mid(e: Enclosure) -> Fraction:
    return (e.lo + e.hi).scale2(-1).as_fraction()


def _slope_estimate(quantity: str, mu: dict[int, Enclosure], x: Fraction,
                    value: Fraction, ln2: Fraction) -> Fraction:
    """d/dx of the limit quantity at x, from the midpoints of the moments
    the probe already summed: Z' = ln2 W/x^2, (-F)' = S, E' = C, S' = C/x.
    It only picks probes; 0 means no usable estimate."""
    Z, W = _mid(mu[0]), _mid(mu[1])
    if quantity == "Z":
        return ln2 * W / (x * x)
    if Z <= 0:
        return Fraction(0)
    E = W / Z
    if quantity == "-F":  # S = E/x + log2 Z, and the value is x log2 Z
        return (E + value) / x
    C = ln2 * (_mid(mu[2]) / Z - E * E) / (x * x)
    return C if quantity == "E" else C / x


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
                      tol: Dyadic,
                      bracket: tuple[Fraction, Fraction] = (Fraction(1, 64),
                                                            Fraction(63, 64)),
                      ) -> Enclosure:
    """Invert the increasing limit function: returns a temperature
    enclosure [a, b] of width <= tol that contains every x in the bracket
    whose image meets the target (a rational target is rounded outward at
    the working precision).

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
    if isinstance(target, Dyadic):
        target = Enclosure.point(target)
    elif not isinstance(target, Enclosure):
        target = Enclosure.from_rational(Fraction(target), p)
    quantity = handle.quantity
    orders = (0, 1, 2) if quantity in ("E", "S") else (0, 1)
    ln2 = ln2_enclosure(p).lo.as_fraction()
    goal = tol.scale2(-3)
    half = goal.scale2(-1)
    grid = max(0, 4 - _floor_log2(goal))  # Newton probes lie on 2^-grid
    aim_mid, aim_lo, aim_hi = (_mid(target), target.lo.as_fraction(),
                               target.hi.as_fraction())

    ends = (Dyadic.from_fraction(bracket[0]), Dyadic.from_fraction(bracket[1]))
    a, b = ends
    unchecked = set(ends)  # bracket ends not yet probed
    core: Optional[tuple[Dyadic, Dyadic]] = None  # hull of overlapping probes
    overlap: Optional[Enclosure] = None  # the last overlapping value
    # the last probe's (x, value midpoint, slope estimate), and its Newton
    # step if it was a Newton probe
    last: Optional[tuple[Fraction, Fraction, Fraction]] = None
    step: Optional[Fraction] = None
    # after an estimate misleads, bisect `skip` times before the next
    # Newton step; the penalty doubles with each miss
    skip, penalty = 0, 1

    def probe(y: Dyadic) -> None:
        nonlocal a, b, core, overlap, last
        x = y.as_fraction()
        mu, _ = moments(handle.snapshot, x, "limit", orders, p)
        v = _g_from_moments(quantity, mu[0], mu[1], x, p)
        value = _mid(v)
        last = (x, value, _slope_estimate(quantity, mu, x, value, ln2))
        unchecked.discard(y)
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
        if b == ends[0]:
            raise RangeError(f"target below the quantity's range on {bracket}")
        if a == ends[1]:
            raise RangeError(f"target above the quantity's range on {bracket}")

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
        elif last is not None and (last[2] > 0 or core is not None):
            x, value, slope = last
            if slope > 0:
                x_star = x + (aim - value) / slope
            else:  # no slope to steer by: seek the edge at the core
                x_star = x = (hi if hi == core[0] else lo).as_fraction()
            size = abs(x_star - x)
            on = Dyadic(x_star.numerator * (1 << grid) // x_star.denominator,
                        -grid)
            if size < goal.as_fraction() and lo - w < on < hi + w:
                # converged: probe just either side of the estimate
                estimate = min(max(on, lo), hi)
                y = _window_probe(lo, hi, estimate, w)
            elif not lo < on < hi:
                # past an end not yet probed: probe it, which also checks
                # that the target is in range
                end = lo if on <= lo else hi
                if end in unchecked:
                    y = end
            elif step is None or size <= step / 2:
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
    r = prefix_value(T_n_bits) + Dyadic(1, -n)
    r_frac = r.as_fraction()
    if not handle.T < r_frac < handle.t:
        raise RangeError(
            f"0.T_n + 2^-{n} = {r.serialize()} outside the certificate "
            f"window ({handle.T}, {handle.t}); n below n0")
    series = _PartialSeries(handle, r_frac)
    for _ in range(handle.k0):
        series.advance()
    k_e = None
    for h in upper_oracle:
        while True:
            if certified_gt(series.g(), Enclosure.point(h)):
                k_e = series.k
                break
            if series.k >= handle.max_depth:
                break
            series.advance()
        if k_e is not None:
            break
    if k_e is None:
        raise OracleExhausted("oracle ended before g(r, k) exceeded it")

    threshold = Dyadic.from_fraction(handle.T * (n - handle.a - handle.b))
    verified_through = min(10 * k_e, handle.max_depth)
    lengths = handle.lengths(verified_through)
    for i in range(k_e, verified_through):
        if not threshold < Dyadic(lengths[i]):
            raise CertificationError(
                f"program {i + 1} has length {lengths[i]} <= threshold "
                f"{threshold.serialize()}; certificate falsified")

    if len(handle.snapshot.programs) < k_e:
        raise RangeError("snapshot stores too few programs to list outputs")
    outputs = {rec.output for rec in handle.snapshot.programs[:k_e]
               if rec.output is not None}
    s = BitString("")
    while s in outputs:
        s = successor(s)
    return WitnessReport(handle.T, n, k_e, threshold, s, verified_through)


# ---------------------------------------------------------------------------
# semidecision of T < r
# ---------------------------------------------------------------------------

def semidecide_above(handle: QuantityHandle, r: Dyadic,
                     upper_oracle: Iterable[Dyadic], budget: int = 256) -> str:
    """`yes` only with a certificate h(m) < g(r, k); sound because
    g(r, k) <= f(r) and h(m) >= f(T), so yes implies f(T) < f(r), i.e.
    T < r.  `unknown` on budget exhaustion."""
    r_frac = r.as_fraction()
    if not 0 < r_frac < handle.t:
        raise RangeError(f"r = {r.serialize()} outside the certificate window")
    series = _PartialSeries(handle, r_frac)
    for _ in range(handle.k0):
        series.advance()
    probes = 0
    for h in upper_oracle:
        while probes < budget:
            probes += 1
            if certified_gt(series.g(), Enclosure.point(h)):
                return "yes"
            if series.k >= handle.max_depth:
                break
            series.advance()
        if probes >= budget:
            break
    return "unknown"


# ---------------------------------------------------------------------------
# reconstruction of T from beta bits
# ---------------------------------------------------------------------------

def reconstruct_T(handle: QuantityHandle, u, n: int, beta_prefix: BitString,
                  A_oracle: Iterable[Dyadic], B_oracle: Iterable[Dyadic],
                  ) -> ReconstructionReport:
    u = Fraction(u) if not isinstance(u, Fraction) else u
    if not handle.T < u < 1:
        raise RangeError("u must lie in (T, 1)")
    if n < 1:
        raise SpecError("n must be >= 1")
    p = handle.precision_bits
    expected_bits = -((-handle.T * n) // u)  # ceil(T n / u)
    if len(beta_prefix) != expected_bits:
        raise SpecError(f"beta_prefix must carry exactly {expected_bits} "
                        f"bits, got {len(beta_prefix)}")
    beta_lim, _ = moments(handle.snapshot, u, "limit", (handle.b,), p)
    beta = beta_lim[handle.b]
    floor_lo = beta.lo.floor_scaled(0)
    if beta.hi.floor_scaled(0) != floor_lo:
        raise PrecisionError("integer part of beta unresolved")
    target = Enclosure.point(Dyadic(floor_lo) + prefix_value(beta_prefix))

    # step 1: a depth whose beta partial sum certifiably exceeds the prefix
    weights = WeightChain(u, p)
    partial = Enclosure.point(0)
    k_e = None
    lengths = islice(handle.snapshot.iter_lengths(), handle.max_depth)
    for k, l in enumerate(lengths, start=1):
        partial = partial + weights[l] * l**handle.b
        if k >= handle.k0 and certified_gt(partial, target):
            k_e = k
            break
    if k_e is None:
        raise OracleExhausted("enumeration exhausted before the beta "
                              "partial sum cleared the prefix value")

    # the power-raising tail step: past k_e the quantity's own tail at T
    # must fit under 2^(c - n); verified, not assumed
    gap_hi = handle.f().hi - handle.g(handle.T, k_e).lo
    if not gap_hi < Dyadic(1, handle.c - n):
        raise CertificationError(
            f"tail past k_e={k_e} is {gap_hi.serialize()}, not below "
            f"2^{handle.c - n}; certificate falsified")

    # step 2: close the bracket g(A, k_e) < B
    A_iter, B_iter = iter(A_oracle), iter(B_oracle)
    A = _next_or_exhausted(A_iter, "A")
    B = _next_or_exhausted(B_iter, "B")
    for _ in range(4096):
        if not handle.T < A.as_fraction() < handle.t:
            raise RangeError(f"A oracle value {A.serialize()} outside (T, t)")
        if certified_lt(handle.g(A.as_fraction(), k_e), Enclosure.point(B)):
            return ReconstructionReport(handle.T, n, u, int(expected_bits),
                                        A, handle.radius(n))
        A = _next_or_exhausted(A_iter, "A")
        B = max(B, _next_or_exhausted(B_iter, "B"))
    raise OracleExhausted("A/B oracles did not close the bracket")


def _next_or_exhausted(it: Iterator[Dyadic], name: str) -> Dyadic:
    try:
        return next(it)
    except StopIteration:
        raise OracleExhausted(f"{name} oracle exhausted") from None


# ---------------------------------------------------------------------------
# oracle factories (explicit streams; `closed-form` uses the handle's own
# certified evaluator at increasing precision)
# ---------------------------------------------------------------------------

def descending_upper_oracle(handle: QuantityHandle, steps: int = 64):
    """Dyadics >= f(T), descending toward it."""
    best = None
    for m in range(steps):
        v = handle.f(precision_bits=16 + 8 * m).hi
        best = v if best is None else min(best, v)
        yield best


def ascending_lower_oracle(handle: QuantityHandle, steps: int = 64):
    """Dyadics <= f(T), ascending toward it."""
    best = None
    for m in range(steps):
        v = handle.f(precision_bits=16 + 8 * m).lo
        best = v if best is None else max(best, v)
        yield best


def approach_oracle(handle: QuantityHandle, steps: int = 64):
    """Dyadics in (T, t), descending to T: A_l = T + (t - T) 2^-l."""
    span = Dyadic.from_fraction(handle.t - handle.T)
    T_dy = Dyadic.from_fraction(handle.T)
    for l in range(1, steps + 1):
        yield T_dy + span.scale2(-l)


def file_oracle(path):
    from pathlib import Path
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line:
            yield Dyadic.parse(line)


def grid_oracle(handle: QuantityHandle, step: Dyadic, steps: int = 64):
    """Coarse upper oracle: f(T) rounded up to the grid, descending."""
    base = handle.f(precision_bits=32).hi
    for m in range(steps, -1, -1):
        yield base + step * m
