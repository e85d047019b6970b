"""Certified cross-checks between thermodynamic quantities.

Three families of checks:

* derivative checks: a central difference of Z, F, E or S against the
  analytic derivative ((ln2/T^2)W, -S, C, C/T respectively), with the
  finite-difference remainder bounded by K h^2 where K encloses
  sup |q'''| / 6 over [T-h, T+h];
* identity checks: the entropy against its Gibbs form
  -sum (w_i/Z) log2 (w_i/Z), the heat capacity against its variance form
  (ln2/T^2) sum (|p_i|-E)^2 w_i/Z, and F against E - T*S with S taken
  from the Gibbs form so the comparison is independent of how F and S
  were derived;
* positivity and monotonicity: nonnegative entropy and heat capacity with
  strict single-term witnesses, and depth-monotonicity of Z, F, E, S.

Third derivatives are enclosed through normalised moments m_j = mu_j/mu_0
(five moments are needed for E''' and S'''):

    E''  = -2Lv/t^3 + L^2 k3/t^4
    E''' =  6Lv/t^4 - 6L^2 k3/t^5 + (L^3/t^6)(m4 - 4m1m3 - 3m2^2
                                              + 12 m1^2 m2 - 6 m1^4)
    Z''' =  6L mu1/t^4 - 6L^2 mu2/t^5 + L^3 mu3/t^6
    F''' = -E''/t + C/t^2
    S''' =  E'''/t - 2E''/t^2 + 2C/t^3

with L = ln 2, v = m2 - m1^2, k3 = m3 - 3m1m2 + 2m1^3.  Each mu_j is
monotone increasing in the temperature, so its hull over [T-h, T+h] is the
hull of the two endpoint evaluations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .dyadic import Dyadic, from_rational_ceil
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, certified_lt, certified_positive, div,
    ln2_enclosure, log2_enclosure,
)
from .ensembles import EnsembleSnapshot
from .errors import RangeError, SpecError
from .thermo import (
    INCREASING, CensusWalk, WeightChain, _temp_frac, derive_quantities,
    evaluate, moment_sums, moments, summed_lengths,
)

# INCREASING's quantities, spelled with F for -F
DERIVATIVE_TARGETS = tuple(q.name.lstrip("-") for q in INCREASING)

RICHARDSON_LO = Fraction(5, 2)
RICHARDSON_HI = Fraction(6)


class CheckResult(NamedTuple):
    name: str
    passed: Optional[bool]  # None: unresolved at this precision (not a failure)
    lhs: Optional[Enclosure] = None
    rhs: Optional[Enclosure] = None
    note: str = ""


class RelationReport(NamedTuple):
    kind: str
    ensemble_id: str
    temperature: Fraction
    k: object
    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _abs_enclosure(e: Enclosure) -> Enclosure:
    if e.lo.sign >= 0:
        return e
    if e.hi.sign <= 0:
        return -e
    return Enclosure(Dyadic(0), e.mag_hi())


def _square(e: Enclosure) -> Enclosure:
    return (e * e).clamp_nonnegative()


# ---------------------------------------------------------------------------
# derivative checks
# ---------------------------------------------------------------------------

def third_derivative_bound(snapshot: EnsembleSnapshot, quantity: str, k,
                           T: Fraction, h: Fraction,
                           precision_bits: int = DEFAULT_PRECISION) -> Dyadic:
    """K with |q'''| / 6 <= K everywhere on [T-h, T+h]."""
    if quantity not in DERIVATIVE_TARGETS:
        raise SpecError(f"no derivative check for quantity {quantity!r}")
    t_lo, t_hi = T - h, T + h
    if not 0 < t_lo:
        raise RangeError("derivative stencil leaves the temperature range")
    p = precision_bits
    # each mu_j rises with the temperature: its hull over [t_lo, t_hi]
    orders = (0, 1, 2, 3, 4)
    lo, hi = (moments(snapshot, x, k, orders, p) for x in (t_lo, t_hi))
    mu = {j: Enclosure(lo[j].lo, hi[j].hi) for j in orders}
    tau = Enclosure(Enclosure.from_rational(t_lo, p).lo,
                    Enclosure.from_rational(t_hi, p).hi)
    L = ln2_enclosure(p)

    def over_tau(x: Enclosure, power: int) -> Enclosure:
        d = tau
        for _ in range(power - 1):
            d = d * tau
        return div(x, d, p)

    m = {j: div(mu[j], mu[0], p) for j in (1, 2, 3, 4)}
    v = m[2] - m[1] * m[1]
    k3 = m[3] - 3 * (m[1] * m[2]) + 2 * (m[1] * m[1] * m[1])
    C = over_tau(L * v, 2)
    E2 = over_tau(-2 * (L * v), 3) + over_tau(L * L * k3, 4)
    if quantity == "Z":
        q3 = (over_tau(6 * (L * mu[1]), 4) - over_tau(6 * (L * L * mu[2]), 5)
              + over_tau(L * L * L * mu[3], 6))
    elif quantity == "E" or quantity == "S":
        k4c = (m[4] - 4 * (m[1] * m[3]) - 3 * (m[2] * m[2])
               + 12 * (m[1] * m[1] * m[2]) - 6 * (m[1] * m[1] * m[1] * m[1]))
        E3 = (over_tau(6 * (L * v), 4) - over_tau(6 * (L * L * k3), 5)
              + over_tau(L * L * L * k4c, 6))
        if quantity == "E":
            q3 = E3
        else:
            q3 = over_tau(E3, 1) - 2 * over_tau(E2, 2) + 2 * over_tau(C, 3)
    else:  # F
        q3 = -over_tau(E2, 1) + over_tau(C, 2)
    bound = q3.mag_hi().as_fraction() / 6
    return from_rational_ceil(bound.numerator, bound.denominator,
                              precision_bits + 16)


def _analytic_derivative(snapshot, quantity, T: Fraction, k, p) -> Enclosure:
    ev = evaluate(snapshot, T, k, p)
    record = INCREASING[DERIVATIVE_TARGETS.index(quantity)]
    sign = 1 if record.name == quantity else -1  # F' = -(-F)'
    num, den = record.slope(ev.Z, ev.W, ev.Y, Enclosure.from_rational(T, p),
                            ev.quantity(quantity) * sign, ln2_enclosure(p))
    return div(num, den, p) * sign


def _central_difference(snapshot, quantity, T: Fraction, h: Fraction, k, p) -> Enclosure:
    above = evaluate(snapshot, T + h, k, p).quantity(quantity)
    below = evaluate(snapshot, T - h, k, p).quantity(quantity)
    return div(above - below, Enclosure.from_rational(2 * h, p), p)


def check_derivative(snapshot: EnsembleSnapshot, quantity: str, T, k="limit",
                     h: Fraction = Fraction(1, 1024),
                     precision_bits: int = DEFAULT_PRECISION) -> RelationReport:
    """Central difference vs analytic derivative, with a certified
    K h^2 remainder bound and a Richardson step-halving probe."""
    Tf = _temp_frac(T)
    h = Fraction(h)
    if h <= 0 or Tf - h <= 0 or Tf + h >= 1:
        raise RangeError("stencil T +/- h must stay inside (0, 1)")
    p = precision_bits
    K = third_derivative_bound(snapshot, quantity, k, Tf, h, p)
    analytic = _analytic_derivative(snapshot, quantity, Tf, k, p)
    checks = []
    discrepancies = {}
    for step, label in ((h, "remainder-h"), (h / 2, "remainder-h/2")):
        cd = _central_difference(snapshot, quantity, Tf, step, k, p)
        d = _abs_enclosure(cd - analytic)
        bound = K.as_fraction() * step * step
        discrepancies[label] = d
        # true |cd - q'(T)| <= K step^2; the enclosure must not refute it
        ok = d.lo.as_fraction() <= bound
        checks.append(CheckResult(label, ok, cd, analytic,
                                  note=f"bound {float(bound):.3e}"))
    d1, d2 = discrepancies["remainder-h"], discrepancies["remainder-h/2"]
    if certified_positive(d1) and certified_positive(d2):
        ratio = div(d1, d2, p)
        lo_ok = certified_lt(ratio, Enclosure.from_rational(RICHARDSON_LO, p))
        hi_ok = certified_lt(Enclosure.from_rational(RICHARDSON_HI, p), ratio)
        if lo_ok or hi_ok:
            rich = CheckResult("richardson", False, ratio,
                               note="halving h did not shrink the discrepancy "
                                    "like h^2")
        elif lo_ok is False and hi_ok is False:
            rich = CheckResult("richardson", True, ratio)
        else:
            rich = CheckResult("richardson", None, ratio, note="unresolved")
    else:
        rich = CheckResult("richardson", None,
                           note="discrepancy below resolution")
    checks.append(rich)
    return RelationReport(f"derivative-{quantity}", snapshot.ensemble_id,
                          Tf, k, checks)


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _identities_and_positivity(snapshot: EnsembleSnapshot, T, k,
                               precision_bits: int
                               ) -> tuple[RelationReport, RelationReport]:
    """The identity and the positivity report at (T, k) from one
    evaluation, whose lengths and tails feed one sum of the Gibbs and of
    the variance form; past its cutoff, a generating-function limit leaves
    the limit minus the census sum as each moment's tail."""
    Tf = _temp_frac(T)
    p = precision_bits
    ev = evaluate(snapshot, Tf, k, p)
    Z, E = ev.Z, ev.E
    items = summed_lengths(snapshot, Tf, ev.k, p)
    weights = WeightChain(Tf, p)
    s_gibbs = acc = Enclosure.point(0)
    for l, count in items:
        w = weights[l]
        q = div(w, Z, p)
        gibbs = -(q * log2_enclosure(q, p))
        dev = Enclosure.point(l) - E
        variance = _square(dev) * w
        s_gibbs = s_gibbs + gibbs * count
        acc = acc + variance * count
    if ev.k == "limit":
        tails = [ev.tail_bounds[name] for name in ("Z", "W", "Y")]
        if snapshot.series:
            sums = moment_sums(items, Tf, (0, 1, 2), p)
            tails = [max(Dyadic(0), lim.hi - sums[j].lo)
                     for j, lim in enumerate((Z, ev.W, ev.Y))]
        t0, t1, t2 = (Enclosure(Dyadic(0), t) for t in tails)
        # entropy tail terms are q (l/T + log2 Z) = w l/(TZ) + (w/Z) log2 Z
        s_gibbs = (s_gibbs
                   + div(t1, Enclosure.from_rational(Tf, p) * Z, p)
                   + div(t0, Z, p) * log2_enclosure(Z, p))
        acc = acc + (t2 - 2 * (E * t1) + (E * E) * t0)
    c_var = (div(ln2_enclosure(p), Enclosure.from_rational(Tf * Tf, p), p)
             * div(acc, Z, p)).clamp_nonnegative()
    f_balance = ev.E - Enclosure.from_rational(Tf, p) * s_gibbs
    identities = [
        CheckResult("entropy-gibbs", ev.S.overlaps(s_gibbs), ev.S, s_gibbs),
        CheckResult("capacity-variance", ev.C.overlaps(c_var), ev.C, c_var),
        CheckResult("free-energy-balance", ev.F.overlaps(f_balance),
                    ev.F, f_balance),
    ]
    positivity = [
        CheckResult("entropy-nonnegative", s_gibbs.hi.sign >= 0, s_gibbs),
        CheckResult("capacity-nonnegative", c_var.hi.sign >= 0, c_var),
    ]
    # the terms of the longest summed length are the strict witnesses
    note = f"term at length {l}"
    if certified_lt(q, Enclosure.point(Dyadic(1, -1))):
        positivity.append(CheckResult("entropy-strict",
                                      certified_positive(gibbs), gibbs,
                                      note=note))
    if certified_positive(dev):
        witness = div(ln2_enclosure(p) * variance,
                      Enclosure.from_rational(Tf * Tf, p) * Z, p)
        positivity.append(CheckResult("capacity-strict",
                                      certified_positive(witness), witness,
                                      note=note))
    return tuple(RelationReport(kind, snapshot.ensemble_id, Tf, k, checks)
                 for kind, checks in (("identities", identities),
                                      ("positivity", positivity)))


def check_identities(snapshot: EnsembleSnapshot, T, k="limit",
                     precision_bits: int = DEFAULT_PRECISION) -> RelationReport:
    """Entropy (Gibbs form), heat capacity (variance form), and the balance
    F = E - T*S with the independently computed entropy.  Pass means the
    independently derived enclosures overlap."""
    return _identities_and_positivity(snapshot, T, k, precision_bits)[0]


# ---------------------------------------------------------------------------
# positivity and monotonicity
# ---------------------------------------------------------------------------

def check_positivity(snapshot: EnsembleSnapshot, T, k="limit",
                     precision_bits: int = DEFAULT_PRECISION) -> RelationReport:
    """S >= 0 and C >= 0 by their sum-of-nonnegative-terms forms, with
    strict single-term witnesses where they resolve:
    S >= -q_l log2 q_l for any single l, and C >= (ln2/T^2)(l - E)^2 q_l."""
    return _identities_and_positivity(snapshot, T, k, precision_bits)[1]


def check_monotone(snapshot: EnsembleSnapshot, T, k_max: int,
                   precision_bits: int = DEFAULT_PRECISION) -> RelationReport:
    """Depth monotonicity at fixed temperature: Z strictly increases,
    F strictly decreases, E and S never certifiably decrease."""
    Tf = _temp_frac(T)
    if k_max < 2:
        raise SpecError("monotonicity needs k_max >= 2")
    # every depth's moments from one walk, equal to evaluate's bit for bit
    walk = CensusWalk(snapshot.length_counts_up_to(k_max), Tf, precision_bits)
    values = []
    for mu in walk.sums((0, 1, 2), range(1, k_max + 1)):
        F, E, S, _ = derive_quantities(mu[0], mu[1], mu[2], Tf, precision_bits)
        values.append({"Z": mu[0], "F": F, "E": E, "S": S})
    checks = []
    for name, ascending, strict in (("Z", True, True), ("F", False, True),
                                    ("E", True, False), ("S", True, False)):
        ok: Optional[bool] = True
        for prev, nxt in zip(values, values[1:]):
            a, b = prev[name], nxt[name]
            if not ascending:
                a, b = b, a
            if strict:
                step = certified_lt(a, b)
                if step is not True:
                    ok = step  # False: violation; None: unresolved
                    break
            elif certified_lt(b, a):  # certified decrease
                ok = False
                break
        direction = "increases" if ascending else "decreases"
        checks.append(CheckResult(f"{name}-{direction}", ok))
    return RelationReport("monotone", snapshot.ensemble_id, Tf,
                          f"1..{k_max}", checks)
