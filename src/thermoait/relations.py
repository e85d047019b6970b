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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .dyadic import Dyadic, from_rational_ceil
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, certified_lt, certified_positive, div,
    ln2_enclosure, log2_enclosure,
)
from .ensembles import EnsembleSnapshot
from .errors import PrecisionError, RangeError, SpecError
from .thermo import (
    ThermoEvaluation, WeightChain, _temp_frac, evaluate, moment_hull,
    summed_lengths,
)

DERIVATIVE_TARGETS = ("Z", "F", "E", "S")

RICHARDSON_LO = Fraction(5, 2)
RICHARDSON_HI = Fraction(6)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: Optional[bool]  # None: unresolved at this precision (not a failure)
    lhs: Optional[Enclosure] = None
    rhs: Optional[Enclosure] = None
    note: str = ""


@dataclass(frozen=True)
class RelationReport:
    kind: str
    ensemble_id: str
    temperature: Fraction
    k: object
    checks: list[CheckResult] = field(default_factory=list)

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
    mu = moment_hull(snapshot, t_lo, t_hi, k, (0, 1, 2, 3, 4), p)
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
    if quantity == "Z":
        # Z' = (ln2/T^2) W
        return div(ln2_enclosure(p) * ev.W,
                   Enclosure.from_rational(T * T, p), p)
    if quantity == "F":
        return -ev.S
    if quantity == "E":
        return ev.C
    return div(ev.C, Enclosure.from_rational(T, p), p)  # S


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
    analytic = _analytic_derivative(snapshot, quantity, Tf, k, p)
    K = third_derivative_bound(snapshot, quantity, k, Tf, h, p)
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

def _gibbs_entropy(snapshot, ev: ThermoEvaluation,
                   weights: WeightChain) -> Enclosure:
    """-sum (w_i/Z) log2 (w_i/Z) over the lengths ev summed, plus ev's
    tails in the limit; weights is the chain at ev's T and precision."""
    T, Z, p = ev.temperature, ev.Z, ev.precision_bits
    total = Enclosure.point(0)
    for l, count in summed_lengths(snapshot, T, ev.k, p):
        q = div(weights[l], Z, p)
        total = total + (-(q * log2_enclosure(q, p))) * count
    if ev.k == "limit":
        z_tail = Enclosure(Dyadic(0), ev.tail_bounds["Z"])
        w_tail = Enclosure(Dyadic(0), ev.tail_bounds["W"])
        # tail terms are q (l/T + log2 Z) = w l/(TZ) + (w/Z) log2 Z
        total = (total
                 + div(w_tail, Enclosure.from_rational(T, p) * Z, p)
                 + div(z_tail, Z, p) * log2_enclosure(Z, p))
    return total


def _variance_capacity(snapshot, ev: ThermoEvaluation,
                       weights: WeightChain) -> Enclosure:
    """(ln2/T^2) sum (|p_i| - E)^2 w_i / Z over the lengths ev summed, plus
    ev's tails in the limit; weights is the chain at ev's T and precision."""
    T, Z, E, p = ev.temperature, ev.Z, ev.E, ev.precision_bits
    acc = Enclosure.point(0)
    for l, count in summed_lengths(snapshot, T, ev.k, p):
        dev = Enclosure.point(l) - E
        acc = acc + (_square(dev) * weights[l]) * count
    if ev.k == "limit":
        t0, t1, t2 = (Enclosure(Dyadic(0), ev.tail_bounds[q])
                      for q in ("Z", "W", "Y"))
        acc = acc + (t2 - 2 * (E * t1) + (E * E) * t0)
    scaled = div(acc, Z, p)
    return (div(ln2_enclosure(p),
                Enclosure.from_rational(T * T, p), p) * scaled).clamp_nonnegative()


def check_identities(snapshot: EnsembleSnapshot, T, k="limit",
                     precision_bits: int = DEFAULT_PRECISION) -> RelationReport:
    """Entropy (Gibbs form), heat capacity (variance form), and the balance
    F = E - T*S with the independently computed entropy.  Pass means the
    independently derived enclosures overlap."""
    Tf = _temp_frac(T)
    p = precision_bits
    ev = evaluate(snapshot, Tf, k, p)
    weights = WeightChain(Tf, p)
    s_gibbs = _gibbs_entropy(snapshot, ev, weights)
    c_var = _variance_capacity(snapshot, ev, weights)
    f_balance = ev.E - Enclosure.from_rational(Tf, p) * s_gibbs
    checks = [
        CheckResult("entropy-gibbs", ev.S.overlaps(s_gibbs), ev.S, s_gibbs),
        CheckResult("capacity-variance", ev.C.overlaps(c_var), ev.C, c_var),
        CheckResult("free-energy-balance", ev.F.overlaps(f_balance),
                    ev.F, f_balance),
    ]
    return RelationReport("identities", snapshot.ensemble_id, Tf, k, checks)


# ---------------------------------------------------------------------------
# positivity and monotonicity
# ---------------------------------------------------------------------------

def check_positivity(snapshot: EnsembleSnapshot, T, k="limit",
                     precision_bits: int = DEFAULT_PRECISION) -> RelationReport:
    """S >= 0 and C >= 0 by their sum-of-nonnegative-terms forms, with
    strict single-term witnesses where they resolve:
    S >= -q_l log2 q_l for any single l, and C >= (ln2/T^2)(l - E)^2 q_l."""
    Tf = _temp_frac(T)
    p = precision_bits
    ev = evaluate(snapshot, Tf, k, p)
    weights = WeightChain(Tf, p)
    s_gibbs = _gibbs_entropy(snapshot, ev, weights)
    c_var = _variance_capacity(snapshot, ev, weights)
    checks = [
        CheckResult("entropy-nonnegative", s_gibbs.hi.sign >= 0, s_gibbs),
        CheckResult("capacity-nonnegative", c_var.hi.sign >= 0, c_var),
    ]
    l_max = summed_lengths(snapshot, Tf, ev.k, p)[-1][0]
    w_max = weights[l_max]
    q = div(w_max, ev.Z, p)
    if certified_lt(q, Enclosure.point(Dyadic(1, -1))):
        witness = -(q * log2_enclosure(q, p))
        checks.append(CheckResult("entropy-strict", certified_positive(witness),
                                  witness, note=f"term at length {l_max}"))
    dev = Enclosure.point(l_max) - ev.E
    if certified_positive(dev):
        witness = div(ln2_enclosure(p) * (_square(dev) * w_max),
                      Enclosure.from_rational(Tf * Tf, p) * ev.Z, p)
        checks.append(CheckResult("capacity-strict", certified_positive(witness),
                                  witness, note=f"term at length {l_max}"))
    return RelationReport("positivity", snapshot.ensemble_id, Tf, k, checks)


def check_monotone(snapshot: EnsembleSnapshot, T, k_max: int,
                   precision_bits: int = DEFAULT_PRECISION) -> RelationReport:
    """Depth monotonicity at fixed temperature: Z strictly increases,
    F strictly decreases, E and S never certifiably decrease."""
    Tf = _temp_frac(T)
    if k_max < 2:
        raise SpecError("monotonicity needs k_max >= 2")
    evs = [evaluate(snapshot, Tf, k, precision_bits)
           for k in range(1, k_max + 1)]
    checks = []
    for name, ascending, strict in (("Z", True, True), ("F", False, True),
                                    ("E", True, False), ("S", True, False)):
        ok: Optional[bool] = True
        for prev, nxt in zip(evs, evs[1:]):
            a, b = prev.quantity(name), nxt.quantity(name)
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
