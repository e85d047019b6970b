"""Invert the thermodynamic quantities: given a target value of Z, -F, E
or S, recover the temperature that produces it.

The solver works on a certified handle: monotonicity constants are
computed from enclosures and re-verified against every enumerated
program before the first probe, so the returned interval is a
guarantee, not a heuristic.  Each probe is one limit evaluation; the
count per inversion is printed beside each result.
"""

from fractions import Fraction

import thermoait.thermo as thermo
from thermoait import Dyadic, builtin_snapshot, certify, solve_temperature

snap = builtin_snapshot("geometric", 600)

print("certificates on the geometric ensemble at T = 1/2:")
handles = {}
for quantity in ("Z", "-F", "E", "S"):
    h = certify(snap, quantity, Fraction(1, 2))
    handles[quantity] = h
    print(f"  {quantity:>2}: slope in [2^-{h.a_lower}, 2^{h.a}], "
          f"increments bracketed by |p|^{h.c} 2^(-|p|/T-{h.b}) and "
          f"|p|^{h.b} 2^(-|p|/T+{h.c}) from k0={h.k0}")
print()

# count the limit evaluations each inversion makes
evaluations = 0
limit_moments = thermo.limit_moments


def counted_limit_moments(*args, **kwargs):
    global evaluations
    evaluations += 1
    return limit_moments(*args, **kwargs)


thermo.limit_moments = counted_limit_moments

for bits in (30, 200):
    tol = Dyadic(1, -bits)
    print(f"round trips (tolerance 2^-{bits}) for hidden T* = 3/8, 1/2, 5/8:")
    for quantity, h in handles.items():
        for Tstar in (Fraction(3, 8), Fraction(1, 2), Fraction(5, 8)):
            target = h.f(Tstar, precision_bits=bits + 40)
            evaluations = 0
            enc = solve_temperature(h, target, tol)
            hit = enc.lo.as_fraction() <= Tstar <= enc.hi.as_fraction()
            print(f"  {quantity:>2} at T*={Tstar}: recovered "
                  f"[{enc.lo.decimal()[:14]}, {enc.hi.decimal()[:14]}] "
                  f"{'contains T*' if hit else 'MISS'}, "
                  f"{evaluations} limit evaluations")
    print()
thermo.limit_moments = limit_moments

print("each inversion keeps one bracket whose ends move only on certified")
print("comparisons; Newton steps only choose where to probe, so a poor step")
print("costs evaluations but can never mislead the result.")
