"""The effective procedures: what finitely many bits of T buy you.

Three protocols run against the geometric ensemble's partition sum:
 * witness_search: n bits of T yield a depth k_e past which every
   program is certifiably longer than T(n - a - b), plus a short string
   none of the first k_e programs outputs;
 * semidecide_above: a sound one-sided test of "T < r";
 * reconstruct_T: ceil(Tn/u) bits of a power sum at temperature u, which
   beta_bits reads from the ensemble's limit, pin T to within
   2^(a_lower + c - n).
"""

from fractions import Fraction

from thermoait import (
    Dyadic, approach_oracle, ascending_lower_oracle, beta_bits, bits_prefix,
    builtin_snapshot, certify, descending_upper_oracle, reconstruct_T,
    semidecide_above, witness_search,
)

snap = builtin_snapshot("geometric", 600)
h = certify(snap, "Z", Fraction(1, 2))

print("witness search with n = 20 bits of T = 1/2:")
rep = witness_search(h, bits_prefix(Dyadic(1, -1), 20),
                     descending_upper_oracle(h))
print(f"  stopping depth k_e = {rep.k_e}")
print(f"  every later program is longer than {rep.length_threshold.decimal()}"
      f" (checked through index {rep.verified_through})")
print(f"  least string not output by the first {rep.k_e} programs: "
      f"{rep.witness.render()!r}")
print()

print("semidecision of 'T < r' (sound: yes is certified, no is never said):")
for r in (Dyadic(9, -4), Dyadic(1, -1), Dyadic(7, -4)):
    print(f"  r = {r.decimal()}: "
          f"{semidecide_above(h, r, descending_upper_oracle(h))}")
print()

u, n = Fraction(3, 4), 16
prefix = beta_bits(h, u, n)
print(f"reconstruction from {len(prefix)} bits of the power sum at u = {u}:")
rec = reconstruct_T(h, u, n, prefix, approach_oracle(h),
                    ascending_lower_oracle(h))
print(f"  candidate T = {rec.candidate.decimal()}")
print(f"  certified radius 2^({h.a_lower}+{h.c}-{n}) = {rec.radius.decimal()}")
print(f"  true T = 0.5 lies inside: "
      f"{abs(rec.candidate.as_fraction() - rec.T_true) < rec.radius.as_fraction()}")
