"""Acceptance gate: one test per shipped guarantee, at stated tolerances.

Each test is self-contained and asserts both the numeric claim and, where
one is stated, the runtime budget.  Nothing here is tuned to pass: a red
line means the library does not deliver that guarantee as stated.
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest

from thermoait import (
    Dyadic, Enclosure, bits_prefix, builtin_snapshot, certified_gt,
    certified_lt, certified_positive, certify, check_derivative,
    check_identities, check_positivity, build_table, div, divergence_probe,
    descending_upper_oracle, approach_oracle, ascending_lower_oracle,
    beta_bits, eval_limit, eval_partial, log2_enclosure, power_sum,
    reconstruct_T, semidecide_above, solve_temperature, witness_search,
)
from thermoait.bitstring import BitString

mpmath.mp.prec = 300

GEO = builtin_snapshot("geometric", 600)
SDM = builtin_snapshot("sdm4", 1500, program_cap=512)
GRID = [Fraction(i, 16) for i in range(1, 16)]


def _contains(enc: Enclosure, value) -> bool:
    lo = mpmath.mpf(enc.lo.m) * mpmath.power(2, enc.lo.e)
    hi = mpmath.mpf(enc.hi.m) * mpmath.power(2, enc.hi.e)
    return lo <= value <= hi


# 1. partial Kraft sums against the ensembles' total halting mass
def test_criterion_01_kraft_oracle():
    start = time.monotonic()
    sdm = builtin_snapshot("sdm4", 40, program_cap=64)
    kraft = sdm.kraft_partial()
    geo_ok = all(
        builtin_snapshot("geometric", L).kraft_partial()
        == 1 - Fraction(1, 2**L)
        for L in (5, 12, 24, 40))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert geo_ok
    assert kraft <= Fraction(4, 5)
    # sdm4 has d(m) = (3^(m+1) + (-1)^m)/4 programs of length 2m+2 (the
    # count behind Z = y/(1-2y-3y^2) of criterion 02), so its halting mass
    # is sum_m d(m)/4^(m+1) = 4/5, and the mass beyond length L = 2n+2 is
    # (3/4)^(n+2) + (1/20)(-1/4)^(n+1): two geometric tails, derived here
    # rather than read from the library.  At L = 40 it is ~2.4e-3, so the
    # 2^-18 tolerance is checked where it first holds, at L = 86.
    def tail(L):
        n = (L - 2) // 2
        return (Fraction(3, 4) ** (n + 2)
                + Fraction(1, 20) * Fraction(-1, 4) ** (n + 1))

    assert Fraction(4, 5) - kraft == tail(40)
    gap = {L: Fraction(4, 5) - builtin_snapshot("sdm4", L, program_cap=0)
           .kraft_partial() for L in (84, 86)}
    assert gap[84] == tail(84) and gap[86] == tail(86)
    assert gap[86] <= Fraction(1, 2**18) < gap[84]
    # the closed form describes the machine: the programs the capped run
    # actually enumerated carry exactly the mass of the lengths they cover
    lengths = [len(r.program) for r in sdm.programs]
    assert len(lengths) == 30 and max(lengths) == 8
    assert sdm.program_kraft() == Fraction(4, 5) - tail(8)


# 2. limit partition sums against closed forms
def test_criterion_02_partition_function_oracle():
    start = time.monotonic()
    for T in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
        x = mpmath.power(2, mpmath.mpf(-T.denominator) / T.numerator)
        geo = eval_limit(GEO, T).Z
        assert geo.width() <= Dyadic(1, -20)
        assert _contains(geo, x / (1 - x))
        y = mpmath.power(2, mpmath.mpf(-2 * T.denominator) / T.numerator)
        sdm = eval_limit(SDM, T).Z
        assert sdm.width() <= Dyadic(1, -20)
        assert _contains(sdm, y / (1 - 2 * y - 3 * y * y))
    assert time.monotonic() - start < 10.0


# 3. the three entropy forms and two capacity forms agree everywhere
def test_criterion_03_identity_suite():
    failures = []
    for snap in (GEO, SDM):
        for T in GRID:
            for k in (1, 4, 16, "limit"):
                rep = check_identities(snap, T, k)
                for chk in rep.checks:
                    if chk.passed is False:
                        failures.append((snap.ensemble_id, T, k, chk.name))
                ev = eval_partial(snap, T, k) if k != "limit" \
                    else eval_limit(snap, T)
                # third S-form: E/T + log2 Z, term by term
                s_alt = div(ev.E, Enclosure.from_rational(T, 64), 64) \
                    + log2_enclosure(ev.Z, 64)
                if not s_alt.overlaps(ev.S):
                    failures.append((snap.ensemble_id, T, k, "S-third-form"))
    assert failures == []


# 4. central differences against the certified derivative identities
def test_criterion_04_derivative_checks():
    h = Fraction(1, 1024)
    for snap in (GEO, SDM):
        for T in (Fraction(3, 8), Fraction(1, 2), Fraction(5, 8)):
            for quantity in ("F", "E", "S"):
                rep = check_derivative(snap, quantity, T, k=16, h=h)
                assert rep.passed, (snap.ensemble_id, T, quantity)
                named = {c.name: c for c in rep.checks}
                assert named["remainder-h"].passed is True
                assert named["remainder-h/2"].passed is True
                rich = named["richardson"]
                if rich.passed is not None:
                    assert rich.passed is True  # ratio within [2.5, 6]


# 5. certified positivity and monotone temperature response
def test_criterion_05_positivity_and_monotonicity():
    for snap in (GEO, SDM):
        prev = None
        for T in GRID:
            rep = check_positivity(snap, T, "limit")
            assert rep.passed, (snap.ensemble_id, T)
            named = {c.name: c.passed for c in rep.checks}
            assert named["entropy-strict"] is True
            assert named["capacity-strict"] is True
            ev = eval_limit(snap, T)
            if prev is not None:
                assert certified_lt(prev.Z, ev.Z)
                assert certified_lt(ev.F, prev.F)
                assert certified_lt(prev.E, ev.E)
                assert certified_lt(prev.S, ev.S)
            prev = ev


# 6. divergence above the critical temperature, convergence below
def test_criterion_06_divergence_above_one():
    start = time.monotonic()
    L, Z = divergence_probe("gamma_literal", Fraction(11, 10), 10, 400)
    assert L == 132  # pinned: first length where the partial sum clears 10
    assert certified_gt(Z, Enclosure.point(Dyadic(10)))
    gam = builtin_snapshot("gamma_literal", 200)
    finite = eval_limit(gam, Fraction(9, 10)).Z
    assert finite.hi < Dyadic(1 << 10)  # certified finite limit enclosure
    assert time.monotonic() - start < 5.0


# 7. temperature inversion round-trips on every quantity handle
def test_criterion_07_solver_round_trip():
    for quantity in ("Z", "-F", "E", "S"):
        handle = certify(GEO, quantity, Fraction(1, 2))
        for Tstar in (Fraction(3, 8), Fraction(1, 2), Fraction(5, 8)):
            target = handle.f(Tstar)
            start = time.monotonic()
            enc = solve_temperature(handle, target, Dyadic(1, -30))
            assert time.monotonic() - start < 1.0
            assert enc.width() <= Dyadic(1, -30)
            assert enc.lo.as_fraction() <= Tstar <= enc.hi.as_fraction()


# 8. witness search, sound semidecision, and reconstruction
def test_criterion_08_fixed_point_machinery():
    handle = certify(GEO, "Z", Fraction(1, 2))

    rep = witness_search(handle, bits_prefix(Dyadic(1, -1), 20),
                         descending_upper_oracle(handle))
    assert rep.verified_through == 10 * rep.k_e
    lengths = [l for l, c in handle.snapshot.length_counts_up_to(
        rep.verified_through) for _ in range(c)]
    assert all(Dyadic(l) > rep.length_threshold
               for l in lengths[rep.k_e:])

    rng = random.Random(1)
    for _ in range(100):
        r = Dyadic(rng.randrange(1, 1 << 14), -15)  # adversarial r <= 1/2
        assert r.as_fraction() <= Fraction(1, 2)
        answer = semidecide_above(handle, r, descending_upper_oracle(handle),
                                  budget=48)
        assert answer == "unknown"

    rng = random.Random(2)
    cache = {Fraction(1, 2): handle}
    for _ in range(50):
        T = Fraction(rng.randrange(9, 48), 64)
        u = Fraction(rng.randrange(int(T * 64) + 1, 64), 64)
        n = rng.randrange(2, 25)
        if T not in cache:
            cache[T] = certify(GEO, "Z", T)
        h = cache[T]
        rec = reconstruct_T(h, u, n, beta_bits(h, u, n),
                            approach_oracle(h), ascending_lower_oracle(h))
        assert abs(rec.candidate.as_fraction() - T) < \
            Fraction(2) ** (h.a_lower + h.c - n)


# 9. power sums coincide bit for bit with rescaled partition sums
def test_criterion_09_power_sum_identity():
    for snap in (GEO, SDM):
        for T in (Fraction(1, 2), Fraction(3, 4)):
            for n in (2, 3):
                for k in range(1, 17):
                    ps = power_sum(snap, T, n, k)
                    zk = eval_partial(snap, T / n, k).Z
                    assert (ps.lo, ps.hi) == (zk.lo, zk.hi), \
                        (snap.ensemble_id, T, n, k)


# 10. program-size closed forms and the worked expansion example
def test_criterion_10_complexity_closed_forms():
    lit = build_table(builtin_snapshot("literal", 21))
    gam = build_table(builtin_snapshot("gamma_literal", 17))
    assert lit.exactness == "exact" and gam.exactness == "exact"
    for n in range(0, 11):
        for v in range(1 << n):
            x = BitString.from_int(v, n)
            assert lit.H(x) == 2 * n + 1
            if n >= 1:
                assert gam.H(x) == n + 2 * (n.bit_length() - 1) + 1
    assert bits_prefix(Dyadic(5, -3), 6) == BitString("101000")
