"""Certified handles: certification, inversion, witnesses, reconstruction."""

import random
import time
from fractions import Fraction
from math import ceil, log2
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from thermoait import fixedpoint, thermo
from thermoait.bitstring import BitString, LAMBDA
from thermoait.dyadic import Dyadic
from thermoait.enclosure import Enclosure, bits_prefix
from thermoait.ensembles import builtin_snapshot
from thermoait.errors import (
    CertificationError, OracleExhausted, PrecisionError, RangeError, SpecError,
)
from thermoait.fixedpoint import (
    QuantityHandle, approach_oracle, ascending_lower_oracle, certify,
    descending_upper_oracle, reconstruct_T, semidecide_above,
    solve_temperature, witness_search,
)
from thermoait.thermo import limit_moments

GEO = builtin_snapshot("geometric", 600)
HALF = Fraction(1, 2)


@pytest.fixture(scope="module")
def handles():
    return {q: certify(GEO, q, HALF) for q in ("Z", "-F", "E", "S")}


# -- certification -----------------------------------------------------

def test_certificate_shape_Z(handles):
    h = handles["Z"]
    assert h.t == Fraction(3, 4)
    assert (h.b, h.c) == (0, 0)
    assert h.k0 >= 1
    assert h.a >= 0 and h.a_lower >= 0


def test_certificate_increment_exponents(handles):
    assert (handles["-F"].c, handles["E"].c, handles["S"].c) == (0, 1, 1)
    assert handles["E"].b >= 2
    assert handles["S"].b >= handles["E"].b


def test_certify_rejects_unknown_quantity():
    with pytest.raises(SpecError):
        certify(GEO, "C", HALF)


def test_certify_single_length_ensemble_fails():
    snap = builtin_snapshot("geometric", 1)
    with pytest.raises(CertificationError):
        certify(snap, "Z", HALF)


def test_certify_sdm4():
    snap = builtin_snapshot("sdm4", 60, program_cap=2048)
    h = certify(snap, "Z", HALF)
    assert h.t == Fraction(3, 4)
    # f(1/2) = Z_sdm4(1/2) = y/(1 - 2y - 3y^2), y = 2^-4
    closed = Fraction(16, 221)
    f = h.f()
    assert f.lo.as_fraction() <= closed <= f.hi.as_fraction()


def test_slope_bounds_hold_numerically(handles):
    h = handles["E"]
    for x in (Fraction(9, 16), Fraction(11, 16)):
        diff = (h.g(x, 40) - h.g(h.T, 40))
        dx = x - h.T
        assert diff.hi.as_fraction() <= Fraction(2) ** h.a * dx
        assert diff.lo.as_fraction() >= Fraction(2) ** (-h.a_lower) * dx


# -- solve_temperature -------------------------------------------------

def test_solve_recovers_Z_target(handles):
    enc = solve_temperature(handles["Z"],
                            Enclosure.from_rational(Fraction(1, 3), 80),
                            Dyadic(1, -30))
    assert enc.lo.as_fraction() <= HALF <= enc.hi.as_fraction()
    assert enc.width() < Dyadic(1, -30)


def test_solve_recovers_E_target(handles):
    enc = solve_temperature(handles["E"],
                            Enclosure.from_rational(Fraction(4, 3), 80),
                            Dyadic(1, -30))
    assert enc.lo.as_fraction() <= HALF <= enc.hi.as_fraction()


def test_solve_all_quantities_roundtrip(handles):
    for q, h in handles.items():
        for Tstar in (Fraction(3, 8), Fraction(5, 8)):
            enc = solve_temperature(h, h.f(Tstar), Dyadic(1, -30))
            assert enc.lo.as_fraction() <= Tstar <= enc.hi.as_fraction(), q
            assert enc.width() < Dyadic(1, -30)


def test_solve_out_of_range(handles):
    with pytest.raises(RangeError):
        solve_temperature(handles["Z"], Enclosure.point(Dyadic(10)),
                          Dyadic(1, -30))
    with pytest.raises(RangeError):
        solve_temperature(handles["Z"], Enclosure.point(Dyadic(-1)),
                          Dyadic(1, -30))


def test_solve_validates_tol(handles):
    with pytest.raises(SpecError):
        solve_temperature(handles["Z"], Enclosure.point(Dyadic(1, -2)),
                          Dyadic(0))


GEO300 = builtin_snapshot("geometric", 300)
GEO300_HANDLES = {q: certify(GEO300, q, HALF) for q in ("Z", "-F", "E", "S")}


def _counted_solve(handle, target, tol):
    """solve_temperature and the number of limit evaluations it made."""
    with mock.patch.object(thermo, "limit_moments",
                           wraps=thermo.limit_moments) as counter:
        enc = solve_temperature(handle, target, tol)
    return enc, counter.call_count


temperatures = st.one_of(
    st.integers(16, 48).map(lambda n: Fraction(n, 64)),  # on the probe grid
    st.integers(1 << 38, 3 << 38).map(lambda n: Fraction(n, 1 << 40)),
    st.fractions(Fraction(1, 4), Fraction(3, 4), max_denominator=10**6))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(GEO300_HANDLES)), temperatures,
       st.sampled_from((30, 50, 120, 200)))
def test_solve_property_contains_T_in_few_evaluations(quantity, Tstar, bits):
    handle = GEO300_HANDLES[quantity]
    tol = Dyadic(1, -bits)
    target = handle.f(Tstar, precision_bits=bits + 40)
    enc, evaluations = _counted_solve(handle, target, tol)
    assert enc.contains(Tstar)
    assert enc.width() <= tol.scale2(-3)
    assert evaluations <= 15


@pytest.mark.parametrize("slope", [Fraction(0), Fraction(-1),
                                   Fraction(1 << 40)])
def test_solve_sound_under_a_misleading_slope(monkeypatch, slope):
    # the slope estimate only places probes: a useless one costs
    # evaluations (at most twice plain bisection's), never soundness
    monkeypatch.setattr(fixedpoint, "_slope_estimate", lambda *_: slope)
    tol = Dyadic(1, -50)
    bisections = ceil(log2(Fraction(62, 64) / tol.scale2(-3).as_fraction()))
    for quantity in ("Z", "S"):
        handle = GEO300_HANDLES[quantity]
        for Tstar in (Fraction(5, 16), Fraction(1, 2), Fraction(2, 3)):
            enc, evaluations = _counted_solve(
                handle, handle.f(Tstar, precision_bits=90), tol)
            assert enc.contains(Tstar)
            assert enc.width() <= tol.scale2(-3)
            assert evaluations <= 2 * bisections


def test_solve_at_2_to_the_minus_200_within_a_second(handles):
    for quantity, handle in handles.items():
        Tstar = Fraction(5, 8)
        target = handle.f(Tstar, precision_bits=240)
        start = time.monotonic()
        enc = solve_temperature(handle, target, Dyadic(1, -200))
        assert time.monotonic() - start < 1.0, quantity
        assert enc.contains(Tstar)
        assert enc.width() <= Dyadic(1, -203)


def test_solve_rounds_a_rational_target_at_the_working_precision(handles):
    # at 2^-40 the working precision is the handle's 64 bits, so the exact
    # target gives the enclosure the 64-bit rounded target gives
    h = handles["E"]
    tol = Dyadic(1, -40)
    exact = solve_temperature(h, Fraction(4, 3), tol)
    rounded = solve_temperature(h, Enclosure.from_rational(Fraction(4, 3), 64),
                                tol)
    assert (exact.lo, exact.hi) == (rounded.lo, rounded.hi)
    fine = solve_temperature(h, Fraction(4, 3), Dyadic(1, -200))
    assert fine.contains(HALF) and fine.width() <= Dyadic(1, -203)


def test_precision_error_names_a_too_wide_target(handles):
    h = handles["Z"]
    v = h.f(HALF)
    wide = Enclosure(v.lo - Dyadic(1, -20), v.hi + Dyadic(1, -20))
    with pytest.raises(PrecisionError, match="target enclosure .* too wide"):
        solve_temperature(h, wide, Dyadic(1, -30))


def test_precision_error_names_the_working_precision():
    # sdm4 near T = 1/48 has Z about 2^-96: at 64 bits the tails' rounding
    # grid leaves the comparisons unresolved; 160 bits resolve them
    snap = builtin_snapshot("sdm4", 1500, program_cap=512)
    Tstar, bracket = Fraction(1, 48), (Fraction(1, 64), Fraction(1, 32))
    h = certify(snap, "Z", HALF)
    target = h.f(Tstar, precision_bits=300)
    with pytest.raises(PrecisionError,
                       match="at 64 bits of working precision"):
        solve_temperature(h, target, Dyadic(1, -30), bracket)
    h160 = certify(snap, "Z", HALF, precision_bits=160)
    enc = solve_temperature(h160, target, Dyadic(1, -30), bracket)
    assert enc.contains(Tstar)


# -- witness_search ----------------------------------------------------

def test_witness_geometric_Z(handles):
    h = handles["Z"]
    bits = bits_prefix(Dyadic(1, -1), 20)
    rep = witness_search(h, bits, descending_upper_oracle(h))
    assert rep.n == 20
    assert rep.length_threshold == Dyadic.from_fraction(
        HALF * (20 - h.a - h.b))
    assert rep.verified_through == 10 * rep.k_e
    # every program past k_e within the verified window is longer
    lengths = h.lengths(rep.verified_through)
    assert all(Dyadic(l) > rep.length_threshold
               for l in lengths[rep.k_e:])
    # geometric outputs are binary numerals, never the empty string
    assert rep.witness == LAMBDA


def test_witness_witness_is_least_absent(handles):
    h = handles["Z"]
    rep = witness_search(h, bits_prefix(Dyadic(1, -1), 20),
                         descending_upper_oracle(h))
    outputs = {r.output for r in GEO.programs[:rep.k_e]}
    assert rep.witness not in outputs
    assert all(s in outputs or rep.witness <= s
               for s in [BitString("1"), BitString("10")])


def test_witness_n_below_n0(handles):
    # one bit gives r = 1/2 + 1/2 = 1, outside (T, t)
    with pytest.raises(RangeError):
        witness_search(handles["Z"], bits_prefix(Dyadic(1, -1), 1),
                       descending_upper_oracle(handles["Z"]))


def test_witness_oracle_exhausted(handles):
    # an oracle that never descends near f(T) cannot be beaten
    with pytest.raises(OracleExhausted):
        witness_search(handles["Z"], bits_prefix(Dyadic(1, -1), 20),
                       iter([Dyadic(2), Dyadic(2), Dyadic(2)]))


# -- semidecide_above --------------------------------------------------

def test_semidecide_yes_above(handles):
    h = handles["Z"]
    assert semidecide_above(h, Dyadic(9, -4),
                            descending_upper_oracle(h)) == "yes"


def test_semidecide_unknown_at_and_below(handles):
    h = handles["Z"]
    assert semidecide_above(h, Dyadic(1, -1),
                            descending_upper_oracle(h)) == "unknown"
    assert semidecide_above(h, Dyadic(7, -4),
                            descending_upper_oracle(h)) == "unknown"


def test_semidecide_sound_on_adversarial_grid(handles):
    h = handles["Z"]
    rng = random.Random(7)
    for _ in range(25):
        r = Dyadic(rng.randrange(1, 1 << 12), -13)  # r in (0, 1/2]
        assert r.as_fraction() <= HALF
        assert semidecide_above(h, r, descending_upper_oracle(h),
                                budget=64) == "unknown"


def test_semidecide_range_guard(handles):
    with pytest.raises(RangeError):
        semidecide_above(handles["Z"], Dyadic(7, -3),
                         descending_upper_oracle(handles["Z"]))


# -- reconstruct_T -----------------------------------------------------

def _beta_prefix(handle, u, n):
    bits = -((-handle.T * n) // u)
    beta, _ = limit_moments(handle.snapshot, u, (handle.b,), 96)
    return bits_prefix(beta[handle.b], int(bits))


def test_reconstruct_spec_example(handles):
    h = handles["Z"]
    u, n = Fraction(3, 4), 16
    prefix = _beta_prefix(h, u, n)
    assert len(prefix) == 11  # ceil(16 * (1/2) / (3/4))
    rep = reconstruct_T(h, u, n, prefix, approach_oracle(h),
                        ascending_lower_oracle(h))
    assert rep.beta_bits_used == 11
    assert rep.radius == Dyadic(1, h.a_lower + h.c - n)
    assert abs(rep.candidate.as_fraction() - HALF) < rep.radius.as_fraction()


def test_reconstruct_tiny_n_has_huge_radius(handles):
    h = handles["Z"]
    u = Fraction(3, 4)
    rep = reconstruct_T(h, u, 1, _beta_prefix(h, u, 1), approach_oracle(h),
                        ascending_lower_oracle(h))
    assert rep.radius.as_fraction() >= Fraction(1, 2)
    assert abs(rep.candidate.as_fraction() - HALF) < rep.radius.as_fraction()


def test_reconstruct_validates_prefix_length(handles):
    h = handles["Z"]
    with pytest.raises(SpecError):
        reconstruct_T(h, Fraction(3, 4), 16, BitString("0101"),
                      approach_oracle(h), ascending_lower_oracle(h))


def test_reconstruct_validates_u(handles):
    h = handles["Z"]
    for bad in (Fraction(1, 4), Fraction(1, 2), Fraction(1)):
        with pytest.raises(RangeError):
            reconstruct_T(h, bad, 16, BitString("0"), approach_oracle(h),
                          ascending_lower_oracle(h))


def test_reconstruct_oracle_exhaustion(handles):
    h = handles["Z"]
    u, n = Fraction(3, 4), 16
    prefix = _beta_prefix(h, u, n)
    with pytest.raises(OracleExhausted):
        reconstruct_T(h, u, n, prefix, iter([Dyadic(5, -3)]),
                      ascending_lower_oracle(h))


def test_reconstruct_randomized():
    rng = random.Random(20260826)
    cache = {}
    for _ in range(12):
        T = Fraction(rng.randrange(9, 48), 64)
        n = rng.randrange(4, 25)
        # u strictly between T and 1, dyadic
        u = Fraction(rng.randrange(int(T * 64) + 1, 64), 64)
        if T not in cache:
            cache[T] = certify(GEO, "Z", T)
        h = cache[T]
        rep = reconstruct_T(h, u, n, _beta_prefix(h, u, n),
                            approach_oracle(h), ascending_lower_oracle(h))
        assert abs(rep.candidate.as_fraction() - T) < rep.radius.as_fraction()
        assert T < rep.candidate.as_fraction()  # approach is from above
