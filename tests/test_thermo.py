"""Partition-function evaluation against closed forms and an independent
high-precision reference.

Closed forms used as oracles:
  geometric:  Z(T) = x/(1-x), E = 1/(1-x), x = 2^(-1/T)
  sdm4:       Z(T) = y/(1 - 2y - 3y^2), y = 2^(-2/T)  (census recurrence)
"""

import ast
from collections import Counter
from fractions import Fraction
from math import ceil, comb, floor
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

import thermoait.enclosure as enclosure
import thermoait.thermo as thermo
from thermoait.bitstring import BitString
from thermoait.dyadic import Dyadic
from thermoait.enclosure import Enclosure, exp2_enclosure
from thermoait.ensembles import (
    MACHINES, EnsembleSnapshot, Machine, ProgramRecord, builtin_snapshot,
    kraft_tail_bounds, load_snapshot, save_snapshot,
)
from thermoait.errors import RangeError, SpecError, ThermoAITError
from thermoait.fixedpoint import QUANTITY_CHOICES, QuantityHandle, certify
from thermoait.relations import _identities_and_positivity
from thermoait.thermo import (
    QUANTITIES, CensusWalk, WeightChain, _census_cutoff, _RunningWalk,
    divergence_probe, eval_limit, eval_partial, evaluate, limit_moments,
    moment_sums, power_sum, series_moments, summed_lengths,
)

mpmath.mp.prec = 200


def as_mp(d):
    return mpmath.mpf(d.m) * mpmath.power(2, d.e)


def contains(encl, value):
    return as_mp(encl.lo) <= value <= as_mp(encl.hi)


GEO60 = builtin_snapshot("geometric", 60)
SDM = builtin_snapshot("sdm4", 200, program_cap=64)


# -- partial sums, exact rational oracles ------------------------------

def test_geometric_depth_one():
    ev = eval_partial(GEO60, Fraction(1, 2), 1)
    # single program of length 1: Z = 1/4, F = 1, E = 1, S = C = 0
    assert ev.Z.lo == ev.Z.hi == Dyadic(1, -2)
    assert ev.F.contains(1) and ev.F.width().as_fraction() < Fraction(1, 2**60)
    assert ev.E.lo == ev.E.hi == Dyadic(1)
    assert ev.S.lo == Dyadic(0) and ev.S.hi.as_fraction() < Fraction(1, 2**60)
    assert ev.C.lo == Dyadic(0) and ev.C.hi.as_fraction() < Fraction(1, 2**60)


def test_geometric_depth_two():
    ev = eval_partial(GEO60, Fraction(1, 2), 2)
    assert ev.Z.lo == ev.Z.hi == Dyadic(5, -4)
    assert ev.E.contains(Fraction(6, 5))
    assert ev.W.lo == ev.W.hi == Dyadic(1, -2) + Dyadic(2, -4)


def test_sdm4_depth_one():
    ev = eval_partial(SDM, Fraction(1, 2), 1)
    assert ev.Z.lo == ev.Z.hi == Dyadic(1, -4)


def test_partial_against_reference():
    T = mpmath.mpf(1) / 2
    lens = [len(r.program) for r in SDM.programs][:7]
    Zp = sum(mpmath.power(2, mpmath.mpf(-l) / T) for l in lens)
    Wp = sum(l * mpmath.power(2, mpmath.mpf(-l) / T) for l in lens)
    Yp = sum(l * l * mpmath.power(2, mpmath.mpf(-l) / T) for l in lens)
    ev = eval_partial(SDM, Fraction(1, 2), 7)
    assert contains(ev.Z, Zp)
    assert contains(ev.F, -T * mpmath.log(Zp, 2))
    assert contains(ev.E, Wp / Zp)
    assert contains(ev.S, (Wp / Zp + T * mpmath.log(Zp, 2)) / T)
    assert contains(ev.C, mpmath.log(2) / T**2 * (Yp / Zp - (Wp / Zp) ** 2))


def test_partial_rejects_bad_args():
    with pytest.raises(SpecError):
        eval_partial(GEO60, Fraction(1, 2), 0)
    with pytest.raises(RangeError):
        eval_partial(GEO60, Fraction(3, 2), 1)
    with pytest.raises(RangeError):
        eval_partial(GEO60, 0, 1)


_TEMPERATURE_ARGS = (
    st.integers(-4, 4)
    | st.fractions(min_value=-3, max_value=3, max_denominator=2**40)
    | st.builds(Dyadic, st.integers(-2**20, 2**20), st.integers(-22, 2))
    | st.fractions(min_value=-3, max_value=3, max_denominator=2**20).map(str))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_TEMPERATURE_ARGS, st.booleans())
@example(0, False)
@example(1, False)
@example(1, True)
@example(2, True)
@example(Fraction(-1, 2), True)
@example("1/2", False)
@example(Dyadic(1, 0), False)
@example(Dyadic(3, -1), True)
def test_temperature_range_is_the_open_interval(T, allow_high):
    q = T.as_fraction() if isinstance(T, Dyadic) else Fraction(T)
    limit = 2 if allow_high else 1
    if 0 < q < limit:
        got = thermo._temp_frac(T, allow_high)
        assert type(got) is Fraction and got == q
    else:
        with pytest.raises(RangeError):
            thermo._temp_frac(T, allow_high)


# -- limits ------------------------------------------------------------

def test_geometric_limit_closed_form():
    ev = eval_limit(GEO60, Fraction(1, 2))
    assert ev.Z.contains(Fraction(1, 3))
    assert ev.E.contains(Fraction(4, 3))
    assert ev.Z.width().as_fraction() < Fraction(1, 2**50)
    T = mpmath.mpf(1) / 2
    x = mpmath.power(2, -1 / T)
    Z, E = x / (1 - x), 1 / (1 - x)
    var = (1 + x) / (1 - x) ** 2 - E * E
    assert contains(ev.F, -T * mpmath.log(Z, 2))
    assert contains(ev.S, (E + T * mpmath.log(Z, 2)) / T)
    assert contains(ev.C, mpmath.log(2) / T**2 * var)


def test_sdm4_limit_closed_form():
    # Z(1/2) = y/(1-2y-3y^2) at y = 1/16 gives exactly 16/221
    ev = eval_limit(SDM, Fraction(1, 2))
    assert ev.Z.contains(Fraction(16, 221))
    assert ev.Z.width().as_fraction() < Fraction(1, 2**40)
    # the generating function holds the whole domain: no tail is left
    assert ev.tail_bounds == {"Z": Dyadic(0), "W": Dyadic(0), "Y": Dyadic(0)}


def test_sdm4_limit_near_critical():
    snap = builtin_snapshot("sdm4", 300, program_cap=0)
    ev = eval_limit(snap, Fraction(9, 10))
    y = mpmath.power(2, mpmath.mpf(-2) / (mpmath.mpf(9) / 10))
    assert contains(ev.Z, y / (1 - 2 * y - 3 * y * y))
    assert ev.Z.width().as_fraction() < Fraction(1, 2**30)


def test_near_critical_sdm4_sums_few_lengths():
    # a census loop over the limit (the relations' Gibbs and variance forms)
    # stops where sdm4's terms, shrinking by about 0.22 bits per length at
    # 63/64, fall below the precision; the census slack decay, 1/63 bit
    # per length, would run it to max_length
    snap = builtin_snapshot("sdm4", 1500, program_cap=0)
    T = Fraction(63, 64)
    assert len(summed_lengths(snap, T, "limit", 64)) <= 300
    assert eval_limit(snap, T).Z.width().as_fraction() <= Fraction(1, 2**60)


def test_literal_cutoff_follows_its_decay():
    snap = builtin_snapshot("literal", 1500, program_cap=0)
    assert _census_cutoff(snap, Fraction(7, 8), 64) < 790


def test_limit_tail_bounds_cover_true_tail():
    # the census Kraft slack past 60 against geometric's exact tail
    # sum_{l>60} l^j x^l
    T = Fraction(3, 4)
    x = mpmath.power(2, mpmath.mpf(-4) / 3)
    for j in (0, 1, 2):
        true_tail = mpmath.nsum(lambda l: l**j * x**l, [61, mpmath.inf])
        bound = kraft_tail_bounds(GEO60, 60, T, (j,), 64)[j]
        assert mpmath.mpf(0) < true_tail <= as_mp(bound)
        assert as_mp(bound) < 4 * true_tail  # not wildly loose


_EULERIAN = [[1], [1], [1, 1], [1, 4, 1], [1, 11, 11, 1]]


def _series(z, j, a):
    """sum_{k>=0} (k + a)^j z^k in closed form, through
    sum_{k>=0} k^i z^k = z A_i(z) / (1 - z)^(i+1) (A_i the Eulerian
    polynomials; 1/(1 - z) for i = 0); exact for a Fraction z."""
    def powers(i):
        if i == 0:
            return 1 / (1 - z)
        A = sum(c * z**k for k, c in enumerate(_EULERIAN[i]))
        return z * A / (1 - z) ** (i + 1)
    return sum(comb(j, i) * a ** (j - i) * powers(i) for i in range(j + 1))


def _closed_tail(kind, x, N, j):
    """sum over lengths l > N of count(l) l^j x^l, from each census's
    closed form (the whole moment at N = 0)."""
    if kind == "geometric":  # one program of each length l >= 1
        return x ** (N + 1) * _series(x, j, N + 1)
    if kind == "literal":  # 2^n programs of length 2n + 1
        n0, q = (N + 1) // 2, 2 * x * x
        return x * 2**j * q**n0 * _series(q, j, n0 + Fraction(1, 2))
    # sdm4: (3^n - (-1)^n)/4 programs of length 2n, n >= 1
    n0, y = N // 2 + 1, x * x
    return Fraction(2**j, 4) * ((3 * y) ** n0 * _series(3 * y, j, n0)
                                - (-y) ** n0 * _series(-y, j, n0))


def _count(kind, l):
    if kind == "geometric":
        return int(l >= 1)
    if kind == "literal":
        return 2 ** (l // 2) if l % 2 else 0
    return (3 ** (l // 2) - (-1) ** (l // 2)) // 4 if l % 2 == 0 else 0


@pytest.mark.parametrize("kind", ["sdm4", "literal", "geometric"])
def test_census_tail_against_exact_tail(kind):
    # the tail a census loop over the limit takes past L (relations' Gibbs
    # and variance forms): the upper end of the generating-function moment
    # minus the lower end of the census sum up to L.  Exact tail past L: a
    # direct sum over 60 more lengths plus the closed form past those,
    # which must agree with the closed form past L; the tail must hold it
    # and exceed it by at most 2^-p of the moment
    snap = builtin_snapshot(kind, 101, program_cap=0)
    with mpmath.workprec(300):
        _check_census_tail(kind, snap)


def _check_census_tail(kind, snap):
    tol = 1 - mpmath.mpf(2) ** -250
    orders = (0, 1, 2, 3, 4)
    for T in (Fraction(1, 16), Fraction(1, 2), Fraction(7, 8),
              Fraction(63, 64), Fraction(127, 128)):
        x = mpmath.power(2, -mpmath.mpf(T.denominator) / T.numerator)
        limits = {p: limit_moments(snap, T, orders, p)[0] for p in (64, 1024)}
        for L in (1, 2, 9, 10, 41, 60, 101):
            N = L + 60
            terms = [_count(kind, l) * x**l for l in range(L + 1, N + 1)]
            exact = {}
            for j in orders:
                exact[j] = _closed_tail(kind, x, N, j) + mpmath.fsum(
                    t * l**j for l, t in enumerate(terms, L + 1))
                assert abs(exact[j] / _closed_tail(kind, x, L, j) - 1) < 2**-250
            items = [(l, c) for l, c in sorted(snap.census.items()) if l <= L]
            for p, limit in limits.items():
                sums = moment_sums(items, T, orders, p)
                for j in orders:
                    b = as_mp(limit[j].hi - sums[j].lo)
                    assert b >= exact[j] * tol, (T, L, p, j)
                    assert b <= (exact[j] / tol
                                 + as_mp(limit[j].hi) * mpmath.mpf(2) ** -p), \
                        (T, L, p, j)


def test_limit_requires_subcritical_temperature():
    with pytest.raises(RangeError):
        kraft_tail_bounds(SDM, 200, Fraction(1, 1), (0,), 64)
    # the generating functions hold up to each machine's pole (sdm4's at
    # T = 2/log2 3), but limits are served for T < 1 only
    for kind in ("sdm4", "literal", "geometric"):
        snap = KERNEL_SNAPSHOTS[kind]
        for T in (Fraction(1), Fraction(9, 8), Fraction(3)):
            with pytest.raises(RangeError):
                limit_moments(snap, T, (0, 1, 2), 64)
            with pytest.raises(RangeError):
                eval_limit(snap, T)
    # a census of 3^l programs per length has its pole at x = 1/3, which
    # 2^(-1/T) passes at T = 1/log2 3 = 0.63: past it D(x.hi) <= 0
    steep = Machine("steep", None, series=((0, 1), (1, -3)))
    assert series_moments(steep, Fraction(5, 8), (0,), 64)[0].lo.sign > 0
    with pytest.raises(RangeError, match="pole"):
        series_moments(steep, Fraction(3, 4), (0,), 64)


# -- limits from the generating functions --------------------------------

SERIES_KINDS = ["sdm4", "literal", "geometric"]
SERIES_TEMPERATURES = [Fraction(1, 64), Fraction(1, 16), Fraction(1, 2),
                       Fraction(7, 8), Fraction(63, 64)]


# the closed forms of the series machines' censuses up to length 2000:
# (3^(m+1) + (-1)^m)/4 programs of length 2m+2, 2^n of length 2n+1, and
# one of each length
CLOSED_CENSUS = {
    "sdm4": {2 * m + 2: (3 ** (m + 1) + (-1) ** m) // 4 for m in range(1000)},
    "literal": {2 * n + 1: 1 << n for n in range(1000)},
    "geometric": {l: 1 for l in range(1, 2001)},
}
# a max_length to which builtin_snapshot enumerates the whole domain
ENUMERATED = {"sdm4": 16, "literal": 15, "geometric": 60}


@pytest.mark.parametrize("kind", SERIES_KINDS)
def test_series_expands_to_the_census(kind):
    # D(0) = 1 and D's other coefficients are at most 0, so D falls on
    # x >= 0 (the pole check rests on it); the census is the power series
    # of N/D, checked against the closed forms and against the lengths of
    # the enumerated domain, never against an expansion of its own
    N, D = MACHINES[kind].series
    assert D[0] == 1 and all(d <= 0 for d in D[1:])
    assert dict(MACHINES[kind].census(2000)) == CLOSED_CENSUS[kind]
    snap = builtin_snapshot(kind, ENUMERATED[kind])
    assert (Counter(len(r.program) for r in snap.programs)
            == dict(MACHINES[kind].census(ENUMERATED[kind])))


def _check_series_moments(kind, T, p):
    """Each moment j <= 4 contains the 300-bit closed form, with a width
    of at most 2^-(p-8) of the moment."""
    got = series_moments(MACHINES[kind], T, range(5), p)
    with mpmath.workprec(300):
        x = mpmath.power(2, -mpmath.mpf(T.denominator) / T.numerator)
        for j in range(5):
            exact = _closed_tail(kind, x, 0, j)
            assert as_mp(got[j].lo) <= exact <= as_mp(got[j].hi), (T, j)
            assert (as_mp(got[j].width())
                    <= exact * mpmath.mpf(2) ** (8 - p)), (T, j)


@pytest.mark.parametrize("kind", SERIES_KINDS)
@pytest.mark.parametrize("p", [64, 200])
def test_series_moments_contain_the_closed_forms(kind, p):
    for T in SERIES_TEMPERATURES:
        _check_series_moments(kind, T, p)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(SERIES_KINDS),
       st.fractions(0, 1, max_denominator=2**20).filter(lambda T: 0 < T < 1),
       st.sampled_from([32, 64, 200]))
def test_series_moments_contain_the_closed_forms_at_drawn_T(kind, T, p):
    _check_series_moments(kind, T, p)


@pytest.mark.parametrize("kind", SERIES_KINDS)
def test_series_moments_reach_the_census_sum(kind):
    # every moment's lower end is at least the census sum up to 1500 at
    # the lower end of x = 2^(-1/T), exact and rounded down on its grid
    snap = builtin_snapshot(kind, 1500, program_cap=0)
    top = snap.max_length
    for T in SERIES_TEMPERATURES:
        limit, _ = limit_moments(snap, T, range(5), 64)
        x = exp2_enclosure(Fraction(-1) / T, 80).lo
        m, s = x.m, -x.e
        # by Horner, acc[j] = sum_l count(l) l^j m^l 2^(s (top - l)), the
        # sum times 2^(s top)
        acc = [0] * 5
        for l in range(top, -1, -1):
            c = snap.census.get(l, 0)
            acc = [a * m + (c * l**j << s * (top - l))
                   for j, a in enumerate(acc)]
        for j in range(5):
            partial = Fraction(acc[j], 1 << s * top)
            assert limit[j].lo >= _round_significand(partial, 96, False), \
                (T, j)


def test_generating_function_limits_walk_no_census(monkeypatch):
    # a limit on sdm4, literal or geometric evaluates the generating
    # function at the ends of one exp2 enclosure: it builds no weight
    # chain and no census walk (the Kraft-slack path, which does, shows
    # that the guard is live)
    def refuse(*args):
        raise AssertionError("census walk on the generating-function path")

    monkeypatch.setattr(thermo, "WeightChain", refuse)
    monkeypatch.setattr(thermo, "CensusWalk", refuse)
    for kind in SERIES_KINDS:
        for T in KERNEL_TEMPERATURES:
            eval_limit(KERNEL_SNAPSHOTS[kind], T)
            limit_moments(KERNEL_SNAPSHOTS[kind], T, range(5), 64)
    with pytest.raises(AssertionError, match="census walk"):
        eval_limit(KERNEL_SNAPSHOTS["gamma_literal"], Fraction(1, 2))


def test_derive_quantities_makes_two_quotients_per_division(monkeypatch):
    # E, S and the two factors of C take one div each, and a divisor of
    # known sign needs two directed quotients; enumerating every corner
    # took 8 per div, 32 in all
    ev = eval_limit(SDM, Fraction(1, 2))
    calls = []
    quotient = enclosure._div_dyadic

    def counted(*args, **kwargs):
        calls.append(args)
        return quotient(*args, **kwargs)

    monkeypatch.setattr(enclosure, "_div_dyadic", counted)
    thermo.derive_quantities(ev.Z, ev.W, ev.Y, Fraction(1, 2), 64)
    assert len(calls) == 8


# -- the tail comes from the machine, never from the label ---------------

def _write_snapshot(path, label, maxlen=3, census=None):
    census = census or {1: 1}
    kraft = sum(Fraction(c, 2**l) for l, c in census.items())
    path.write_text("\n".join(["THERMOAIT-SNAPSHOT v1",
                               f"ensemble={label} budget=1 maxlen={maxlen}",
                               *(f"L {l} {c}" for l, c in census.items()),
                               f"KRAFT {kraft.numerator}/{kraft.denominator}"])
                    + "\n")
    return load_snapshot(path)


def test_mislabelled_file_gets_the_census_slack(tmp_path):
    # {0} with {1000, ..., 1111} is a prefix-free domain consistent with
    # this file, and its Z(1/2) is 1/4 + 8/256 = 9/32; the geometric ratio
    # tail would claim Z(1/2) <= 49/192
    snap = _write_snapshot(tmp_path / "a.snap", "geometric")
    assert snap.machine is None
    ev = eval_limit(snap, Fraction(1, 2))
    assert ev.Z.hi.as_fraction() >= Fraction(9, 32)
    custom = eval_limit(_write_snapshot(tmp_path / "b.snap", "custom"),
                        Fraction(1, 2))
    for q in QUANTITIES:
        assert _endpoints(ev.quantity(q)) == _endpoints(custom.quantity(q))
    assert ev.tail_bounds == custom.tail_bounds


@pytest.mark.parametrize("kind, census, T, consistent_Z", [
    # {11, 0011, 00000, 00001} is prefix-free and consistent with the file:
    # the freed Kraft mass 1/16 goes to two programs of length 5, which
    # sdm4 never has
    ("sdm4", {2: 1, 4: 1}, Fraction(1, 4), Fraction(2057, 2**19)),
    # {0, 100, 1010, 1011}: the freed mass 1/8 goes to two programs of
    # length 4, which literal never has
    ("literal", {1: 1, 3: 1}, Fraction(1, 2), Fraction(35, 128)),
])
def test_census_one_count_off_gets_the_census_slack(tmp_path, kind, census,
                                                    T, consistent_Z):
    # the machine's census at maxlen 4 (sdm4) or 3 (literal) with its last
    # count one lower
    maxlen = max(census)
    honest = dict(MACHINES[kind].census(maxlen))
    assert [l for l in census if census[l] != honest[l]] == [maxlen]
    snap = _write_snapshot(tmp_path / "a.snap", kind, maxlen, census)
    assert snap.machine is None
    ev = eval_limit(snap, T)
    assert ev.Z.hi.as_fraction() >= consistent_Z
    # bound to the machine, the file would get the machine's own Z from
    # its generating function (sdm4: 0.003937 at 1/4; literal: 2/7 at
    # 1/2), which excludes the consistent domain's Z; a snapshot built
    # directly with the machine drops it too
    machine_Z = series_moments(MACHINES[kind], T, (0,), 64)[0]
    assert not machine_Z.contains(consistent_Z)
    labelled = EnsembleSnapshot(kind, 1, maxlen, [], census, MACHINES[kind])
    assert labelled.machine is None
    custom = _write_snapshot(tmp_path / "b.snap", "custom", maxlen, census)
    for other in (eval_limit(labelled, T), eval_limit(custom, T)):
        for q in QUANTITIES:
            assert _endpoints(ev.quantity(q)) == _endpoints(other.quantity(q))
        assert ev.tail_bounds == other.tail_bounds


@pytest.mark.parametrize("kind", MACHINES)
def test_saved_builtin_keeps_its_limit(tmp_path, kind):
    snap = builtin_snapshot(kind, 120)
    path = tmp_path / f"{kind}.snap"
    save_snapshot(snap, path)
    back = load_snapshot(path)
    assert back.machine is MACHINES[kind]
    for T in (Fraction(1, 2), Fraction(15, 16)):
        a, b = eval_limit(snap, T), eval_limit(back, T)
        for q in QUANTITIES:
            assert _endpoints(a.quantity(q)) == _endpoints(b.quantity(q))
        assert a.tail_bounds == b.tail_bounds


def test_temperature_object_accepted():
    ev = evaluate(GEO60, Dyadic(1, -1), k=3)
    assert ev.temperature == Fraction(1, 2)
    assert ev.k == 3


# -- power sums --------------------------------------------------------

def test_power_sum_matches_rescaled_temperature():
    ps = power_sum(GEO60, Fraction(3, 4), 3, 5)
    z = eval_partial(GEO60, Fraction(1, 4), 5).Z
    assert ps.lo == z.lo and ps.hi == z.hi
    ps_lim = power_sum(GEO60, Fraction(3, 4), 3, "limit")
    z_lim = eval_limit(GEO60, Fraction(1, 4)).Z
    assert ps_lim.lo == z_lim.lo and ps_lim.hi == z_lim.hi


def test_power_sum_n1_is_z():
    ps = power_sum(SDM, Fraction(1, 2), 1, 4)
    z = eval_partial(SDM, Fraction(1, 2), 4).Z
    assert ps.lo == z.lo and ps.hi == z.hi


# -- sweeps and divergence ---------------------------------------------

def test_sweep_is_deterministic():
    temps = [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    a = [evaluate(GEO60, T, 10) for T in temps]
    b = [evaluate(GEO60, T, 10) for T in temps]
    assert [(e.Z.lo, e.Z.hi) for e in a] == [(e.Z.lo, e.Z.hi) for e in b]
    # Z grows with temperature
    assert a[0].Z.hi < a[1].Z.lo <= a[1].Z.hi < a[2].Z.lo


def test_divergence_probe_gamma_literal():
    L, Z = divergence_probe("gamma_literal", Fraction(11, 10), 10, 5000)
    assert L == 132  # regression pin; below-threshold certified at L-1
    assert Z.lo.as_fraction() > 10
    L5, _ = divergence_probe("gamma_literal", Fraction(11, 10), 5, 5000)
    assert L5 < L


def test_divergence_probe_guards():
    with pytest.raises(RangeError):
        divergence_probe("gamma_literal", Fraction(1, 2), 10, 100)
    with pytest.raises(RangeError):
        divergence_probe("gamma_literal", Fraction(11, 10), 10**6, 50)


# -- the integer kernel is bit-identical to object-level arithmetic -----

def _round_down(d: Dyadic, n: int) -> Dyadic:
    """Largest dyadic with an n-bit significand that is <= d."""
    excess = abs(d.m).bit_length() - n
    if excess <= 0:
        return d
    return Dyadic(d.m >> excess, d.e + excess)


def _round_up(d: Dyadic, n: int) -> Dyadic:
    """Least dyadic with an n-bit significand that is >= d."""
    excess = abs(d.m).bit_length() - n
    if excess <= 0:
        return d
    return Dyadic(-((-d.m) >> excess), d.e + excess)


def _round_outward(e: Enclosure, n: int) -> Enclosure:
    return Enclosure(_round_down(e.lo, n), _round_up(e.hi, n))


def _reference_chain(T: Fraction, p: int, length: int) -> list:
    """The weight chain built from Enclosure products, as the kernel
    promises to reproduce: entry l = _round_outward(entry(l-1) * entry 1,
    p + 32), entry 1 = exp2(-1/T)."""
    chain = [Enclosure.point(1), exp2_enclosure(Fraction(-1) / T, p)]
    while len(chain) <= length:
        chain.append(_round_outward(chain[-1] * chain[1], p + 32))
    return chain


def _reference_sums(items, T: Fraction, orders, p: int) -> dict:
    chain = _reference_chain(T, p, max(l for l, _ in items))
    sums = {j: Enclosure.point(0) for j in orders}
    for l, count in items:
        q = Fraction(-l) / T
        w = (Enclosure.point(Dyadic(1, q.numerator)) if q.denominator == 1
             else chain[l])
        for j in orders:
            sums[j] = sums[j] + w * (count * l**j)
    return sums


def _round_significand(q: Fraction, n: int, up: bool) -> Dyadic:
    """The dyadic with an n-bit significand next to q > 0 from below, or
    from above."""
    e = q.numerator.bit_length() - q.denominator.bit_length() - n
    while q / Fraction(2) ** e >= 2**n:
        e += 1
    while q / Fraction(2) ** e < 2 ** (n - 1):
        e -= 1
    scaled = q / Fraction(2) ** e
    return Dyadic(ceil(scaled) if up else floor(scaled), e)


def _reference_limit(snap, T: Fraction, orders, p: int) -> dict:
    """On the generating-function path, each moment's closed form in
    Fractions at the two ends of exp2(-1/T) at p + 16 bits, rounded outward
    to p + 32 significant bits; otherwise census sums to the cutoff plus
    [0, tail], each order's tail bounded on its own."""
    if snap.series:
        x = exp2_enclosure(Fraction(-1) / T, p + 16)
        return {j: Enclosure(
            _round_significand(_closed_tail(snap.ensemble_id,
                                            x.lo.as_fraction(), 0, j),
                               p + 32, False),
            _round_significand(_closed_tail(snap.ensemble_id,
                                            x.hi.as_fraction(), 0, j),
                               p + 32, True)) for j in orders}
    L = _census_cutoff(snap, T, p)
    items = [(l, c) for l, c in sorted(snap.census.items()) if l <= L]
    sums = _reference_sums(items, T, orders, p)
    tails = {j: kraft_tail_bounds(snap, L, T, (j,), p)[j]
             for j in orders}
    return {j: sums[j] + Enclosure(Dyadic(0), tails[j]) for j in orders}


def _endpoints(e: Enclosure) -> tuple:
    return e.lo.m, e.lo.e, e.hi.m, e.hi.e


KERNEL_SNAPSHOTS = {kind: builtin_snapshot(kind, 500 if kind == "sdm4" else 240,
                                           program_cap=0)
                    for kind in MACHINES}
# 1/16, 1/3 and 1/2 make every l/T an integer (exact point weights);
# 2/3, 15/16 and 63/64 mix exact points into the rounded chain
KERNEL_TEMPERATURES = [Fraction(1, 16), Fraction(1, 3), Fraction(1, 2),
                       Fraction(2, 3), Fraction(15, 16), Fraction(63, 64)]


@pytest.mark.parametrize("kind", MACHINES)
@pytest.mark.parametrize("p", [64, 200])
def test_kernel_matches_object_reference(kind, p):
    snap = KERNEL_SNAPSHOTS[kind]
    orders = (0, 1, 2)
    for T in KERNEL_TEMPERATURES:
        for k in (1, 5, 37):
            items = snap.length_counts_up_to(k)
            ref = _reference_sums(items, T, orders, p)
            got = moment_sums(items, T, orders, p)
            for j in orders:
                assert _endpoints(got[j]) == _endpoints(ref[j])
            ref_half = _reference_sums(items, T / 2, (0,), p)[0]
            assert (_endpoints(power_sum(snap, T, 2, k, p))
                    == _endpoints(ref_half))
        ref = _reference_limit(snap, T, orders, p)
        got, _ = limit_moments(snap, T, orders, p)
        for j in orders:
            assert _endpoints(got[j]) == _endpoints(ref[j])
        ref_half = _reference_limit(snap, T / 2, (0,), p)[0]
        assert (_endpoints(power_sum(snap, T, 2, "limit", p))
                == _endpoints(ref_half))


def _running_prefixes(groups, T: Fraction, orders, p: int):
    """(k, {j: sum over the first k programs}) for every depth k, from one
    _RunningWalk over groups."""
    walk = _RunningWalk(groups, WeightChain(T, p), orders)
    k = 0
    for _, count in walk:
        for i in range(count):
            yield k + i, {j: walk.at(j, i) for j in orders}
        k += count
    yield k, {j: walk.at(j) for j in orders}


def _first_programs(groups, k: int) -> list:
    """The (length, count) pairs of the first k programs of groups."""
    out = []
    for l, count in groups:
        if k <= 0:
            break
        out.append((l, min(count, k)))
        k -= count
    return out


@pytest.mark.parametrize("kind", MACHINES)
def test_census_walk_prefixes_match_moment_sums(kind):
    # one walk's sums at several depths, some inside a length group, equal
    # moment_sums over each depth's programs bit for bit; so do the running
    # walk's sums at those depths
    snap = KERNEL_SNAPSHOTS[kind]
    depths = [0, 1, 2, 5, 37, 38, 200]
    groups = snap.length_counts_up_to(depths[-1])
    for T in KERNEL_TEMPERATURES:
        walk = CensusWalk(groups, T, 64)
        running = dict(_running_prefixes(groups, T, (0, 1, 2), 64))
        for k, got in zip(depths, walk.sums((0, 1, 2), depths)):
            want = moment_sums(snap.length_counts_up_to(k), T, (0, 1, 2), 64)
            for j in (0, 1, 2):
                assert _endpoints(got[j]) == _endpoints(want[j]), (T, k, j)
                assert (_endpoints(running[k][j])
                        == _endpoints(want[j])), (T, k, j)


def _close_to_inside(encl: Enclosure, value) -> bool:
    """encl contains value up to a relative 2^-290, the rounding of a
    300-bit sum of positive terms."""
    slack = abs(value) * mpmath.mpf(2) ** -290
    return as_mp(encl.lo) - slack <= value <= as_mp(encl.hi) + slack


random_censuses = st.dictionaries(st.integers(0, 40), st.integers(1, 4),
                                  min_size=1, max_size=12)
# below and above 1, with temperatures that make some or every l/T an
# integer (exact point weights) among them
random_temperatures = st.one_of(
    st.sampled_from([Fraction(1, 2), Fraction(2, 3), Fraction(3, 2),
                     Fraction(4, 3)]),
    st.integers(1, 255).map(lambda n: Fraction(n, 256)),
    st.integers(1, 255).map(lambda n: 1 + Fraction(n, 256)))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_censuses, random_temperatures, st.sampled_from([64, 200]))
def test_running_walk_matches_moment_sums_on_random_censuses(census, T, p):
    groups = sorted(census.items())
    orders = (0, 1, 2)
    with mpmath.workprec(300):
        weight = {l: mpmath.power(2, -mpmath.mpf(l * T.denominator)
                                  / T.numerator) for l in census}
        for k, got in _running_prefixes(groups, T, orders, p):
            items = _first_programs(groups, k)
            want = moment_sums(items, T, orders, p)
            for j in orders:
                assert _endpoints(got[j]) == _endpoints(want[j]), (k, j)
                exact = mpmath.fsum(c * l**j * weight[l] for l, c in items)
                assert _close_to_inside(got[j], exact), (k, j)


@st.composite
def random_domains(draw):
    """(census, programs): a census with Kraft sum at most 1, each drawn
    count cut to the Kraft mass the shorter lengths leave, and a
    prefix-free domain with that census: the canonical code of its lengths
    with every word XORed by the same drawn mask's first bits, which keeps
    it prefix-free."""
    wanted = draw(st.dictionaries(st.integers(1, 24), st.integers(1, 40),
                                  min_size=1, max_size=8))
    census, left = {}, Fraction(1)
    for l in sorted(wanted):
        count = min(wanted[l], floor(left * 2**l))
        if count:
            census[l] = count
            left -= Fraction(count, 2**l)
    top = max(census)
    mask = draw(st.integers(0, 2**top - 1))
    words, code, prev = [], 0, min(census)
    for l in sorted(census):
        code <<= l - prev
        prev = l
        for _ in range(census[l]):
            words.append(format(code ^ mask >> top - l, f"0{l}b"))
            code += 1
    programs = sorted(BitString(w) for w in words)
    return census, [ProgramRecord(p, p, 0) for p in programs]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(random_domains(), st.integers(0, 16),
       st.integers(1, 255).map(lambda n: Fraction(n, 256)),
       st.sampled_from([24, 64]))
# the limit's cutoff, 8 here, once fell short of the only length: Z was
# [0, tail] and log2 raised PrecisionError
@example(({9: 1}, [ProgramRecord(BitString("0" * 9), BitString(), 0)]), 0,
         Fraction(1, 256), 24)
def test_finite_domain_truth_is_enclosed(domain, extra, T, p):
    # the domain is all there is, so its exact Z, F, E, S and C are the
    # limit's: the Kraft-slack path on the bare census must contain them,
    # and so must the depth evaluation over every program
    census, programs = domain
    snap = EnsembleSnapshot("random", 0, max(census) + extra, programs,
                            census)
    with mpmath.workprec(300):
        x = mpmath.power(2, -mpmath.mpf(T.denominator) / T.numerator)
        groups = [(l, c, x**l) for l, c in sorted(census.items())]
        Z = mpmath.fsum(c * w for _, c, w in groups)
        E = mpmath.fsum(c * l * w for l, c, w in groups) / Z
        truth = {
            "Z": Z, "F": -T * mpmath.log(Z, 2), "E": E,
            # Gibbs and pair forms: sums of nonnegative terms, exactly 0
            # where the domain has one program or one length
            "S": mpmath.fsum(-c * w / Z * mpmath.log(w / Z, 2)
                             for _, c, w in groups),
            "C": mpmath.log(2) / T**2 * mpmath.fsum(
                ca * cb * wa * wb * (la - lb) ** 2 for la, ca, wa in groups
                for lb, cb, wb in groups) / (2 * Z * Z),
        }
        bare = snap._replace(programs=[])
        for ev in (eval_limit(bare, T, p),
                   eval_partial(snap, T, len(programs), p)):
            for name, value in truth.items():
                assert _close_to_inside(ev.quantity(name), value), (
                    ev.k, name)


def _outcome(f, *args):
    """repr of f(*args), a handle's without its snapshot, or the typed
    error it raises."""
    try:
        out = f(*args)
    except ThermoAITError as exc:
        return type(exc).__name__, str(exc)
    return repr(out._replace(snapshot=None) if isinstance(out, QuantityHandle)
                else out)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(random_domains(), st.integers(0, 8),
       st.integers(1, 255).map(lambda n: Fraction(n, 256)), st.data())
def test_zero_count_lengths_change_nothing(domain, extra, T, data):
    # a zero count holds no program: adding zero-count lengths at or below
    # maxlen changes no enclosure, no relation report and no certificate
    census, _ = domain
    top = max(census) + extra
    zeros = data.draw(st.sets(st.integers(0, top).filter(
        lambda l: l not in census), min_size=1))
    k = data.draw(st.integers(1, sum(census.values())))
    plain = EnsembleSnapshot("random", 0, top, [], census)
    padded = plain._replace(census={**census, **dict.fromkeys(zeros, 0)})
    calls = [(eval_limit, T, 64), (eval_partial, T, k, 64)]
    calls += [(_identities_and_positivity, T, depth, 64)
              for depth in (k, "limit")]
    calls += [(certify, q, T) for q in QUANTITY_CHOICES]
    for f, *args in calls:
        assert _outcome(f, plain, *args) == _outcome(f, padded, *args), f


def test_thermo_has_no_module_level_cache():
    import thermoait.thermo as thermo
    assert [name for name, v in vars(thermo).items()
            if isinstance(v, (dict, list, set)) and not name.startswith("__")
            ] == []


def test_only_thermo_reads_raw_weights():
    # raw weight mantissas are aligned and summed in thermo alone: no other
    # module calls WeightChain.raw or reads CensusWalk's aligned weights
    import thermoait.thermo as thermo
    internals = {"raw", "weights", "e_lo", "e_hi"}
    home = Path(thermo.__file__)
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in sorted(home.parent.glob("*.py")) if path != home
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in internals]
    assert reads == []
