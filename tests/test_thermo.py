"""Partition-function evaluation against closed forms and an independent
high-precision reference.

Closed forms used as oracles:
  geometric:  Z(T) = x/(1-x), E = 1/(1-x), x = 2^(-1/T)
  sdm4:       Z(T) = y/(1 - 2y - 3y^2), y = 2^(-2/T)  (census recurrence)
"""

from fractions import Fraction

import mpmath
import pytest

from thermoait.dyadic import Dyadic
from thermoait.enclosure import (
    Enclosure, exp2_enclosure, round_outward,
)
from thermoait.ensembles import (
    MACHINES, EnsembleSnapshot, builtin_snapshot, load_snapshot, save_snapshot,
)
from thermoait.errors import RangeError, SpecError
from thermoait.thermo import (
    QUANTITIES, _census_cutoff, divergence_probe, eval_limit, eval_partial,
    evaluate, limit_moments, moment_sums, moment_tail_bound, power_sum,
    summed_lengths, sweep,
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
    assert set(ev.tail_bounds) == {"Z", "W", "Y"}
    assert ev.tail_bounds["Z"].as_fraction() < Fraction(1, 2**50)


def test_sdm4_limit_near_critical():
    snap = builtin_snapshot("sdm4", 300, program_cap=0)
    ev = eval_limit(snap, Fraction(9, 10))
    y = mpmath.power(2, mpmath.mpf(-2) / (mpmath.mpf(9) / 10))
    assert contains(ev.Z, y / (1 - 2 * y - 3 * y * y))
    assert ev.Z.width().as_fraction() < Fraction(1, 2**30)


def test_near_critical_sdm4_sums_few_lengths():
    # sdm4's own tail shrinks by about 0.22 bits per length at 63/64; the
    # census slack tail, whose slack never falls below 1/5, shrinks by only
    # 1/63 bit per length and would run to max_length
    snap = builtin_snapshot("sdm4", 1500, program_cap=0)
    T = Fraction(63, 64)
    assert len(summed_lengths(snap, T, "limit", 64)) <= 300
    assert eval_limit(snap, T).Z.width().as_fraction() <= Fraction(1, 2**60)


def test_literal_cutoff_follows_its_decay():
    snap = builtin_snapshot("literal", 1500, program_cap=0)
    assert _census_cutoff(snap, Fraction(7, 8), 4, 64) < 790


def test_limit_tail_bounds_cover_true_tail():
    # geometric exact tail: sum_{l>60} l^j x^l
    T = Fraction(3, 4)
    x = mpmath.power(2, mpmath.mpf(-4) / 3)
    for j in (0, 1, 2):
        true_tail = mpmath.nsum(lambda l: l**j * x**l, [61, mpmath.inf])
        bound = moment_tail_bound(GEO60, 60, T, j)
        assert mpmath.mpf(0) < true_tail <= as_mp(bound)
        assert as_mp(bound) < 4 * true_tail  # not wildly loose


_EULERIAN = [[1], [1], [1, 1], [1, 4, 1], [1, 11, 11, 1]]


def _series(z, j, a):
    """sum_{k>=0} (k + a)^j z^k in closed form, through
    sum_{k>=0} k^i z^k = z A_i(z) / (1 - z)^(i+1) (A_i the Eulerian
    polynomials; 1/(1 - z) for i = 0)."""
    def powers(i):
        if i == 0:
            return 1 / (1 - z)
        return z * mpmath.polyval(_EULERIAN[i][::-1], z) / (1 - z) ** (i + 1)
    return sum(mpmath.binomial(j, i) * mpmath.mpf(a) ** (j - i) * powers(i)
               for i in range(j + 1))


def _closed_tail(kind, x, N, j):
    """sum over lengths l > N of count(l) l^j x^l, from each census's
    closed form."""
    if kind == "geometric":  # one program of each length l >= 1
        return x ** (N + 1) * _series(x, j, N + 1)
    if kind == "literal":  # 2^n programs of length 2n + 1
        n0, q = (N + 1) // 2, 2 * x * x
        return x * 2**j * q**n0 * _series(q, j, n0 + mpmath.mpf(1) / 2)
    # sdm4: (3^n - (-1)^n)/4 programs of length 2n, n >= 1
    n0, y = N // 2 + 1, x * x
    return 2**j / mpmath.mpf(4) * ((3 * y) ** n0 * _series(3 * y, j, n0)
                                    - (-y) ** n0 * _series(-y, j, n0))


def _count(kind, l):
    if kind == "geometric":
        return int(l >= 1)
    if kind == "literal":
        return 2 ** (l // 2) if l % 2 else 0
    return (3 ** (l // 2) - (-1) ** (l // 2)) // 4 if l % 2 == 0 else 0


@pytest.mark.parametrize("kind", ["sdm4", "literal", "geometric"])
def test_census_tail_against_exact_tail(kind):
    # exact tail past L: a direct sum over 60 more lengths plus the closed
    # form past those, which must agree with the closed form past L; the
    # bound must hold it and be at most 8 times it, up to the absolute
    # 2^-(p+32) grid the bound is rounded up to
    snap = builtin_snapshot(kind, 1, program_cap=0)
    with mpmath.workprec(300):
        _check_census_tail(kind, snap)


def _check_census_tail(kind, snap):
    tol = 1 - mpmath.mpf(2) ** -250
    for T in (Fraction(1, 16), Fraction(1, 2), Fraction(7, 8),
              Fraction(63, 64), Fraction(127, 128)):
        x = mpmath.power(2, -mpmath.mpf(T.denominator) / T.numerator)
        for L in (1, 2, 9, 10, 41, 60, 101):
            N = L + 60
            terms = [_count(kind, l) * x**l for l in range(L + 1, N + 1)]
            exact = {}
            for j in range(5):
                exact[j] = _closed_tail(kind, x, N, j) + mpmath.fsum(
                    t * l**j for l, t in enumerate(terms, L + 1))
                assert abs(exact[j] / _closed_tail(kind, x, L, j) - 1) < 2**-250
            for p in (64, 1024):
                bounds = moment_tail_bound(snap, L, T, tuple(exact), p)
                for j, bound in bounds.items():
                    b = as_mp(bound)
                    assert b >= exact[j] * tol, (T, L, p, j)
                    assert b <= 8 * exact[j] + mpmath.mpf(2) ** -(p + 32), \
                        (T, L, p, j)


def test_limit_requires_subcritical_temperature():
    with pytest.raises(RangeError):
        moment_tail_bound(SDM, 200, Fraction(1, 1), 0)


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
    # sdm4 never has; sdm4's tail would claim Z(1/4) < 2^-8 + 2^-16 + 2^-21
    ("sdm4", {2: 1, 4: 1}, Fraction(1, 4), Fraction(2057, 2**19)),
    # {0, 100, 1010, 1011}: the freed mass 1/8 goes to two programs of
    # length 4, which literal never has; its tail would claim Z(1/2) < 0.271
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
    claimed = eval_limit(EnsembleSnapshot(kind, 1, maxlen, [], census,
                                          MACHINES[kind]), T)
    assert claimed.Z.hi.as_fraction() < consistent_Z
    custom = eval_limit(_write_snapshot(tmp_path / "b.snap", "custom",
                                        maxlen, census), T)
    for q in QUANTITIES:
        assert _endpoints(ev.quantity(q)) == _endpoints(custom.quantity(q))
    assert ev.tail_bounds == custom.tail_bounds


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
    a = sweep(GEO60, temps, k=10)
    b = sweep(GEO60, temps, k=10)
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

def _reference_chain(T: Fraction, p: int, length: int) -> list:
    """The weight chain built from Enclosure products, as the kernel
    promises to reproduce: entry l = round_outward(entry(l-1) * entry 1,
    p + 32), entry 1 = exp2(-1/T)."""
    chain = [Enclosure.point(1), exp2_enclosure(Fraction(-1) / T, p)]
    while len(chain) <= length:
        chain.append(round_outward(chain[-1] * chain[1], p + 32))
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


def _reference_limit(snap, T: Fraction, orders, p: int) -> dict:
    """Census sums to the cutoff plus [0, tail], the tail taken over the
    census slack summed as Fractions."""
    L = _census_cutoff(snap, T, 4, p)
    items = [(l, c) for l, c in sorted(snap.census.items()) if l <= L]
    slack = 1 - sum((Fraction(c, 1 << l) for l, c in items), Fraction(0))
    sums = _reference_sums(items, T, orders, p)
    return {j: sums[j] + Enclosure(Dyadic(0),
                                   moment_tail_bound(snap, L, T, j, p, slack))
            for j in orders}


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


def test_thermo_has_no_module_level_cache():
    import thermoait.thermo as thermo
    assert [name for name, v in vars(thermo).items()
            if isinstance(v, (dict, list, set)) and not name.startswith("__")
            ] == []
