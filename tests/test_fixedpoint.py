"""Certified handles: certification, inversion, witnesses, reconstruction."""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import ceil, inf, log2
from unittest import mock

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from thermoait import fixedpoint, thermo
from thermoait.bitstring import BitString, LAMBDA
from thermoait.dyadic import Dyadic
from thermoait.enclosure import (
    Enclosure, bits_prefix, certified_lt, div, ln2_enclosure,
)
from thermoait.ensembles import EnsembleSnapshot, ProgramRecord, builtin_snapshot
from thermoait.errors import (
    CertificationError, InvariantViolation, OracleExhausted, PrecisionError,
    RangeError, SpecError,
)
from thermoait.fixedpoint import (
    QUANTITY_CHOICES, QuantityHandle, approach_oracle, ascending_lower_oracle,
    beta_bits, certify, descending_upper_oracle, reconstruct_T,
    semidecide_above, solve_temperature, witness_search,
)
from thermoait.thermo import eval_limit, eval_partial, limit_moments

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


# -- a handle's values are thermo's ------------------------------------

def _thermo_value(ev, quantity):
    return -ev.F if quantity == "-F" else ev.quantity(quantity)


@pytest.mark.parametrize("snapshot", [
    ("geometric", 300, {}), ("sdm4", 1500, {"program_cap": 512}),
    ("literal", 200, {}), ("gamma_literal", 300, {})], ids=lambda s: s[0])
def test_handle_values_are_thermos_bit_for_bit(snapshot):
    # f and g evaluate as eval_limit and eval_partial do, endpoint for
    # endpoint, S included
    kind, maxlen, options = snapshot
    snap = builtin_snapshot(kind, maxlen, **options)
    xs = (Fraction(9, 16), Fraction(5, 8), Fraction(11, 16), Fraction(3, 4))
    for quantity in fixedpoint.QUANTITY_CHOICES:
        h = certify(snap, quantity, HALF)
        for x in xs:
            for p in (64, 128):
                got, want = h.f(x, p), _thermo_value(eval_limit(snap, x, p),
                                                     quantity)
                assert (got.lo, got.hi) == (want.lo, want.hi), (quantity, x, p)
            for k in (h.k0, h.k0 + 5, 40):
                got = h.g(x, k)
                want = _thermo_value(
                    eval_partial(snap, x, k, h.precision_bits), quantity)
                assert (got.lo, got.hi) == (want.lo, want.hi), (quantity, x, k)


def test_handles_read_temperatures_as_thermo_does(handles):
    # a Dyadic, a string and a Fraction name one temperature alike
    forms = (Dyadic(5, -3), "5/8", Fraction(5, 8))
    for h in handles.values():
        f = {(v.lo, v.hi) for v in (h.f(x) for x in forms)}
        g = {(v.lo, v.hi) for v in (h.g(x, 12) for x in forms)}
        assert len(f) == len(g) == 1
        answers = {semidecide_above(h, x, descending_upper_oracle(h), 64)
                   for x in forms}
        assert len(answers) == 1
        with pytest.raises(SpecError):
            h.g(HALF, 0)


# -- the increment re-check --------------------------------------------

RECHECK_SNAPSHOTS = {
    "geometric 300": builtin_snapshot("geometric", 300),
    "sdm4 1500 cap 512": builtin_snapshot("sdm4", 1500, program_cap=512),
}
CERTIFICATE_SNAPSHOTS = {
    **{f"geometric {n}": (lambda n=n: builtin_snapshot("geometric", n))
       for n in (80, 300, 600)},
    "sdm4 200 cap 64": lambda: builtin_snapshot("sdm4", 200, program_cap=64),
    "sdm4 1500 cap 512": lambda: RECHECK_SNAPSHOTS["sdm4 1500 cap 512"],
    "sdm4 1500": lambda: builtin_snapshot("sdm4", 1500),
    "literal 40": lambda: builtin_snapshot("literal", 40),
    "gamma_literal 40": lambda: builtin_snapshot("gamma_literal", 40),
}
TEMPERATURES = tuple(Fraction(n, 8) for n in (2, 3, 4, 5, 6))

# certify's CertificationError messages
NO_INDEX = "no enumerated index satisfies the certificate precondition"
_GEOMETRIC = {
    "Z": [(1, 4, 4, 0, 0), (1, 3, 3, 0, 0), (1, 2, 2, 0, 0), (1, 2, 2, 0, 0),
          (1, 1, 2, 0, 0)],
    "-F": [(5, 1, 2, 1, 0), (3, 1, 1, 1, 0), (2, 1, 1, 1, 0), (2, 1, 1, 1, 0),
           (2, 1, 1, 1, 0)],
    "E": [(7, 9, 4, 2, 1), (3, 6, 2, 2, 1), (2, 5, 3, 2, 1), (2, 5, 3, 2, 1),
          (3, 4, 2, 2, 1)],
    "S": [(7, 11, 3, 3, 1), (3, 8, 2, 3, 1), (2, 6, 3, 3, 1), (2, 5, 3, 3, 1),
          (3, 5, 2, 3, 1)],
}
_SDM4 = {
    "Z": [(1, 3, 7, 0, 0), (1, 2, 4, 0, 0), (1, 2, 3, 0, 0), (1, 2, 3, 0, 0),
          (1, 2, 2, 0, 0)],
    "-F": [(3323601794869687910973, 1, 4, 1, 0), (22143, 2, 2, 1, 0),
           (91, 2, 1, 1, 0), (30, 2, 0, 1, 0), (10, 3, 0, 1, 0)],
    "E": [(429210477536564060582231136160, 13, 7, 2, 1), (22143, 10, 3, 2, 1),
          (10, 8, 1, 2, 1), (3, 8, 2, 2, 1), (10, 8, 0, 2, 1)],
    "S": [(429210477536564060582231136160, 15, 7, 3, 1), (22143, 11, 2, 3, 1),
          (10, 9, 1, 3, 1), (3, 8, 1, 3, 1), (10, 8, 0, 3, 1)],
}
# (k0, a, a_lower, b, c), or the message of the CertificationError certify
# raises, per snapshot, quantity and T in TEMPERATURES: 160 handles.  The
# pair-form capacity bound made E and S certify at the 26 handles where
# its interval hull raised, and left 38 with a smaller a_lower.  Bounding
# the capacity at every depth, not at k0 alone, raised a_lower by one at
# geometric S 1/2 and sdm4 E 5/8 and S 1/2; with no depth cap, sdm4 at 1/4
# finds its k0 past 2^20 programs, where it raised NO_INDEX
PINNED_CERTIFICATES = {
    "geometric 80": _GEOMETRIC,
    "geometric 300": _GEOMETRIC,
    "geometric 600": _GEOMETRIC,
    "sdm4 200 cap 64": _SDM4,
    "sdm4 1500 cap 512": _SDM4,
    "sdm4 1500": _SDM4,
    "literal 40": {
        "Z": [(1, 3, 4, 0, 0), (1, 3, 3, 0, 0), (1, 2, 2, 0, 0),
              (1, 2, 2, 0, 0), (1, 2, 2, 0, 0)],
        "-F": [(7, 1, 4, 1, 0), (3, 1, 2, 1, 0), (2, 1, 2, 1, 0),
               (2, 2, 2, 1, 0), (2, 2, 1, 1, 0)],
        "E": [(15, 9, 5, 2, 1), (3, 7, 2, 2, 1), (2, 6, 2, 2, 1),
              (3, 5, 1, 2, 1), (3, 5, 1, 2, 1)],
        "S": [(15, 11, 5, 3, 1), (3, 8, 2, 3, 1), (2, 7, 2, 3, 1),
              (3, 6, 1, 3, 1), (3, 6, 1, 3, 1)],
    },
    "gamma_literal 40": {
        "Z": [(1, 3, 7, 0, 0), (1, 3, 4, 0, 0), (1, 2, 3, 0, 0),
              (1, 2, 3, 0, 0), (1, 2, 2, 0, 0)],
        "-F": [NO_INDEX, (32766, 2, 0, 1, 0), (126, 2, 0, 1, 0),
               (14, 2, 0, 1, 0), (14, 2, 0, 1, 0)],
        "E": [NO_INDEX, (16382, 10, 4, 2, 1), (14, 8, 1, 2, 1),
              (3, 8, 3, 2, 1), (6, 8, 1, 2, 1)],
        "S": [NO_INDEX, (16382, 11, 3, 3, 1), (14, 9, 1, 3, 1),
              (3, 8, 3, 3, 1), (6, 8, 1, 3, 1)],
    },
}


@pytest.mark.parametrize("snapshot", sorted(PINNED_CERTIFICATES))
def test_certificates_are_pinned(snapshot):
    snap = CERTIFICATE_SNAPSHOTS[snapshot]()
    for quantity, expected in PINNED_CERTIFICATES[snapshot].items():
        for T, want in zip(TEMPERATURES, expected):
            if isinstance(want, tuple):
                h = certify(snap, quantity, T)
                assert (h.k0, h.a, h.a_lower, h.b, h.c) == want, (quantity, T)
            else:
                with pytest.raises(CertificationError) as raised:
                    certify(snap, quantity, T)
                assert str(raised.value) == want.format(T=T, t=(T + 1) / 2)


def _outcome(snap, quantity, T):
    """The certificate's constants, or the error certify raises."""
    try:
        h = certify(snap, quantity, T)
    except (CertificationError, PrecisionError) as exc:
        return type(exc), str(exc)
    return h.k0, h.a, h.a_lower, h.b, h.c


def test_the_record_count_is_not_an_input():
    # certify checks the census, every one of its programs, so however many
    # program records a snapshot stores, every outcome is the same
    for machine, maxlen, caps in (("sdm4", 200, (0, 64, 512)),
                                  ("sdm4", 1500, (0, 64, 512)),
                                  ("gamma_literal", 40, (0,)),
                                  ("literal", 40, (0,))):
        snaps = [builtin_snapshot(machine, maxlen)] + [
            builtin_snapshot(machine, maxlen, program_cap=cap) for cap in caps]
        outcomes = [[_outcome(snap, quantity, T)
                     for quantity in fixedpoint.QUANTITY_CHOICES
                     for T in TEMPERATURES] for snap in snaps]
        assert all(o == outcomes[0] for o in outcomes[1:]), (machine, maxlen)


def test_verify_needs_a_census_depth_past_k0():
    # certify's k0 lies below the census's check depth, so only a hand-made
    # handle reaches this guard
    h = certify(CERTIFICATE_SNAPSHOTS["geometric 80"](), "E", HALF)
    with pytest.raises(CertificationError) as raised:
        _verify(h._replace(k0=80))
    assert str(raised.value) == ("census check depth 80 is not beyond k0 = 80;"
                                 " nothing to verify")


# the programs the reference takes one at a time; past them it takes each
# length group's first and last checked program
PER_PROGRAM = 512


def _census_total(snapshot):
    return sum(snapshot.census.values())


def _reference_increments(h, per_program=PER_PROGRAM):
    """(k, l, w, increment) in Enclosures for k0 <= k < the census total,
    every depth the census holds, as the re-check did before it walked length
    groups: log2(1 + q) is bracketed by [q - q^2/2, q] / ln 2.  Each k
    below per_program is taken; past it, each group's first and last
    checked k, where the upper and the lower bound bind, with Z_k = Z_K + i
    w and W_k = W_K + i w l from the exact sums over the K programs before
    the group."""
    p = h.precision_bits
    Tq = Enclosure.from_rational(h.T, p)
    weights = thermo.WeightChain(h.T, p)
    Z = W = Enclosure.point(0)
    K, out = 0, []
    for l, count in h.snapshot.length_counts_up_to(_census_total(h.snapshot)):
        w = weights[l]
        checked = range(max(h.k0 - K, 0), count)
        each = checked[:max(per_program - K, 0)]
        rest = checked[len(each):]
        for i in [*each, *sorted({rest[0], rest[-1]} if rest else ())]:
            Zk, Wk = Z + w * i, W + w * (i * l)
            if h.quantity == "Z":
                delta = w
            else:
                q = div(w, Zk, p)
                ln1p = Enclosure(q.lo - (q.lo * q.lo).scale2(-1), q.hi)
                dlog = div(ln1p, ln2_enclosure(p), p)
                dE = div((Zk * l - Wk) * w, (Zk + w) * Zk, p)
                delta = {"-F": Tq * dlog, "E": dE,
                         "S": div(dE, Tq, p) + dlog}[h.quantity]
            out.append((K + i, l, w, delta))
        Z, W, K = Z + w * count, W + w * (count * l), K + count
    return out


def _reference_checks(h, increments):
    """certified_lt of (lower, increment) and of (increment, upper) at
    each increment in turn."""
    for k, l, w, delta in increments:
        power = lambda j: (l**j if j >= 0 else Enclosure.from_rational(
            Fraction(1, l**-j), h.precision_bits))
        lower = (w * power(h.c)).scale2(-h.b)
        upper = (w * power(h.b)).scale2(h.c)
        yield certified_lt(lower, delta), certified_lt(delta, upper)


def _reference_outcome(h, increments):
    """(verdict, first): None, CertificationError or PrecisionError, from
    the first increment whose bracket is not certified, and the first depth
    at which the reference falsifies a bound, or None."""
    verdict = None
    for (k, *_), oks in zip(increments, _reference_checks(h, increments)):
        if verdict is None and oks != (True, True):
            verdict = CertificationError if False in oks else PrecisionError
        if False in oks:
            return verdict, k
    return verdict, None


def _verify(h):
    fixedpoint._verify_certificate(h)


def _verdict(h):
    try:
        _verify(h)
    except (CertificationError, PrecisionError) as exc:
        return type(exc)
    return None


# the shifts (db, dc) of a certificate's (b, c) that the re-check tests try
SHIFTS = [(db, dc) for db in (-2, -1, 0, 1) for dc in (-1, 0, 1, 2)]


def _reference_outcomes(h, increments):
    """{(db, dc): _reference_outcome} of h with its (b, c) shifted by each
    of SHIFTS."""
    return {(db, dc): _reference_outcome(h._replace(b=h.b + db, c=h.c + dc),
                                         increments) for db, dc in SHIFTS}


@pytest.fixture(scope="module")
def recheck_handles():
    """(name, handle, its _reference_increments, its _reference_outcomes)."""
    handles = [(name, certify(snap, quantity, T))
               for name, snap in RECHECK_SNAPSHOTS.items()
               for quantity in ("-F", "E", "S") for T in TEMPERATURES[2:]]
    out = []
    for name, h in handles:
        increments = _reference_increments(h)
        out.append((name, h, increments, _reference_outcomes(h, increments)))
    return out


def test_recheck_matches_the_per_program_reference(recheck_handles,
                                                   monkeypatch):
    # only the increment check differs between the two; no slope samples
    monkeypatch.setattr(fixedpoint, "SLOPE_SAMPLES", 0)
    assert len(recheck_handles) == 18
    verdicts = set()
    for name, h, _, outcomes in recheck_handles:
        for (db, dc), (want, _) in outcomes.items():
            mutated = h._replace(b=h.b + db, c=h.c + dc)
            assert _verdict(mutated) is want, (name, h.quantity, h.T, db, dc)
            verdicts.add(want)
    assert verdicts == {None, CertificationError}


def test_recheck_binds_each_bound_at_its_group_extreme(monkeypatch):
    # "00" then six programs of length 3: at T = 1/2 the group more than
    # doubles Z, so the -F, E and S increments fall by factors of about 2,
    # 4.5 and 2.2 across it, and many of the brackets 3^c 2^-b w and
    # 3^b 2^c w hold at one end of the group and fail at the other; a
    # falsified bound is named at the reference's first falsified depth,
    # which for a lower bound lies inside the group (k = 2 to 5) too
    monkeypatch.setattr(fixedpoint, "SLOPE_SAMPLES", 0)
    programs = [ProgramRecord(BitString(s), BitString(""), 0)
                for s in ("00", "010", "011", "100", "101", "110", "111")]
    snap = EnsembleSnapshot("two groups", 0, 3, programs, {2: 1, 3: 6})
    verdicts, inside = Counter(), 0
    for quantity in ("-F", "E", "S"):
        h = QuantityHandle(snap, quantity, HALF, Fraction(3, 4), 0, 0, 0, 0,
                           1, 64)
        increments = _reference_increments(h)
        for b in range(-1, 6):
            for c in range(-1, 6):
                mutated = h._replace(b=b, c=c)
                # within one group a bound falsified anywhere outranks one
                # left unresolved elsewhere
                pairs = list(_reference_checks(mutated, increments))
                checks = [ok for pair in pairs for ok in pair]
                want = (CertificationError if False in checks
                        else PrecisionError if None in checks else None)
                got, k = _first_failure(mutated)
                assert got is want, (quantity, b, c)
                if want is CertificationError:
                    first = next(k for (k, *_), pair in zip(increments, pairs)
                                 if False in pair)
                    assert k == first, (quantity, b, c)
                    inside += 1 < k < 6
                verdicts[want] += 1
        with pytest.raises(PrecisionError, match="k=0"):  # Z_0 = 0
            _verify(h._replace(k0=0))
    assert verdicts[None] and verdicts[CertificationError] and inside


def test_recheck_falsifies_a_doubled_lower_bound(recheck_handles):
    # the least shift of c that the reference falsifies: 2 for every
    # handle.  sdm4 cap 512 S at 1/2 read 3 while the check stopped at its
    # 273 records: at c + 2 its lower bound holds over the 263 increments
    # they give and fails from k = 273 on, at the first program of length 14
    least = {}
    for name, h, increments, _ in recheck_handles:
        dc = 2
        while _reference_outcome(h._replace(c=h.c + dc),
                                 increments)[0] is None:
            dc += 1
        assert _reference_outcome(h._replace(c=h.c + dc),
                                  increments)[0] is CertificationError
        with pytest.raises(CertificationError,
                           match="increment bound falsified"):
            _verify(h._replace(c=h.c + dc))
        least[name, h.quantity, h.T] = dc
    assert least == dict.fromkeys(least, 2)


def _first_failure(h):
    """(error type, k named in its message), or (None, None)."""
    try:
        _verify(h)
    except (CertificationError, PrecisionError) as exc:
        return type(exc), int(str(exc).split("k=")[1].split(",")[0])
    return None, None


def test_recheck_Z_is_the_stated_inequality(monkeypatch):
    # the increment of Z is w itself, so its bracket is l^c 2^-b <= 1 <=
    # l^b 2^c, decided at the shortest and longest checked lengths; the
    # message names the reference's first failing increment, from the
    # exact point weights at T = 1/2
    monkeypatch.setattr(fixedpoint, "SLOPE_SAMPLES", 0)
    outcomes = Counter()
    for name, snap in RECHECK_SNAPSHOTS.items():
        h = certify(snap, "Z", HALF)
        increments = _reference_increments(h)
        for b in range(-2, 3):
            for c in range(-2, 3):
                want = None, None
                for k, l, w, delta in increments:
                    assert w.lo == w.hi == delta.lo == delta.hi
                    w = w.lo.as_fraction()
                    if not (Fraction(l) ** c * w / Fraction(2) ** b <= w
                            <= Fraction(l) ** b * w * Fraction(2) ** c):
                        want = CertificationError, k
                        break
                got = _first_failure(h._replace(b=b, c=c))
                assert got == want, (name, b, c)
                outcomes[want[0]] += 1
    assert outcomes[None] and outcomes[CertificationError]


# -- the closed argument past the walk ---------------------------------

def _argument_inputs(h, K):
    """(Z_K, l) for _increments_close at depth K: the lower end of the
    exact sum over the first K programs and the length of program K + 1,
    or past the census the last census length + 1, each computed on its
    own."""
    Z_K = thermo.moment_sums(h.snapshot.length_counts_up_to(K), h.T, (0,),
                             h.precision_bits)[0].lo
    if K == _census_total(h.snapshot):
        return Z_K, max(h.snapshot.census) + 1
    return Z_K, h.snapshot.length_counts_up_to(K + 1)[-1][0]


def _reference_increment_bounds(h, limit, Z_K):
    """(alpha, beta, gamma, delta): _increment_bounds as its docstring
    states it, in Fractions; per unit of weight every increment at a depth
    >= K lies in [alpha l + beta, gamma l + delta]."""
    T, Z_K = h.T, Z_K.as_fraction()
    ln2 = ln2_enclosure(h.precision_bits)
    Z_lim = limit[0].hi.as_fraction()
    dlog_lo = 1 / (Z_lim * ln2.hi.as_fraction())
    dlog_hi = 1 / (Z_K * ln2.lo.as_fraction())
    if h.quantity == "-F":
        return Fraction(0), T * dlog_lo, Fraction(0), T * dlog_hi
    W_lim = limit[1].hi.as_fraction()
    alpha, beta = Z_K / (Z_lim * Z_lim), -W_lim / (Z_lim * Z_lim)
    if h.quantity == "E":
        return alpha, beta, 1 / Z_K, Fraction(0)
    return alpha / T, beta / T + dlog_lo, 1 / (Z_K * T), dlog_hi


def _reference_increments_close(h, limit, Z_K, l):
    """_increments_close's four inequalities, in Fractions."""
    b, c = h.b, h.c
    if b < 1 or c > 1:
        return False
    alpha, beta, gamma, delta = _reference_increment_bounds(h, limit, Z_K)
    two, l = Fraction(2), Fraction(l)
    return (l ** c / two ** b <= alpha * l + beta
            and c * l ** (c - 1) / two ** b <= alpha
            and gamma * l + delta <= l ** b * two ** c
            and gamma <= b * l ** (b - 1) * two ** c)


def _closes_only_where_sound(h, depths, increments=None, outcomes=None):
    """At each depth K (ascending): check that _increment_bounds are the
    Fraction reference's and that no reference increment at a depth >= K
    certifiably leaves them, and try the argument for each of SHIFTS of h's
    (b, c): it decides as the Fraction reference does, and must not close
    where the reference falsifies a bound at a depth >= K.  The bounds
    tighten as Z_K grows, so each increment is checked against those of the
    last K at or below it.  Returns how often the argument closed, and how
    often it was tried at or before a falsified depth.  increments and
    outcomes are h's _reference_increments and _reference_outcomes, if the
    caller holds them."""
    limit = limit_moments(h.snapshot, h.T, (0, 1), h.precision_bits)[0]
    increments = increments or _reference_increments(h)
    outcomes = outcomes or _reference_outcomes(h, increments)
    firsts = [(h._replace(b=h.b + db, c=h.c + dc), first)
              for (db, dc), (_, first) in outcomes.items()]
    closed = guarded = 0
    for K, K_next in zip(depths, [*depths[1:], None]):
        args = _argument_inputs(h, K)
        alpha, beta, gamma, delta = _reference_increment_bounds(
            h, limit, args[0])
        (A, B, P), (G, H, Q) = fixedpoint._increment_bounds(h, limit,
                                                            args[0])
        assert [u.as_fraction() / d.as_fraction() for u, d in
                ((A, P), (B, P), (G, Q), (H, Q))] == [alpha, beta, gamma,
                                                      delta], K
        for k, l, w, d in increments:
            if K <= k and (K_next is None or k < K_next):
                lower, upper = alpha * l + beta, gamma * l + delta
                w_lo, w_hi = w.lo.as_fraction(), w.hi.as_fraction()
                assert d.hi.as_fraction() >= lower * (w_lo if lower >= 0
                                                      else w_hi), (K, k)
                assert d.lo.as_fraction() <= upper * w_hi, (K, k)
        for m, bad in firsts:
            closes = fixedpoint._increments_close(m, limit, *args)
            assert closes == _reference_increments_close(m, limit, *args)
            if bad is not None and K <= bad:
                assert not closes, (h.snapshot.ensemble_id, h.quantity, h.T,
                                    m.b, m.c, K, bad)
                guarded += 1
            closed += closes
    return closed, guarded


def test_argument_closes_only_where_no_later_bound_fails(recheck_handles):
    # at the depths k0 to k0 + 7, at 2 k0 + 1 to 2 k0 + 3, where the walk
    # at T of a series snapshot ends, and at each power of two up to 2^12,
    # for the 16 shifts of each re-checked certificate
    closed = guarded = 0
    for name, h, increments, outcomes in recheck_handles:
        depths = sorted(K for K in {*range(h.k0, h.k0 + 8),
                                    *range(2 * h.k0 + 1, 2 * h.k0 + 4),
                                    *(1 << i for i in range(13))}
                        if h.k0 <= K < _census_total(h.snapshot))
        c, g = _closes_only_where_sound(h, depths, increments, outcomes)
        closed, guarded = closed + c, guarded + g
    assert closed and guarded


# anonymous censuses: one shortest program, so that most certify, and up
# to six longer lengths (_anonymous_snapshot keeps the valid ones)
ANONYMOUS_CENSUSES = {
    "first": st.integers(1, 3),
    "later": st.dictionaries(st.integers(4, 40), st.integers(1, 20),
                             min_size=1, max_size=6)}


def _anonymous_snapshot(first, later):
    """The census {first: 1, **later}, if its Kraft sum is at most 1, as a
    snapshot whose limits carry the census slack's tail."""
    census = {first: 1, **later}
    assume(sum(Fraction(c, 1 << l) for l, c in census.items()) <= 1)
    return EnsembleSnapshot("anonymous", 0, max(census), [], census)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**ANONYMOUS_CENSUSES, quantity=st.sampled_from(("-F", "E", "S")),
       T=st.sampled_from(TEMPERATURES))
def test_argument_is_sound_on_anonymous_censuses(first, later, quantity, T):
    # at every depth from k0 on, the census end included, for all 16 shifts
    snap = _anonymous_snapshot(first, later)
    try:
        h = certify(snap, quantity, T)
    except CertificationError:
        return
    _closes_only_where_sound(h, list(range(h.k0, _census_total(snap) + 1)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**ANONYMOUS_CENSUSES, b=st.integers(-2, 2), c=st.integers(-2, 2))
def test_recheck_Z_is_the_stated_inequality_on_anonymous_censuses(first,
                                                                  later, b, c):
    # the re-check's integer l^c 2^-b <= 1 <= l^b 2^c decides as the
    # Fractions do; past the census it needs c <= 0 <= b, unless no program
    # can follow the census
    snap = _anonymous_snapshot(first, later)
    h = certify(snap, "Z", HALF)._replace(b=b, c=c)
    want = None, None
    for k, l, _, _ in _reference_increments(h):
        if not (Fraction(l) ** c / Fraction(2) ** b <= 1
                <= Fraction(l) ** b * Fraction(2) ** c):
            want = CertificationError, k
            break
    else:
        if (c > 0 or b < 0) and not fixedpoint._census_is_the_domain(snap):
            want = CertificationError, _census_total(snap)
    assert _first_failure(h) == want


# (machine, a short maxlen, a longer one)
TRUNCATED = (("sdm4", 12, 60), ("literal", 9, 41), ("geometric", 8, 80),
             ("gamma_literal", 12, 40))


def test_brackets_argued_past_the_census_hold_on_a_longer_one(monkeypatch):
    # each certificate of a short census, and each of its 16 shifts, that
    # the re-check accepts holds at every depth of a longer census of the
    # same machine, past the short census's end too, which only the
    # argument covered (the reference takes each of the first 32 programs,
    # then each group's extremes, where the bounds bind)
    monkeypatch.setattr(fixedpoint, "SLOPE_SAMPLES", 0)
    accepted = 0
    for machine, short, long in TRUNCATED:
        snap = builtin_snapshot(machine, short, program_cap=0)
        longer = builtin_snapshot(machine, long, program_cap=0)
        for quantity in ("-F", "E", "S"):
            for T in TEMPERATURES:
                try:
                    h = certify(snap, quantity, T)
                except CertificationError:
                    continue  # NO_INDEX
                increments = _reference_increments(
                    h._replace(snapshot=longer), 32)
                for db, dc in SHIFTS:
                    mutated = h._replace(b=h.b + db, c=h.c + dc)
                    if _verdict(mutated) is None:
                        assert _reference_outcome(
                            mutated._replace(snapshot=longer),
                            increments) == (None, None), (machine, quantity,
                                                          T, db, dc)
                        accepted += 1
    assert accepted == 186


def test_a_bound_that_fails_past_the_walk_still_raises(recheck_handles):
    # the argument is tried at the slope reach K, where the walk at T ends;
    # a shifted bound that the reference first falsifies at or past K is
    # found by the groups the re-check goes on to, and the error names the
    # reference's depth: where a lower bound fails across a group, its first
    # falsified program, not the group's last, where the bound binds; 28 of
    # them on sdm4 1500 cap 512, whose groups hold many programs
    late = 0
    for name, h, _, outcomes in recheck_handles:
        groups = h.snapshot.groups()
        K = sum(count for _, count in fixedpoint._slope_reach(groups, h.k0))
        for (db, dc), (_, bad) in outcomes.items():
            mutated = h._replace(b=h.b + db, c=h.c + dc)
            if bad is not None and bad >= K:
                assert _first_failure(mutated) == (CertificationError, bad)
                late += 1
    assert late == 49


def test_a_bracket_unproved_past_the_census_raises(monkeypatch):
    # brackets that hold at every census program but that nothing proves
    # past the census: -F with c = 2, where the argument declines, and Z
    # with c = 1, whose lower bound l 2^-3 passes 1 at length 9.  On a
    # census with Kraft sum 7/8 a program of any greater length may follow;
    # one more program of length 3 completes the code and none can
    monkeypatch.setattr(fixedpoint, "SLOPE_SAMPLES", 0)
    unproved = ("increment bound unproved at k=6, past the census's last "
                "length 3")
    for census, want in (({2: 1, 3: 5}, unproved), ({2: 1, 3: 6}, None)):
        snap = EnsembleSnapshot("anonymous", 0, 3, [], census)
        for quantity, b, c in (("-F", 5, 2), ("Z", 3, 1)):
            h = QuantityHandle(snap, quantity, HALF, Fraction(3, 4), 0, 0, b,
                               c, 1, 64)
            assert _reference_outcome(h, _reference_increments(h)) == (
                None, None)
            try:
                _verify(h)
                got = None
            except CertificationError as exc:
                got = str(exc)
            assert got == want, (census, quantity)


def test_an_over_full_census_raises_a_typed_error():
    # Kraft sum 1/2 + 1/64 + 990/1024 > 1: no prefix-free domain has this
    # census, and its Kraft slack is negative; a snapshot is not built from
    # it, however it is built, so no limit or certificate reads it
    with pytest.raises(InvariantViolation, match="Kraft"):
        EnsembleSnapshot("over-full", 0, 10, [], {1: 1, 6: 1, 10: 990})
    # over-full only past the cutoff (13 at T = 1/8), which the tail bound
    # must not take as slack: the census sum 2^-8 + 2^-62 would lie outside
    # the Z it gave
    with pytest.raises(InvariantViolation, match="Kraft"):
        EnsembleSnapshot("over-full past L", 0, 14, [], {1: 1, 14: 2**50})


def test_recheck_and_reconstruct_errors_name_the_precision():
    # the re-check's unresolved bound: -F on "00" and six programs of
    # length 3 at T = 1/2, with b = c = 4
    programs = [ProgramRecord(BitString(s), BitString(""), 0)
                for s in ("00", "010", "011", "100", "101", "110", "111")]
    snap = EnsembleSnapshot("two groups", 0, 3, programs, {2: 1, 3: 6})
    h = QuantityHandle(snap, "-F", HALF, Fraction(3, 4), 0, 0, 4, 4, 1, 64)
    with pytest.raises(PrecisionError) as raised:
        _verify(h)
    assert str(raised.value) == ("increment bound unresolved at k=6, with 64 "
                                 "bits of working precision; raise precision")
    # reconstruct's beta: gamma_literal 40's Kraft-slack tail leaves its
    # second moment at u = 859/1024 in [10.78, 11.01]
    h = certify(CERTIFICATE_SNAPSHOTS["gamma_literal 40"](), "E", HALF)
    u, n = Fraction(859, 1024), 8
    with pytest.raises(PrecisionError) as raised:
        reconstruct_T(h, u, n, BitString("0" * 5), approach_oracle(h),
                      ascending_lower_oracle(h))
    assert str(raised.value) == ("integer part of beta unresolved at 64 bits "
                                 "of working precision")


# -- the heat-capacity bound -------------------------------------------

CAPACITY_SNAPSHOTS = ("geometric 300", "literal 40", "sdm4 1500 cap 512",
                      "gamma_literal 40")
# one program of length 6 and 1000 of length 10: from T = 1/2 on, most of
# Z sits at length 10 and gathers there as x grows, so the variance of
# the length, and C, fall across the window
TOP_HEAVY = EnsembleSnapshot("top-heavy", 0, 10, [], {6: 1, 10: 1000})


def _Z_limit(snapshot, t, p=64):
    """The limit of Z at t, as certify hands it to the capacity bound."""
    return thermo.moments(snapshot, t, "limit", (0,), p)[0]


def _capacity_cases(monkeypatch):
    """(snapshot, k0, T, t) for every k0 at which certify bounds C for E
    and S on CAPACITY_SNAPSHOTS at TEMPERATURES, and TOP_HEAVY at 1/2, 5/8
    and 3/4 at its 1000th program."""
    cases = {}
    bound = fixedpoint._min_capacity_on_window

    def recorded(snapshot, k0, T, t, *rest):
        cases[snapshot.ensemble_id, k0, T] = snapshot, k0, T, t
        return bound(snapshot, k0, T, t, *rest)

    monkeypatch.setattr(fixedpoint, "_min_capacity_on_window", recorded)
    for name in CAPACITY_SNAPSHOTS:
        snap = CERTIFICATE_SNAPSHOTS[name]()
        for T in TEMPERATURES:
            for quantity in ("E", "S"):
                try:
                    certify(snap, quantity, T)
                except CertificationError:
                    pass  # NO_INDEX, before the bound
    monkeypatch.undo()
    assert len(cases) == 19
    return [*cases.values(), *((TOP_HEAVY, 1000, T, (T + 1) / 2)
                               for T in TEMPERATURES[2:])]


def test_capacity_bound_is_below_the_exact_capacity(monkeypatch):
    # at k0 and k0 +- 1, on the certificate's window at 64 bits, and on a
    # window 2^-30 wide at 8 bits, where the pieces leave no slack and
    # only the choice of weight ends keeps the bound sound
    for snap, k0, T, t in _capacity_cases(monkeypatch):
        for t, p in ((t, 64), (T + Fraction(1, 1 << 30), 8)):
            bounds, prefixes = {}, {}
            for k in (k0 - 1, k0, k0 + 1):
                groups = snap.length_counts_up_to(k)
                try:
                    bounds[k] = fixedpoint._min_capacity_on_window(
                        snap, k, T, t, p, {}, _Z_limit(snap, t, p))
                except CertificationError:  # P = 0: a single length
                    assert len(groups) == 1
                    continue
                prefixes[k] = groups
            with mpmath.workprec(256):
                for i in range(64):
                    x = T + (t - T) * Fraction(i, 63)
                    x = mpmath.mpf(x.numerator) / x.denominator
                    weight = {l: mpmath.mpf(2) ** (-l / x)
                              for l, _ in prefixes[max(prefixes)]}
                    for k, groups in prefixes.items():
                        w = [c * weight[l] for l, c in groups]
                        Z = mpmath.fsum(w)
                        W = mpmath.fsum(l * v for (l, _), v in zip(groups, w))
                        Y = mpmath.fsum(l * l * v
                                        for (l, _), v in zip(groups, w))
                        C = mpmath.ln(2) * (Z * Y - W * W) / (x * x * Z * Z)
                        b = bounds[k]
                        assert mpmath.ldexp(b.m, b.e) <= C, (
                            snap.ensemble_id, k, T, t, p, i)


def test_capacity_bound_holds_where_depth_lowers_the_capacity():
    # TOP_HEAVY's first k0 programs hold one of length 6 and k0 - 1 of
    # length 10; its other programs of length 10 gather the weight there,
    # so from T = 5/8 on C_1001 falls below C_k0 at k0 = 64 and 257 (a
    # bound on C_k0 alone read 1.60 at k0 = 64 and T = 5/8, where C_1001
    # is 0.48); the bound at k0 holds at depths up to the census end
    for k0 in (2, 64, 257):
        depths = {k0, k0 + 1, 2 * k0 + 2, *range(k0, 1001, 50), 1001}
        for T in TEMPERATURES:
            t = (T + 1) / 2
            b = fixedpoint._min_capacity_on_window(TOP_HEAVY, k0, T, t, 64,
                                                   {}, _Z_limit(TOP_HEAVY, t))
            ranges = _slope_ranges(TOP_HEAVY, T, t, depths)
            assert all(mpmath.ldexp(b.m, b.e) <= ranges[k, "E"][0]
                       for k in depths), (k0, T)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(census=st.dictionaries(st.integers(1, 40), st.integers(1, 50),
                              min_size=1, max_size=6),
       T=st.sampled_from(TEMPERATURES), p=st.sampled_from((8, 64)))
def test_pair_form_of_the_lower_sums(census, T, p):
    # Z Y - W^2 of the exact lower-endpoint sums is the Lagrange pair sum
    # 1/2 sum_a sum_b c_a c_b w_a w_b (l_a - l_b)^2 at the lower weights
    groups = sorted(census.items())
    Z, W, Y = (s.lo.as_fraction() for s in thermo.moment_sums(
        groups, T, (0, 1, 2), p).values())
    chain = thermo.WeightChain(T, p)
    w = {l: chain[l].lo.as_fraction() for l in census}
    pairs = sum(ca * cb * w[la] * w[lb] * (la - lb) ** 2
                for la, ca in groups for lb, cb in groups) / 2
    assert Z * Y - W * W == pairs


def _slope_ranges(snap, T, t, depths):
    """{k: (least, greatest)} over the five piece ends x of [T, t] of C_k(x)
    and C_k(x)/x, the slopes of E_k and of S_k, for each depth k, in mpmath
    at 300 bits."""
    ranges = {}
    with mpmath.workprec(300):
        for i in range(5):
            x = T + (t - T) * Fraction(i, 4)
            x = mpmath.mpf(x.numerator) / x.denominator
            pending = sorted(depths)
            Z = W = Y = 0
            K = 0
            for l, count in snap.length_counts_up_to(pending[-1]):
                w = mpmath.mpf(2) ** (-l / x)
                while pending and pending[0] <= K + count:
                    k = pending.pop(0)
                    z, v = Z + (k - K) * w, W + (k - K) * w * l
                    y = Y + (k - K) * w * l * l
                    C = mpmath.ln(2) * (z * y - v * v) / (x * x * z * z)
                    for quantity, slope in (("E", C), ("S", C / x)):
                        lo, hi = ranges.get((k, quantity), (slope, slope))
                        ranges[k, quantity] = min(lo, slope), max(hi, slope)
                Z, W = Z + count * w, W + count * w * l
                Y += count * w * l * l
                K += count
    return ranges


def _check_slope_bounds(snap, T):
    """The E and S handles that certify at T keep 2^-a_lower <= C_k <= 2^a
    (C_k/x for S) on [T, t] at depths past the slope check's deepest
    sample 2 k0 + 2: 4 k0, 8 k0 and every group end from 2 k0 + 2 on, the
    census end included.  Returns the handles checked."""
    handles = []
    for quantity in ("E", "S"):
        try:
            handles.append(certify(snap, quantity, T))
        except CertificationError:
            pass
    if not handles:
        return 0
    total, ends, K = _census_total(snap), {_census_total(snap)}, 0
    for _, count in snap.groups():
        K += count
        ends.add(K)
    depths = [[k for k in {4 * h.k0, 8 * h.k0, *ends}
               if 2 * h.k0 + 2 <= k <= total or k == total] for h in handles]
    ranges = _slope_ranges(snap, T, handles[0].t, set().union(*depths))
    for h, ks in zip(handles, depths):
        for k in ks:
            lo, hi = ranges[k, h.quantity]
            assert mpmath.ldexp(1, -h.a_lower) <= lo, (h.quantity, T, k)
            assert hi <= mpmath.ldexp(1, h.a), (h.quantity, T, k)
    return len(handles)


# sdm4 1500 cap 512 shares sdm4 1500's census, which alone decides
@pytest.mark.parametrize("snapshot", sorted(set(CERTIFICATE_SNAPSHOTS)
                                            - {"sdm4 1500 cap 512"}))
def test_slope_bounds_hold_past_the_slope_reach(snapshot):
    # a_lower and a bound C_k at every depth, not at the sampled ones alone
    snap = CERTIFICATE_SNAPSHOTS[snapshot]()
    assert sum(_check_slope_bounds(snap, T) for T in TEMPERATURES)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(**ANONYMOUS_CENSUSES, T=st.sampled_from(TEMPERATURES))
def test_slope_bounds_hold_past_the_slope_reach_on_anonymous_censuses(
        first, later, T):
    _check_slope_bounds(_anonymous_snapshot(first, later), T)


@pytest.mark.parametrize("quantity", QUANTITY_CHOICES)
@pytest.mark.parametrize("snapshot", sorted(RECHECK_SNAPSHOTS))
def test_verify_falsifies_a_slope_exponent_too_small(snapshot, quantity):
    # a slope bound 2^8 too tight in either direction fails at the first
    # sample point 9/16 of (1/2, 3/4), at the first sampled depth k0
    h = certify(RECHECK_SNAPSHOTS[snapshot], quantity, HALF)
    for field, side in (("a", "upper"), ("a_lower", "lower")):
        with pytest.raises(CertificationError) as raised:
            _verify(h._replace(**{field: getattr(h, field) - 8}))
        assert str(raised.value) == (f"slope {side} bound falsified at "
                                     f"k={h.k0}, x=9/16")


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


dyadics = st.builds(Dyadic, st.integers(-1 << 70, 1 << 70),
                    st.integers(-90, 10))
positive_dyadics = st.builds(Dyadic, st.integers(1, 1 << 70),
                             st.integers(-90, 10))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=dyadics, value=dyadics, aim=dyadics, num=dyadics,
       den=positive_dyadics, grid=st.integers(0, 120), goal=positive_dyadics,
       step=st.tuples(positive_dyadics, positive_dyadics))
def test_newton_point_and_its_size_tests_are_the_fractions(
        x, value, aim, num, den, grid, goal, step):
    # the Newton point on the 2^-grid, its step size, and the solver's
    # cross-multiplied size tests, against the same in Fractions
    on, (dist, over) = fixedpoint._newton_point(x, value, aim, (num, den),
                                                grid)
    x_star = x.as_fraction()
    if num.m > 0:
        x_star += ((aim - value).as_fraction()
                   / (num.as_fraction() / den.as_fraction()))
    assert on == Dyadic(x_star.numerator * (1 << grid) // x_star.denominator,
                        -grid)
    size = abs(x_star - x.as_fraction())
    assert dist.as_fraction() / over.as_fraction() == size
    assert (dist < goal * over) == (size < goal.as_fraction())
    assert ((dist * step[1]).scale2(1) <= step[0] * over) == (
        size <= step[0].as_fraction() / step[1].as_fraction() / 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(quantity=st.sampled_from(("-F", "E", "S")),
       T=st.fractions(Fraction(1, 64), Fraction(63, 64)),
       b=st.integers(-1, 4), c=st.integers(-2, 2), Z_K=positive_dyadics,
       Z_lim=positive_dyadics, W_lim=positive_dyadics, l=st.integers(1, 300))
# alpha >= c l^(c-1) 2^-b alone decides (S, with beta > 0): rare in draws
@example(quantity="S", T=Fraction(3, 4), b=4, c=1, Z_K=Dyadic(414749, -25),
         Z_lim=Dyadic(295587, -19), W_lim=Dyadic(33523, -23), l=46)
def test_increments_close_is_the_fraction_statement(quantity, T, b, c, Z_K,
                                                    Z_lim, W_lim, l):
    # the integer inequalities decide as the Fraction ones, over inputs
    # wider than any certificate's
    h = QuantityHandle(GEO, quantity, T, (T + 1) / 2, 0, 0, b, c, 1, 64)
    limit = {0: Enclosure.point(Z_lim), 1: Enclosure.point(W_lim)}
    assert fixedpoint._increments_close(h, limit, Z_K, l) == (
        _reference_increments_close(h, limit, Z_K, l))


@pytest.mark.parametrize("slope", [(Dyadic(0), Dyadic(1)),
                                   (Dyadic(-1), Dyadic(1)),
                                   (Dyadic(1, 40), Dyadic(1))])
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


def test_solve_reads_a_dyadic_target_as_its_point_enclosure():
    h = GEO300_HANDLES["E"]
    tol = Dyadic(1, -20)
    got = {(enc.lo, enc.hi) for enc in (
        solve_temperature(h, target, tol)
        for target in (Dyadic(11, -3), Fraction(11, 8),
                       Enclosure.point(Dyadic(11, -3))))}
    assert got == {(Dyadic(71603049, -27), Dyadic(71603065, -27))}


def test_a_root_within_tol_of_the_bracket_end_probes_the_end():
    # the root 63/64 - 2^-40 lies within tol of the bracket's high end,
    # which no earlier probe reached: the solve ends by probing 63/64
    # itself, and its enclosure holds the root
    root = Fraction(63, 64) - Fraction(1, 1 << 40)
    h = GEO300_HANDLES["S"]
    target = Enclosure.point(h.f(root, precision_bits=200).lo)
    with mock.patch.object(thermo, "limit_moments",
                           wraps=thermo.limit_moments) as counter:
        enc = solve_temperature(h, target, Dyadic(1, -30))
    assert enc.contains(root)
    probed = [call.args[1] for call in counter.call_args_list]
    assert probed[-1] == Fraction(63, 64)
    assert probed.count(Fraction(63, 64)) == 1


def test_a_target_past_the_bracket_end_is_out_of_range():
    h = GEO300_HANDLES["Z"]
    target = h.f(Fraction(63, 64) + Fraction(1, 1 << 33), precision_bits=200)
    with pytest.raises(RangeError, match="target above the quantity's range"):
        solve_temperature(h, target, Dyadic(1, -30))


def test_precision_error_names_a_too_wide_target(handles):
    h = handles["Z"]
    v = h.f(HALF)
    wide = Enclosure(v.lo - Dyadic(1, -20), v.hi + Dyadic(1, -20))
    with pytest.raises(PrecisionError, match="target enclosure .* too wide"):
        solve_temperature(h, wide, Dyadic(1, -30))


def test_precision_error_names_the_working_precision():
    # gamma_literal near T = 1/48 has Z about 2^-95: at 64 bits the rounding
    # grid of its Kraft-slack tail leaves the comparisons unresolved; 160
    # bits resolve them
    snap = builtin_snapshot("gamma_literal", 600, program_cap=512)
    Tstar = Fraction(1, 48)
    h = certify(snap, "Z", HALF)
    target = h.f(Tstar, precision_bits=300)
    with pytest.raises(PrecisionError,
                       match="at 64 bits of working precision"):
        solve_temperature(h, target, Dyadic(1, -30))
    h160 = certify(snap, "Z", HALF, precision_bits=160)
    enc = solve_temperature(h160, target, Dyadic(1, -30))
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
    lengths = [l for l, c in h.snapshot.length_counts_up_to(
        rep.verified_through) for _ in range(c)]
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


def _first_absent(outputs):
    """The first string in canonical order (by length, then
    lexicographically) that is not in outputs."""
    for n in range(len(outputs) + 1):
        for bits in product("01", repeat=n):
            if BitString("".join(bits)) not in outputs:
                return BitString("".join(bits))


@pytest.mark.parametrize("kind, maxlen, n, k_e, witness", [
    ("literal", 41, 8, 4, "01"), ("sdm4", 60, 12, 28, "0001")])
def test_witness_past_the_empty_string(kind, maxlen, n, k_e, witness):
    # literal and sdm4 output the empty string and more: the witness is
    # found by successor, and is the first string none of the first k_e
    # programs outputs
    h = certify(builtin_snapshot(kind, maxlen), "Z", HALF)
    rep = witness_search(h, bits_prefix(Dyadic(1, -1), n),
                         descending_upper_oracle(h))
    assert (rep.k_e, rep.witness) == (k_e, BitString(witness))
    outputs = {r.output for r in h.snapshot.programs[:rep.k_e]}
    assert LAMBDA in outputs
    assert rep.witness == _first_absent(outputs)


def test_witness_n_below_n0(handles):
    # one bit gives r = 1/2 + 1/2 = 1, outside (T, t)
    with pytest.raises(RangeError):
        witness_search(handles["Z"], bits_prefix(Dyadic(1, -1), 1),
                       descending_upper_oracle(handles["Z"]))


def test_witness_names_the_records_it_lacks():
    # the outputs come from the stored records; sdm4 200 cap 64 stores the
    # 30 programs up to length 8, and n = 20 bits of 1/2 put k_e at 912
    h = certify(CERTIFICATE_SNAPSHOTS["sdm4 200 cap 64"](), "Z", HALF)
    with pytest.raises(RangeError) as raised:
        witness_search(h, bits_prefix(Dyadic(1, -1), 20),
                       descending_upper_oracle(h))
    assert str(raised.value) == ("snapshot stores 30 program records; "
                                 "listing outputs needs the first k_e = 912")


def test_witness_oracle_exhausted(handles):
    # an oracle that never descends near f(T) cannot be beaten; Z never
    # reaches 2, so every depth is passed, a length group at one
    # comparison, also on sdm4 200 cap 64's census of about 10^47 programs
    sdm4 = certify(CERTIFICATE_SNAPSHOTS["sdm4 200 cap 64"](), "Z", HALF)
    for h in (handles["Z"], sdm4):
        start = time.monotonic()
        with pytest.raises(OracleExhausted):
            witness_search(h, bits_prefix(Dyadic(1, -1), 20),
                           iter([Dyadic(2), Dyadic(2), Dyadic(2)]))
        assert time.monotonic() - start < 2.0


def test_a_depth_past_any_float_ends_in_a_typed_error():
    # sdm4 -F at T = 19/32 from 28 bits walks into census groups of more
    # than 2^1024 programs; the unbounded search still bisects them and
    # names the records it lacks
    h = certify(RECHECK_SNAPSHOTS["sdm4 1500 cap 512"], "-F",
                Fraction(19, 32))
    with pytest.raises(RangeError, match="listing outputs needs") as exc:
        witness_search(h, bits_prefix(Dyadic(19, -5), 28),
                       descending_upper_oracle(h))
    assert int(str(exc.value).rsplit(" ", 1)[1]) > 2 ** 1024


def test_a_non_dyadic_T_is_named_before_any_search():
    # certify takes any rational T, but the witness threshold T(n - a - b)
    # and the approach oracle's values are dyadics built from T: at T = 1/5
    # each raises SpecError naming T, before an oracle value is drawn
    h = certify(GEO300, "Z", Fraction(1, 5))
    for call in (lambda: witness_search(h, BitString("00110011"), iter(())),
                 lambda: approach_oracle(h)):
        with pytest.raises(SpecError) as exc:
            call()
        assert str(exc.value).startswith("1/5 is not dyadic")


def test_procedures_past_two_to_the_twenty_end_in_typed_errors():
    # handles whose k0 lies far past 2^20 programs: witness_search finds
    # k_e within a vast length group and names the records it lacks, and
    # reconstruct_T's A oracle runs out; each within a second
    snap = CERTIFICATE_SNAPSHOTS["sdm4 200 cap 64"]()
    for quantity, T in (("-F", Fraction(7, 32)), ("E", Fraction(1, 4))):
        h = certify(snap, quantity, T)
        assert h.k0 > 10 ** 29, quantity
        start = time.monotonic()
        with pytest.raises(RangeError, match="listing outputs needs"):
            witness_search(h, bits_prefix(Dyadic.from_fraction(T), 12),
                           descending_upper_oracle(h))
        u, n = Fraction(5, 8), 6
        with pytest.raises(OracleExhausted, match="A oracle exhausted"):
            reconstruct_T(h, u, n, BitString("0" * ceil(T * n / u)),
                          approach_oracle(h), ascending_lower_oracle(h))
        assert time.monotonic() - start < 1.0, quantity


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


GEO80 = builtin_snapshot("geometric", 80)


@pytest.mark.parametrize("quantity", fixedpoint.QUANTITY_CHOICES)
def test_semidecide_ceiling_charges_the_walks_budget(quantity):
    # on geometric 80, whose census is shorter than the default budget, at
    # r below T, a list oracle whose first value is the ceiling f(r) and
    # whose second is below g(r, 80): the walk compares the first at the
    # depths k0, ..., 80 and the second at the census total, so it answers
    # yes from budget 80 - k0 + 2 on, and so must the ceiling, which
    # passes the first value over with no sums
    h = certify(GEO80, quantity, HALF)
    r = Dyadic(7, -4)
    x = r.as_fraction()
    ceiling = h.f(x).hi
    oracle = [ceiling, h.g(x, 80).lo - Dyadic(1, -200)]
    least = 80 - h.k0 + 2
    for budget in range(least - 3, least + 2):
        walk = fixedpoint._exceeding_depth(h, x, oracle, budget)
        assert walk == (80 if budget >= least else None), budget
        assert fixedpoint._exceeding_depth(h, x, oracle, budget,
                                           ceiling) == walk, budget
    assert [semidecide_above(h, r, oracle, budget)
            for budget in (least - 1, least)] == ["unknown", "yes"]


def test_semidecide_compares_a_value_below_the_upper_end_of_f():
    # gamma_literal 40's limit encloses its Kraft-slack tail, so past some
    # depth the lower ends of E and S at r lie above that of f(r): a value
    # between the two is no upper oracle's, yet the walk exceeds it, and
    # semidecide, whose ceiling is the upper end of f(r), answers as the
    # walk does at every budget
    snap = CERTIFICATE_SNAPSHOTS["gamma_literal 40"]()
    total = sum(snap.census.values())
    r = Dyadic(7, -4)
    x = r.as_fraction()
    for quantity in ("E", "S"):
        h = certify(snap, quantity, HALF)
        oracle = [(h.f(x).lo + h.g(x, total).lo).scale2(-1)]
        k = fixedpoint._exceeding_depth(h, x, oracle, inf)
        least = k - h.k0 + 1
        assert [semidecide_above(h, r, oracle, budget)
                for budget in (least - 1, least)] == ["unknown", "yes"]


@pytest.mark.parametrize("quantity", fixedpoint.QUANTITY_CHOICES)
def test_semidecide_below_T_sums_no_depth(quantity):
    # every value of an upper oracle is at least f(T) > f(r) for r < T, so
    # with the default budget the answer is the walk's unknown, reached
    # with no depth sum and no running walk
    h = certify(GEO80, quantity, HALF)
    r = Dyadic(7, -4)
    assert fixedpoint._exceeding_depth(h, r.as_fraction(),
                                       descending_upper_oracle(h),
                                       256) is None
    with mock.patch.object(thermo, "moment_sums",
                           wraps=thermo.moment_sums) as sums, \
            mock.patch.object(fixedpoint, "_RunningWalk",
                              wraps=fixedpoint._RunningWalk) as walks:
        answer = semidecide_above(h, r, descending_upper_oracle(h))
    assert answer == "unknown"
    assert (sums.call_count, walks.call_count) == (0, 0)


def test_semidecide_walks_every_value_where_the_ceiling_is_unresolved(
        monkeypatch):
    # a PrecisionError from f(r) leaves every value to the walk: the pinned
    # least budgets still answer yes, and r below T still unknown
    f = QuantityHandle.f

    def unresolved_at_r(self, x=None, precision_bits=None):
        if x is not None:
            raise PrecisionError("limit unresolved")
        return f(self, x, precision_bits)

    monkeypatch.setattr(QuantityHandle, "f", unresolved_at_r)
    for quantity, h in GEO300_HANDLES.items():
        r, least = Dyadic(33, -6), PINNED_SEMIDECISION_BUDGETS[quantity][1]
        assert [semidecide_above(h, r, descending_upper_oracle(h), budget)
                for budget in (least - 1, least)] == ["unknown", "yes"]
        assert semidecide_above(h, Dyadic(7, -4), descending_upper_oracle(h),
                                budget=16) == "unknown"


# -- reconstruct_T -----------------------------------------------------

def test_reconstruct_spec_example(handles):
    h = handles["Z"]
    u, n = Fraction(3, 4), 16
    prefix = beta_bits(h, u, n)
    assert len(prefix) == 11  # ceil(16 * (1/2) / (3/4))
    rep = reconstruct_T(h, u, n, prefix, approach_oracle(h),
                        ascending_lower_oracle(h))
    assert rep.beta_bits_used == 11
    assert rep.radius == Dyadic(1, h.a_lower + h.c - n)
    assert abs(rep.candidate.as_fraction() - HALF) < rep.radius.as_fraction()


def test_beta_bits_match_the_geometric_closed_form():
    # geometric's beta at b = 0 is Z(u) = x / (1 - x), x = 2^(-1/u): the
    # bits after its point, at 256 bits of mpmath, on criterion 08's draw
    rng = random.Random(2)
    cache = {}
    for _ in range(50):
        T = Fraction(rng.randrange(9, 48), 64)
        u = Fraction(rng.randrange(int(T * 64) + 1, 64), 64)
        n = rng.randrange(2, 25)
        if T not in cache:
            cache[T] = certify(GEO, "Z", T)
        bits = ceil(T * n / u)
        with mpmath.workprec(256):
            x = mpmath.mpf(2) ** (-mpmath.mpf(u.denominator) / u.numerator)
            beta = x / (1 - x)
            want = int(mpmath.floor(mpmath.ldexp(beta % 1, bits)))
        assert beta_bits(cache[T], u, n) == BitString.from_int(want, bits)


def test_reconstruct_tiny_n_has_huge_radius(handles):
    h = handles["Z"]
    u = Fraction(3, 4)
    rep = reconstruct_T(h, u, 1, beta_bits(h, u, 1), approach_oracle(h),
                        ascending_lower_oracle(h))
    assert rep.radius.as_fraction() >= Fraction(1, 2)
    assert abs(rep.candidate.as_fraction() - HALF) < rep.radius.as_fraction()


def test_reconstruct_validates_prefix_length(handles):
    h = handles["Z"]
    with pytest.raises(SpecError):
        reconstruct_T(h, Fraction(3, 4), 16, BitString("0101"),
                      approach_oracle(h), ascending_lower_oracle(h))


def test_reconstruct_validates_u(handles, monkeypatch):
    # beta_bits and reconstruct_T reject a u outside (T, 1) with one text
    # that names it, and beta_bits before it evaluates beta
    h = handles["Z"]
    monkeypatch.setattr(fixedpoint, "moments",
                        lambda *_: pytest.fail("beta evaluated"))
    for bad in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(1),
                Fraction(3, 2)):
        want = f"u = {bad} outside (T, 1) = (1/2, 1)"
        with pytest.raises(RangeError) as exc:
            beta_bits(h, bad, 16)
        assert str(exc.value) == want
        with pytest.raises(RangeError) as exc:
            reconstruct_T(h, bad, 16, BitString("0"), approach_oracle(h),
                          ascending_lower_oracle(h))
        assert str(exc.value) == want


def test_reconstruct_reads_u_as_any_temperature(handles):
    # u is read like every other temperature: a Dyadic, a float or a
    # string gives the report of the equal Fraction
    h = handles["Z"]
    u, n = Fraction(3, 4), 16
    prefix = beta_bits(h, u, n)
    want = reconstruct_T(h, u, n, prefix, approach_oracle(h),
                         ascending_lower_oracle(h))
    for same in (Dyadic(3, -2), 0.75, "3/4"):
        assert reconstruct_T(h, same, n, prefix, approach_oracle(h),
                             ascending_lower_oracle(h)) == want


def test_reconstruct_oracle_exhaustion(handles):
    h = handles["Z"]
    u, n = Fraction(3, 4), 16
    prefix = beta_bits(h, u, n)
    with pytest.raises(OracleExhausted):
        reconstruct_T(h, u, n, prefix, iter([Dyadic(5, -3)]),
                      ascending_lower_oracle(h))


def test_reconstruct_tail_check_falsifies_a_lowered_c():
    # on the geometric 300 Z handle with c lowered by 64, the tail past k_e
    # no longer fits under 2^(c - n): reconstruct_T, on the same prefix,
    # finds the unchanged handle's k_e and raises there, naming both
    h = GEO300_HANDLES["Z"]
    u, n = Fraction(3, 4), 16
    _, k_e, _ = _counted_reconstruct(h, u, n)
    low = h._replace(c=h.c - 64)
    with pytest.raises(CertificationError) as raised:
        reconstruct_T(low, u, n, beta_bits(h, u, n), approach_oracle(low),
                      ascending_lower_oracle(low))
    text = str(raised.value)
    assert text.startswith(f"tail past k_e={k_e} is "), text
    assert text.endswith(f", not below 2^{low.c - n}; certificate "
                         f"falsified"), text


def test_reconstruct_gives_up_after_4096_rounds_unsummed():
    # a constant A inside (T, t) and a B of 0, which the slope floor always
    # reaches: 4096 rounds draw A and B in lockstep, sum nothing past the
    # tail step's g(T, k_e), and raise
    h = GEO300_HANDLES["Z"]
    u, n = Fraction(3, 4), 16
    drawn = Counter()

    def stream(name, value):
        while True:
            drawn[name] += 1
            yield value

    with mock.patch.object(QuantityHandle, "g", autospec=True,
                           side_effect=QuantityHandle.g) as counter, \
            pytest.raises(OracleExhausted) as raised:
        reconstruct_T(h, u, n, beta_bits(h, u, n),
                      stream("A", Dyadic(5, -3)), stream("B", Dyadic(0)))
    assert str(raised.value) == "A/B oracles did not close the bracket"
    assert counter.call_count == 1
    assert drawn == {"A": 4097, "B": 4097}


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
        rep = reconstruct_T(h, u, n, beta_bits(h, u, n),
                            approach_oracle(h), ascending_lower_oracle(h))
        assert abs(rep.candidate.as_fraction() - T) < rep.radius.as_fraction()
        assert T < rep.candidate.as_fraction()  # approach is from above


@pytest.mark.parametrize("A", [Dyadic(1, -1), Dyadic(3, -2), Dyadic(1, -2),
                               Dyadic(7, -3), Dyadic(0), Dyadic(3, 2)],
                         ids=["T", "t", "below T", "above t", "zero",
                              "positive exponent"])
def test_reconstruct_rejects_an_A_value_outside_the_window(handles, A):
    # T = 1/2 and t = 3/4: an A value at either end or outside (T, t)
    # raises, named, before any comparison with B
    h = handles["Z"]
    u, n = Fraction(3, 4), 16
    with pytest.raises(RangeError) as exc:
        reconstruct_T(h, u, n, beta_bits(h, u, n), iter([A]),
                      ascending_lower_oracle(h))
    assert str(exc.value) == f"A oracle value {A.serialize()} outside (T, t)"


def _counted_reconstruct(handle, u, n):
    """reconstruct_T from the approach and ascending lower oracles, the
    depth k_e of its step 2, and the number of QuantityHandle.g calls it
    made; its first call is the tail step's g(T, k_e)."""
    with mock.patch.object(QuantityHandle, "g", autospec=True,
                           side_effect=QuantityHandle.g) as counter:
        rep = reconstruct_T(handle, u, n, beta_bits(handle, u, n),
                            approach_oracle(handle),
                            ascending_lower_oracle(handle))
    (_, T, k_e), _ = counter.call_args_list[0]
    assert T == handle.T
    return rep, k_e, counter.call_count


def _reference_step_2(handle, k_e):
    """reconstruct_T's step 2 with g evaluated at every A: the first A with
    g(A, k_e) certifiably below B, and the g calls made with the tail
    step's one."""
    As, Bs = approach_oracle(handle), ascending_lower_oracle(handle)
    A, B = next(As), next(Bs)
    calls = 2
    while not certified_lt(handle.g(A.as_fraction(), k_e), Enclosure.point(B)):
        A, B = next(As), max(B, next(Bs))
        calls += 1
    return A, calls


def test_reconstruct_skips_only_what_the_slope_floor_decides():
    # over a seeded grid of (u, n), on the four geometric 300 handles and an
    # sdm4 one, reconstruct_T gives the candidate and radius of the loop
    # that evaluates g at every A, with no more g calls
    handles = [*GEO300_HANDLES.values(),
               certify(RECHECK_SNAPSHOTS["sdm4 1500 cap 512"], "Z", HALF)]
    rng = random.Random(24)
    grid = [(Fraction(rng.randrange(33, 64), 64), rng.randrange(2, 31))
            for _ in range(6)]
    saved = 0
    for h in handles:
        for u, n in grid:
            rep, k_e, calls = _counted_reconstruct(h, u, n)
            A, reference_calls = _reference_step_2(h, k_e)
            assert (rep.candidate, rep.radius) == (A, h.radius(n)), (
                h.snapshot.ensemble_id, h.quantity, u, n)
            assert calls <= reference_calls, (h.quantity, u, n)
            saved += reference_calls - calls
    assert saved > 0


# -- closed-form oracles -----------------------------------------------

def _geometric_f(quantity, T):
    """f(T) on the geometric ensemble, one program per length, x = 2^(-1/T):
    Z = x/(1 - x), E = 1/(1 - x), -F = T log2 Z, S = (E - F)/T."""
    T = mpmath.mpf(T.numerator) / T.denominator
    x = mpmath.power(2, -1 / T)
    Z, E = x / (1 - x), 1 / (1 - x)
    minus_F = T * mpmath.log(Z, 2)
    return {"Z": Z, "E": E, "-F": minus_F, "S": (E + minus_F) / T}[quantity]


@pytest.mark.parametrize("quantity", ["Z", "-F", "E", "S"])
def test_closed_form_oracles_evaluate_f_once_per_doubling(handles, quantity,
                                                           monkeypatch):
    # each stream yields ORACLE_STEPS values, monotone and on its side of
    # f(T), from f at 16, 32, ..., 1024 bits: its m-th value is an end of
    # the first of these at 16 + 8m bits or more, so at m = 0, 2, 6, 14,
    # 30 and 62 it takes the end at exactly 16 + 8m bits
    h = handles[quantity]
    exact = {m: h.f(precision_bits=16 + 8 * m) for m in (0, 2, 6, 14, 30, 62)}
    evaluate, precisions = QuantityHandle.f, []

    def counted(self, x=None, precision_bits=None):
        precisions.append(precision_bits)
        return evaluate(self, x, precision_bits)

    monkeypatch.setattr(QuantityHandle, "f", counted)
    upper = list(descending_upper_oracle(h))
    assert precisions == [16, 32, 64, 128, 256, 512, 1024]
    precisions.clear()
    lower = list(ascending_lower_oracle(h))
    assert precisions == [16, 32, 64, 128, 256, 512, 1024]
    assert len(upper) == len(lower) == fixedpoint.ORACLE_STEPS
    assert (upper[0], lower[0]) == (exact[0].hi, exact[0].lo)
    for m, f in exact.items():
        if m:
            assert upper[m] == min(upper[m - 1], f.hi), m
            assert lower[m] == max(lower[m - 1], f.lo), m
    assert all(v >= w for v, w in zip(upper, upper[1:]))
    assert all(v <= w for v, w in zip(lower, lower[1:]))
    # a 1024-bit end lies about 2^-1024 from f(T): the reference is
    # computed past that
    with mpmath.workprec(2048):
        ref = _geometric_f(quantity, h.T)
        assert all(mpmath.ldexp(v.m, v.e) > ref for v in upper)
        assert all(mpmath.ldexp(v.m, v.e) < ref for v in lower)


# -- pinned procedure results ------------------------------------------

# witness_search on geometric 300 at T = 1/2 from n bits of 1/2: (k_e,
# length threshold, verified_through), then the same with a shifted 40
# down, whose threshold the programs past k_e no longer clear (the
# CertificationError message, less "; certificate falsified")
PINNED_WITNESSES = {
    "Z": {8: ((4, "3*2^0", 40),
              "program 5 has length 5 <= threshold 23*2^0"),
          20: ((10, "9*2^0", 100),
               "program 11 has length 11 <= threshold 29*2^0"),
          30: ((15, "7*2^1", 150),
               "program 16 has length 16 <= threshold 17*2^1")},
    "-F": {8: ((4, "3*2^0", 40),
               "program 5 has length 5 <= threshold 23*2^0"),
           20: ((10, "9*2^0", 100),
                "program 11 has length 11 <= threshold 29*2^0"),
           30: ((300, "7*2^1", 300), (300, "17*2^1", 300))},
    "E": {8: ((6, "1*2^-1", 60),
              "program 7 has length 7 <= threshold 41*2^-1"),
          20: ((12, "13*2^-1", 120),
               "program 13 has length 13 <= threshold 53*2^-1"),
          30: ((17, "23*2^-1", 170),
               "program 18 has length 18 <= threshold 63*2^-1")},
    "S": {8: ((6, "-1*2^-1", 60),
              "program 7 has length 7 <= threshold 39*2^-1"),
          20: ((12, "11*2^-1", 120),
               "program 13 has length 13 <= threshold 51*2^-1"),
          30: ((300, "21*2^-1", 300), (300, "61*2^-1", 300))},
}
# the least budget at which semidecide_above answers yes, for r = 9/16,
# 33/64, 129/256 and 1025/2048
PINNED_SEMIDECISION_BUDGETS = {"Z": [2, 3, 4, 5], "-F": [1, 2, 3, 5],
                               "E": [2, 3, 5, 6], "S": [3, 4, 5, 6]}
# reconstruct_T at (u, n) = (5/8, 6), (3/4, 16), (7/8, 24): (beta bits
# used, candidate, radius); S's radius 2^(a_lower + c - n) doubled when its
# a_lower rose from 2 to 3 with the capacity bound at every depth
PINNED_RECONSTRUCTIONS = {
    "Z": [(5, "129*2^-8", "1*2^-4"), (11, "524289*2^-20", "1*2^-14"),
          (14, "134217729*2^-28", "1*2^-22")],
    "-F": [(5, "1025*2^-11", "1*2^-5"), (11, "268435457*2^-29", "1*2^-15"),
           (14, "274877906945*2^-39", "1*2^-23")],
    "E": [(5, "2049*2^-12", "1*2^-2"), (11, "4294967297*2^-33", "1*2^-12"),
          (14, "8796093022209*2^-44", "1*2^-20")],
    "S": [(5, "1048577*2^-21", "1*2^-2"),
          (11, "549755813889*2^-40", "1*2^-12"),
          (14, "35184372088833*2^-46", "1*2^-20")],
}
# the QuantityHandle.g calls of those reconstructions: the tail step's one,
# then one per A value that the slope floor leaves undecided (evaluating g
# at every A took 7, 19, 27; 10, 28, 38; 11, 32, 43 and 20, 39, 45)
PINNED_RECONSTRUCTION_G_CALLS = {"Z": [4, 4, 4], "-F": [3, 3, 3],
                                 "E": [5, 6, 5], "S": [6, 6, 6]}


def _witness(handle, n):
    try:
        rep = witness_search(handle, bits_prefix(Dyadic(1, -1), n),
                             descending_upper_oracle(handle))
    except CertificationError as exc:
        return str(exc).removesuffix("; certificate falsified")
    assert rep.witness == LAMBDA
    return rep.k_e, rep.length_threshold.serialize(), rep.verified_through


@pytest.mark.parametrize("quantity", sorted(GEO300_HANDLES))
def test_procedures_are_pinned(quantity):
    h = GEO300_HANDLES[quantity]
    for n, want in PINNED_WITNESSES[quantity].items():
        assert (_witness(h, n), _witness(h._replace(a=h.a - 40), n)) == want
    for r, least in zip((Dyadic(9, -4), Dyadic(33, -6), Dyadic(129, -8),
                         Dyadic(1025, -11)),
                        PINNED_SEMIDECISION_BUDGETS[quantity]):
        answers = [semidecide_above(h, r, descending_upper_oracle(h), budget)
                   for budget in (least - 1, least)]
        assert answers == ["unknown", "yes"], r
    for (u, n), want, want_calls in zip(
            ((Fraction(5, 8), 6), (Fraction(3, 4), 16), (Fraction(7, 8), 24)),
            PINNED_RECONSTRUCTIONS[quantity],
            PINNED_RECONSTRUCTION_G_CALLS[quantity]):
        rep, _, calls = _counted_reconstruct(h, u, n)
        got = (rep.beta_bits_used, rep.candidate.serialize(),
               rep.radius.serialize())
        assert (got, calls) == (want, want_calls), (u, n)


def test_running_depth_values_match_the_depth_evaluations():
    # the procedures' running integer sums give g(x, k) bit for bit, also
    # inside sdm4's length groups
    for snap in RECHECK_SNAPSHOTS.values():
        for quantity in ("Z", "-F"):
            h = certify(snap, quantity, HALF)
            x = Fraction(37, 64)
            for k, g in islice(_depths(h, x), 40):
                want = h.g(x, k)
                assert (g.lo, g.hi) == (want.lo, want.hi), (quantity, k)


def _depths(h, x):
    """(k, g(x, k)) for k = k0, k0 + 1, ..., from the procedures' runs."""
    for k, m, g in fixedpoint._depth_runs(h, x):
        for i in range(m):
            yield k + i, g(i)


def test_exceeding_depth_is_the_first_a_scan_of_every_depth_finds():
    # the run ends and the bisection inside a run find the depth, and the
    # budget, that comparing every depth in turn gives: at values between
    # the lower ends of successive depths, on the first 300 depths
    for snap in RECHECK_SNAPSHOTS.values():
        for quantity in fixedpoint.QUANTITY_CHOICES:
            h = certify(snap, quantity, HALF)
            x = Fraction(37, 64)
            lows = [(k, g.lo) for k, g in islice(_depths(h, x), 300)]
            steps = [(below, k, above) for (_, below), (k, above)
                     in zip(lows, lows[1:]) if below < above]
            assert len(steps) > 5, quantity
            for below, k, above in steps[::max(1, len(steps) // 40)]:
                value = (below + above).scale2(-1)
                want = next(k for k, lo in lows if value < lo)
                spent = want - h.k0 + 1
                got = [fixedpoint._exceeding_depth(h, x, [value], budget)
                       for budget in (inf, spent, spent - 1)]
                assert got == [want, want, None], (quantity, k)


def _first_beta_index(h, u, target):
    """The first depth k >= k0 whose order-b moment at u has its exact
    lower end above target, in integers: after i programs of a group that
    lower end is S + i w l^b, so one floor division per group finds the
    first such i; None past the census."""
    b = h.b
    walk = thermo._RunningWalk(h.snapshot.groups(),
                               thermo.WeightChain(u, h.precision_bits), (b,))
    K = 0  # the programs before the group
    for _, count in walk:
        S, e, _, _ = walk.exact(b)
        step = walk.term(b)[0]
        f = min(e, target.e)
        i = max(h.k0 - K, ((target.m << (target.e - f)) - (S << (e - f)))
                // (step << (e - f)) + 1, 1)
        if i <= count:
            return K + i
        K += count
    return None


@pytest.mark.parametrize("snapshot", ["geometric 300", "sdm4 1500 cap 512",
                                      "literal 200", "gamma_literal 300"])
def test_exceeding_depth_on_beta_matches_the_integer_first_index(snapshot):
    # the search on the order-b moment at u, with beta's upper end as its
    # ceiling, as reconstruct_T calls it, returns the integer reference's
    # depth on a seeded grid of u and targets: beta's lower end cut to m
    # bits after the point (a prefix as reconstruct_T reads it), a fraction
    # of it, which the first depths pass, three values 2^-s of it below it,
    # s <= 60, which deep groups pass (inside sdm4's large ones the
    # bisection takes many steps), and a value above beta, which none does
    kind, maxlen, *cap = snapshot.split()
    snap = builtin_snapshot(kind, int(maxlen),
                            **({"program_cap": int(cap[1])} if cap else {}))
    rng = random.Random(32)
    for quantity in ("Z", "-F", "E", "S"):
        h = certify(snap, quantity, HALF)
        b = h.b
        beta_q = thermo.Increasing("beta", (b,), lambda mu, x, p: mu[b], None)
        for _ in range(3):
            u = Fraction(rng.randrange(33, 64), 64)
            beta = thermo.moments(snap, u, "limit", (b,),
                                  h.precision_bits)[b]
            m = rng.randrange(1, 40)
            targets = [Dyadic(beta.lo.floor_scaled(m), -m),
                       beta.lo * Dyadic(rng.randrange(1, 1 << 20), -20),
                       *(beta.lo - beta.lo.scale2(-rng.randrange(1, 61))
                         for _ in range(3)),
                       beta.hi + Dyadic(1, -10)]
            for target in targets:
                want = _first_beta_index(h, u, target)
                got = fixedpoint._exceeding_depth(h, u, (target,), inf,
                                                  beta.hi, beta_q)
                assert got == want, (quantity, u, target.serialize())
            assert want is None


def test_certify_builds_few_weight_chains(monkeypatch):
    # per certify on geometric 300 at T = 1/2: one chain at T shared by the
    # precondition, the walk at T, the re-check's running walk and the
    # slope check, one walk per slope sample, which for E and S also gives
    # the capacity pieces' sums at the three piece ends inside (T, t), and
    # for E and S one more at t; the limit evaluations, the capacity's
    # three at the piece ends too, come from the generating function and
    # build none; summing the capacity pieces' ends apart from the slope
    # samples took 8 for E and S, the interval hull of the capacity
    # refined to 32 pieces 36, summing each depth and point separately
    # 20, 21, 90 and 90, and census limits 6, 6, 38 and 38.
    # The chains' entries: every l/T is an integer at T = 1/2, so the walk
    # at T extends none; every other walk reaches 2 k0 + 2 programs (k0 =
    # 1 for Z, 2 for the others), the one at t of E and S too, which the
    # capacity bound reads at that depth (it read k0 programs there, 20
    # entries for E and S); a slope sample at depth 300 walked to took
    # 900, 900, 902 and 902
    built, chains = Counter(), {q: [] for q in ("Z", "-F", "E", "S")}
    init = thermo.WeightChain.__init__

    def counted(self, *args):
        built[quantity] += 1
        chains[quantity].append(self)
        init(self, *args)

    monkeypatch.setattr(thermo.WeightChain, "__init__", counted)
    for quantity in ("Z", "-F", "E", "S"):
        certify(GEO300, quantity, HALF)
    assert built == {"Z": 4, "-F": 4, "E": 5, "S": 5}
    entries = {q: sum(len(chain._chain) - 1 for chain in built_chains)
               for q, built_chains in chains.items()}
    assert entries == {"Z": 12, "-F": 18, "E": 24, "S": 24}


def test_certify_walks_the_census_only_to_the_slope_reach(monkeypatch):
    # per certify on geometric 300 at T = 21/64, where only l/T with 21 | l
    # is an integer, so every chain is extended to the longest length its
    # walk covers: the walk at T, which shares its chain with the first
    # weight and the re-check, reaches the slope check's 2 k0 + 2 programs
    # (k0 = 1, 3, 4 and 4), like the three slope samples' walks and, for E
    # and S, the one at t (k0 programs there took 44 entries for E and S).
    # The -F, E and S re-checks check the groups of the slope reach, where
    # the closed argument ends them; the running walk reads one more
    # length, the argument's l, one more entry of the chain at T; walking
    # the census at T took 16, 324, 334 and 334 entries and checked 0, 300,
    # 300 and 300 groups
    built, entries, visited = Counter(), Counter(), Counter()
    init, check = thermo.WeightChain.__init__, fixedpoint._check_increments
    chains = []

    def counted(self, *args):
        chains.append(self)
        init(self, *args)

    def visiting(handle, prefixes, start):
        def groups():
            for group in prefixes:
                visited[quantity] += 1
                yield group
        check(handle, groups(), start)

    monkeypatch.setattr(thermo.WeightChain, "__init__", counted)
    monkeypatch.setattr(fixedpoint, "_check_increments", visiting)
    for quantity in ("Z", "-F", "E", "S"):
        chains.clear()
        certify(GEO300, quantity, Fraction(21, 64))
        built[quantity] = len(chains)
        entries[quantity] = sum(len(chain._chain) - 1 for chain in chains)
    assert built == {"Z": 4, "-F": 4, "E": 5, "S": 5}
    assert entries == {"Z": 16, "-F": 33, "E": 51, "S": 51}
    assert visited == {"-F": 8, "E": 10, "S": 10}
