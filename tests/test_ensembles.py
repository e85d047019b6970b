"""Enumeration, machine semantics, census counts, and snapshot persistence."""

import io
import json
import random
import sys
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from thermoait import ensembles
from thermoait.bitstring import BitString, LAMBDA
from thermoait.cli import main
from thermoait.dyadic import fraction_text, int_from_text, int_text
from thermoait.ensembles import (
    BUDGET, DEFAULT_PROGRAM_CAP, DIVERGE, HALT, MACHINES, EnsembleSnapshot,
    Machine, builtin_snapshot,
    gamma_code, gamma_literal_length, kraft_slack, load_snapshot, run_sdm4,
    replay_check, save_snapshot,
)
from thermoait.errors import InvariantViolation, SnapshotError, SpecError
from thermoait.thermo import eval_limit


# -- SDM-4 machine -----------------------------------------------------

def test_sdm4_emits_and_halts():
    r = run_sdm4(BitString("000111"), 10)
    assert r.status == HALT
    assert r.output == BitString("01")
    assert r.steps == 3
    assert r.consumed == 6


def test_sdm4_repeat_opcode():
    # emit 1, then repeat last bit three times, then halt -> 1111
    r = run_sdm4(BitString("01101011"), 10)
    assert r.status == HALT and r.output == BitString("1111")


def test_sdm4_phantom_repeat_before_emission():
    # repeat with nothing emitted appends zeros
    r = run_sdm4(BitString("100111"), 10)
    assert r.status == HALT and r.output == BitString("00")


def test_sdm4_divergence_cases():
    assert run_sdm4(BitString("1011"), 10).status == DIVERGE  # repeat arg 11
    assert run_sdm4(BitString("0"), 10).status == DIVERGE     # exhausted mid-read
    assert run_sdm4(BitString("00"), 10).status == DIVERGE    # no halt opcode
    assert run_sdm4(BitString("10"), 10).status == DIVERGE    # exhausted in arg


def test_sdm4_budget():
    r = run_sdm4(BitString("000111"), 2)
    assert r.status == BUDGET and r.steps == 2


def test_sdm4_trailing_bits_ignored_after_halt():
    r = run_sdm4(BitString("1100"), 10)
    assert r.status == HALT and r.consumed == 2  # proper prefix halts


# -- enumeration -------------------------------------------------------

def test_sdm4_enumeration_depth_two():
    snap = builtin_snapshot("sdm4", 2)
    assert [r.program.bits for r in snap.programs] == ["11"]
    assert snap.programs[0].output == LAMBDA
    assert snap.census == {2: 1}


def test_sdm4_census_counts():
    snap = builtin_snapshot("sdm4", 8)
    assert snap.census == {2: 1, 4: 2, 6: 7, 8: 20}
    assert len(snap.programs) == 30
    # census recurrence closed form: d(m) = (3^(m+1) + (-1)^m) / 4
    census = dict(MACHINES["sdm4"].census(24))
    assert census == {2 * m + 2: (3 ** (m + 1) + (-1) ** m) // 4
                      for m in range(12)}
    replay_check(snap, snap.programs)


def test_sdm4_census_count_matches_the_recurrence():
    expected = {}
    d_prev, d = 0, 1  # d(-1), d(0)
    for length in range(2, 2001, 2):
        expected[length] = d
        d_prev, d = d, 2 * d + 3 * d_prev
    assert dict(MACHINES["sdm4"].census(2000)) == expected
    far = (3**9100 - 1) // 4  # d(9099), length 18200
    assert list(MACHINES["sdm4"].census(18200))[-1] == (18200, far)


def test_sdm4_canonical_order_and_prefix_freeness():
    snap = builtin_snapshot("sdm4", 10)
    progs = [r.program for r in snap.programs]
    assert progs == sorted(progs)
    for i, a in enumerate(progs):
        for b in progs[i + 1:]:
            assert not b.bits.startswith(a.bits)


def test_sdm4_kraft_converges_to_four_fifths():
    snap = builtin_snapshot("sdm4", 88, program_cap=0)
    gap = Fraction(4, 5) - snap.kraft_partial()
    assert 0 < gap < Fraction(1, 2**18)


def test_literal_enumeration():
    snap = builtin_snapshot("literal", 3)
    assert [(r.program.bits, r.output.bits) for r in snap.programs] == [
        ("0", ""), ("100", "0"), ("101", "1")]
    assert snap.census == {1: 1, 3: 2}
    assert snap.kraft_partial() == Fraction(3, 4)


def test_geometric_enumeration():
    snap = builtin_snapshot("geometric", 4)
    assert snap.census == {1: 1, 2: 1, 3: 1, 4: 1}
    assert snap.kraft_partial() == Fraction(15, 16)
    assert [r.output.bits for r in snap.programs] == ["1", "10", "11", "100"]


def test_gamma_literal_enumeration():
    assert gamma_code(1) == BitString("1")
    assert gamma_code(3) == BitString("011")
    assert gamma_code(4) == BitString("00100")
    assert gamma_literal_length(5) == 5 + 2 * 2 + 1
    snap = builtin_snapshot("gamma_literal", 7)
    # n=1 -> length 2 (2 programs), n=2 -> length 5 (4), n=3 -> length 6 (8)
    assert snap.census == {2: 2, 5: 4, 6: 8}
    assert snap.programs[0].program == BitString("10")
    assert snap.programs[2].program == BitString("01000")
    progs = [r.program for r in snap.programs]
    assert progs == sorted(progs)
    for i, a in enumerate(progs):
        for b in progs[i + 1:]:
            assert not b.bits.startswith(a.bits)
    assert snap.kraft_partial() == Fraction(2, 4) + Fraction(4, 32) + Fraction(8, 64)


def test_program_cap_keeps_census_full():
    snap = builtin_snapshot("literal", 7, step_budget=1, program_cap=3)
    assert len(snap.programs) == 3  # whole lengths only: 1 + 2
    assert snap.census == {1: 1, 3: 2, 5: 4, 7: 8}


def test_records_are_built_on_their_first_read_only():
    # the census is expanded once, and no program runs on the interpreter
    # until .programs is read; the records are then built once and kept
    with mock.patch.object(ensembles, "run_sdm4",
                           wraps=ensembles.run_sdm4) as run, \
            mock.patch.object(Machine, "census", autospec=True,
                              side_effect=Machine.census) as census:
        snap = builtin_snapshot("sdm4", 1500)
        eval_limit(snap, Fraction(1, 2))
        assert (run.call_count, census.call_count) == (0, 1)
        records = snap.programs
        assert run.call_count == len(records) == 2460
        assert snap.programs is records
        assert (run.call_count, census.call_count) == (2460, 1)


def _eager_records(kind, max_length, step_budget, program_cap):
    """The records as builtin_snapshot enumerated them when it built
    them with the census: whole lengths, up to program_cap records or
    until the step budget runs out."""
    machine = MACHINES[kind]
    programs = []
    for length, count in machine.census(max_length):
        if len(programs) + count > program_cap:
            break
        before = len(programs)
        programs.extend(machine.programs(length, count, step_budget))
        if len(programs) - before < count:
            break
    return programs


@pytest.mark.parametrize("kind", sorted(MACHINES))
def test_lazy_records_equal_the_eager_enumeration(kind):
    # caps that take no record, one, some lengths and the default; sdm4's
    # budget of 5 steps runs out at length 10, before the cap and maxlen
    for max_length, budget, cap in [
            (40, None, 0), (40, None, 1), (40, None, 300),
            (40, None, DEFAULT_PROGRAM_CAP), (600, None, 300),
            (40, 5, DEFAULT_PROGRAM_CAP), (40, 5, 30)]:
        snap = builtin_snapshot(kind, max_length, step_budget=budget,
                                program_cap=cap)
        want = _eager_records(kind, max_length, snap.step_budget, cap)
        assert snap.programs == want, (max_length, budget, cap)
    assert (len(builtin_snapshot("sdm4", 40, step_budget=5).programs)
            == 91 < len(builtin_snapshot("sdm4", 40).programs))


def test_spec_validation():
    with pytest.raises(SpecError):
        builtin_snapshot("bogus", 5)
    with pytest.raises(SpecError):
        builtin_snapshot("geometric", 0)
    with pytest.raises(SpecError):
        builtin_snapshot("sdm4", 4, step_budget=0)


def test_bitstring_rejects_non_binary_characters():
    assert BitString("") == LAMBDA and len(BitString("")) == 0
    for bad in ("201", "0a1", "012", "x", "0 1", "1\n", "\u0661"):
        with pytest.raises(ValueError, match="not a binary string"):
            BitString(bad)


@pytest.mark.parametrize("kind", sorted(MACHINES))
def test_program_kraft_is_the_exact_record_sum(kind):
    # the reference adds one Fraction per record
    for cap in (0, 1, 7, 64, DEFAULT_PROGRAM_CAP):
        snap = builtin_snapshot(kind, 30, program_cap=cap)
        want = sum((Fraction(1, 1 << len(r.program)) for r in snap.programs),
                   Fraction(0))
        assert snap.program_kraft() == want, cap
        assert (want == 0) == (not snap.programs)


# -- census slack ------------------------------------------------------

def test_kraft_slack_examples():
    geo = builtin_snapshot("geometric", 6)
    assert kraft_slack(geo.census.items(), 4) == Fraction(1, 16)
    lit = builtin_snapshot("literal", 9)
    # lengths 1,3,5,7 covered: slack 2^-4
    assert kraft_slack(lit.census.items(), 7) == Fraction(1, 16)


# -- persistence -------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    snap = builtin_snapshot("sdm4", 8)
    path = tmp_path / "sdm4.snap"
    save_snapshot(snap, path)
    back = load_snapshot(path)
    assert back.ensemble_id == "sdm4"
    assert back.step_budget == snap.step_budget
    assert back.max_length == snap.max_length
    assert back.census == snap.census
    assert back.programs == snap.programs


def test_snapshot_lambda_output_round_trip(tmp_path):
    snap = builtin_snapshot("literal", 1)  # single program "0" -> empty output
    path = tmp_path / "lit.snap"
    save_snapshot(snap, path)
    back = load_snapshot(path)
    assert back.programs[0].output == LAMBDA


def test_snapshot_round_trip_past_the_int_digit_limit(tmp_path):
    # the Kraft sum (2^16000 - 1)/2^16000 has numerator and denominator of
    # 4817 digits, past the interpreter's int/str digit limit (left as is)
    snap = builtin_snapshot("geometric", 16000, program_cap=4)
    kraft = fraction_text(snap.kraft_partial())
    assert len(kraft) > 2 * sys.get_int_max_str_digits()
    num, den = kraft.split("/")
    assert Fraction(int_from_text(num), int_from_text(den)) == \
        snap.kraft_partial()
    path = tmp_path / "big.snap"
    save_snapshot(snap, path)
    assert path.read_text().splitlines()[-1] == f"KRAFT {kraft}"
    back = load_snapshot(path)
    assert back.census == snap.census
    assert back.machine is snap.machine
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["thermo", "--snapshot", str(path), "--T", "1/2",
                     "--limit"]) == 0
    Z = json.loads(out.getvalue())["results"][0]["quantities"][0]
    assert Z["quantity"] == "Z"
    expected = eval_limit(snap, Fraction(1, 2)).Z
    assert Z["value"]["lo"]["dyadic"] == expected.lo.serialize()
    assert Z["value"]["hi"]["dyadic"] == expected.hi.serialize()


def test_load_rejects_prefix_violation(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_text("\n".join([
        "THERMOAIT-SNAPSHOT v1",
        "ensemble=custom budget=1 maxlen=3",
        "L 1 1", "L 3 1",
        "P 1 0 - 0",
        "P 2 001 - 0",
        "KRAFT 5/8",
    ]) + "\n")
    # the census is sound, so the file loads; its records are checked on
    # their first read
    snap = load_snapshot(path)
    with pytest.raises(SnapshotError, match="prefix-free") as err:
        snap.programs
    assert isinstance(err.value.__cause__, InvariantViolation)


def test_load_rejects_kraft_violation(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_text("\n".join([
        "THERMOAIT-SNAPSHOT v1",
        "ensemble=custom budget=1 maxlen=1",
        "L 1 3",
        "KRAFT 3/2",
    ]) + "\n")
    with pytest.raises(SnapshotError, match="Kraft") as err:
        load_snapshot(path)
    assert isinstance(err.value.__cause__, InvariantViolation)


def test_validate_rejects_negative_census_count():
    census = {**builtin_snapshot("geometric", 4, program_cap=0).census, 2: -1}
    with pytest.raises(InvariantViolation, match="negative"):
        EnsembleSnapshot("geometric", 4, 4, [], census)


def test_load_rejects_checksum_mismatch(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_text("\n".join([
        "THERMOAIT-SNAPSHOT v1",
        "ensemble=custom budget=1 maxlen=2",
        "L 2 1",
        "P 1 11 - 1",
        "KRAFT 1/2",
    ]) + "\n")
    with pytest.raises(SnapshotError, match="checksum"):
        load_snapshot(path)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_text("nope\n")
    with pytest.raises(SnapshotError, match="magic"):
        load_snapshot(path)


@pytest.mark.parametrize("kind", MACHINES)
def test_loaded_snapshot_gets_machine_only_on_census_match(tmp_path, kind):
    snap = builtin_snapshot(kind, 24, program_cap=64)
    path = tmp_path / "m.snap"
    save_snapshot(snap, path)
    back = load_snapshot(path)
    assert back.census == snap.census
    assert back.machine is snap.machine is MACHINES[kind]
    # the census without its last length is a valid file, but no longer
    # this machine's census at this maxlen
    census = dict(snap.census)
    del census[max(census)]
    short = EnsembleSnapshot(kind, snap.step_budget, 24, [], census)
    save_snapshot(short, path)
    assert load_snapshot(path).machine is None
    # a zero count at a length the census lacks holds no program: the
    # nonzero census still matches
    zero = snap._replace(programs=[], census={
        **snap.census, min(set(range(25)) - set(snap.census)): 0})
    save_snapshot(zero, path)
    assert load_snapshot(path).machine is MACHINES[kind]


@pytest.mark.parametrize("bad", [
    "KRAFT", "KRAFT 1/0", "L 1 x", "P x 0 - 0", "KRAFT 1", "P 1 0 - y",
    "L 2 -1", "P 1 2 - 0", "P 1 0 -1 0", "P 2 0 - 0", "P 1 0 - 0 0",
])
def test_malformed_line_is_snapshot_error(tmp_path, bad):
    path = tmp_path / "bad.snap"
    path.write_text("\n".join(["THERMOAIT-SNAPSHOT v1",
                               "ensemble=custom budget=1 maxlen=2",
                               "L 1 1", bad]) + "\n")
    with pytest.raises(SnapshotError, match="^line 4: "):
        load_snapshot(path)


def test_non_utf8_byte_is_snapshot_error(tmp_path):
    data = (b"THERMOAIT-SNAPSHOT v1\nensemble=custom budget=1 maxlen=2\n"
            b"L 1 \xff1\nKRAFT 1/2\n")
    path = tmp_path / "bad.snap"
    path.write_bytes(data)
    with pytest.raises(SnapshotError, match=f"^line 3: byte "
                       f"{data.index(0xff)} is not UTF-8"):
        load_snapshot(path)


def test_mutated_snapshot_loads_or_is_snapshot_error(tmp_path):
    # 500 seeded mutations of a saved sdm4 snapshot, each of 1 to 3 bytes
    # replaced, inserted or deleted: every file either loads and validates,
    # its records included, or raises SnapshotError, whatever it breaks
    # (UTF-8, a record, the checksum, prefix-freeness, a replay), at the
    # load or at the first read of its records
    path = tmp_path / "sdm4.snap"
    save_snapshot(builtin_snapshot("sdm4", 10), path)
    data = path.read_bytes()
    rng = random.Random(20261018)
    outcomes = Counter()
    for _ in range(500):
        mutated = bytearray(data)
        for _ in range(rng.randint(1, 3)):
            at, op = rng.randrange(len(mutated)), rng.randrange(3)
            if op == 0:
                mutated[at] = rng.randrange(256)
            elif op == 1:
                mutated.insert(at, rng.randrange(256))
            else:
                del mutated[at]
        path.write_bytes(bytes(mutated))
        try:
            load_snapshot(path).programs
            outcomes["loaded"] += 1
        except SnapshotError as exc:
            outcomes["not UTF-8" if "not UTF-8" in str(exc)
                     else "rejected"] += 1
    assert outcomes["not UTF-8"] and outcomes["rejected"]


def test_lengths_up_to():
    snap = builtin_snapshot("sdm4", 6)
    assert [l for l, c in snap.length_counts_up_to(4)
            for _ in range(c)] == [2, 4, 4, 6]
    with pytest.raises(InvariantViolation):
        snap.length_counts_up_to(99)


# -- the snapshot's readers --------------------------------------------

@st.composite
def censuses(draw):
    """A census that a prefix-free domain can have (its Kraft sum at most
    1), with zero counts and gaps among its lengths, in a drawn key order;
    some counts fill what the Kraft sum leaves at their length."""
    census, free = {}, Fraction(1)
    for l in sorted(draw(st.sets(st.integers(0, 40), max_size=12))):
        room = int(free * 2**l)  # programs of length l that still fit
        count = draw(st.sampled_from([0, room]) | st.integers(0, room))
        census[l] = count
        free -= Fraction(count, 2**l)
    return {l: census[l] for l in draw(st.permutations(list(census)))}


def _prefix(groups, k):
    """The first k programs of groups as (length, count) pairs."""
    out = []
    for l, count in groups:
        if k <= 0:
            break
        out.append((l, min(count, k)))
        k -= count
    return out


@settings(max_examples=200, deadline=None, derandomize=True)
@given(censuses(), st.integers(0, 8), st.data())
def test_readers_equal_a_sort_based_reference(census, extra, data):
    # groups, the depth-k prefixes, the total and the Kraft sum, from the
    # census sorted afresh; the caller's dict is copied, so a change to it
    # after the build changes nothing
    maxlen = max(census, default=0) + extra
    given_census = dict(census)
    snap = EnsembleSnapshot("random", 0, maxlen, [], given_census)
    given_census.clear()
    given_census[maxlen] = 2**maxlen
    groups = [(l, census[l]) for l in sorted(census) if census[l]]
    total = sum(count for _, count in groups)
    assert snap.census == census
    assert list(snap.groups()) == groups
    for L in range(-1, maxlen + 2):
        assert list(snap.groups(L)) == [(l, c) for l, c in groups if l <= L]
    assert snap.total == total
    assert snap.kraft_partial() == sum(Fraction(c, 2**l) for l, c in groups)
    ends = [sum(c for _, c in groups[:i]) for i in range(len(groups) + 1)]
    ks = data.draw(st.lists(st.integers(0, total), max_size=6))
    for k in {*ks, *ends, *(e + 1 for e in ends if e < total)}:
        assert list(snap.length_counts_up_to(k)) == _prefix(groups, k), k
    with pytest.raises(InvariantViolation, match=(
            f"^census covers only {total} programs, {total + 1} requested$")):
        snap.length_counts_up_to(total + 1)


@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(censuses(), st.integers(0, 40), st.integers(1, 3))
def test_a_kraft_violating_census_builds_no_snapshot(tmp_path, census,
                                                     length, excess):
    # one more program at a length than the Kraft sum leaves room for: the
    # constructor raises, and so does a file of it, whose recorded Kraft
    # sum matches its census
    free = 1 - sum(Fraction(c, 2**l) for l, c in census.items())
    census = {**census, length: census.get(length, 0)
              + int(free * 2**length) + excess}
    maxlen = max(census)
    with pytest.raises(InvariantViolation, match="Kraft"):
        EnsembleSnapshot("custom", 0, maxlen, [], census)
    kraft = sum(Fraction(c, 2**l) for l, c in census.items())
    path = tmp_path / "over.snap"
    path.write_text("\n".join([
        "THERMOAIT-SNAPSHOT v1", f"ensemble=custom budget=0 maxlen={maxlen}",
        *(f"L {l} {int_text(c)}" for l, c in census.items()),
        f"KRAFT {int_text(kraft.numerator)}/{int_text(kraft.denominator)}",
    ]) + "\n")
    with pytest.raises(SnapshotError, match="Kraft") as err:
        load_snapshot(path)
    assert isinstance(err.value.__cause__, InvariantViolation)


def test_a_machine_the_census_does_not_match_is_dropped():
    # geometric's census through length 10 has one program per length; one
    # program of length 1 alone is not that census, so the label's
    # generating function (Z = 1/3 at T = 1/2) is not used.  The census is
    # complete through 10, so Z lies in [1/4, 1025/4096]: the census sum
    # 1/4, plus at most its Kraft slack 1/2 times 2^-11, the largest weight
    # per unit of Kraft mass, 2^-l, past length 10
    snap = EnsembleSnapshot("x", 1, 10, [], {1: 1}, MACHINES["geometric"])
    assert snap.machine is None
    Z = eval_limit(snap, Fraction(1, 2)).Z
    assert Fraction(1, 4) <= Z.lo.as_fraction()
    assert Z.hi.as_fraction() <= Fraction(1025, 4096)
