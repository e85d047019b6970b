"""Enumeration, machine semantics, census counts, and snapshot persistence."""

import io
import json
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from thermoait.bitstring import BitString, LAMBDA
from thermoait.cli import main
from thermoait.dyadic import fraction_text, int_from_text
from thermoait.ensembles import (
    BUDGET, DIVERGE, HALT, MACHINES, builtin_snapshot, gamma_code,
    gamma_literal_length, kraft_slack, load_snapshot, run_sdm4, replay_check,
    save_snapshot, sdm4_census_count,
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
    for m in range(12):
        assert sdm4_census_count(2 * m + 2) == (3 ** (m + 1) + (-1) ** m) // 4
    replay_check(snap)


def test_sdm4_canonical_order_and_prefix_freeness():
    snap = builtin_snapshot("sdm4", 10)
    progs = [r.program for r in snap.programs]
    assert progs == sorted(progs)
    for i, a in enumerate(progs):
        for b in progs[i + 1:]:
            assert not a.is_prefix_of(b)


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
            assert not a.is_prefix_of(b)
    assert snap.kraft_partial() == Fraction(2, 4) + Fraction(4, 32) + Fraction(8, 64)


def test_program_cap_keeps_census_full():
    snap = builtin_snapshot("literal", 7, step_budget=1, program_cap=3)
    assert len(snap.programs) == 3  # whole lengths only: 1 + 2
    assert snap.census == {1: 1, 3: 2, 5: 4, 7: 8}


def test_spec_validation():
    with pytest.raises(SpecError):
        builtin_snapshot("bogus", 5)
    with pytest.raises(SpecError):
        builtin_snapshot("geometric", 0)
    with pytest.raises(SpecError):
        builtin_snapshot("sdm4", 4, step_budget=0)


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
    with pytest.raises(InvariantViolation, match="prefix-free"):
        load_snapshot(path)


def test_load_rejects_kraft_violation(tmp_path):
    path = tmp_path / "bad.snap"
    path.write_text("\n".join([
        "THERMOAIT-SNAPSHOT v1",
        "ensemble=custom budget=1 maxlen=1",
        "L 1 3",
        "KRAFT 3/2",
    ]) + "\n")
    with pytest.raises(InvariantViolation, match="Kraft"):
        load_snapshot(path)


def test_validate_rejects_negative_census_count():
    snap = builtin_snapshot("geometric", 4, program_cap=0)
    snap.census[2] = -1
    with pytest.raises(InvariantViolation, match="negative"):
        snap.validate()


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
    short = builtin_snapshot(kind, 24, program_cap=0)
    del short.census[max(short.census)]
    save_snapshot(short, path)
    assert load_snapshot(path).machine is None


@pytest.mark.parametrize("bad", [
    "KRAFT", "KRAFT 1/0", "L 1 x", "P x 0 - 0", "KRAFT 1", "P 1 0 - y",
    "L 2 -1",
])
def test_malformed_line_is_snapshot_error(tmp_path, bad):
    path = tmp_path / "bad.snap"
    path.write_text("\n".join(["THERMOAIT-SNAPSHOT v1",
                               "ensemble=custom budget=1 maxlen=2",
                               "L 1 1", bad]) + "\n")
    with pytest.raises(SnapshotError, match="^line 4: "):
        load_snapshot(path)


def test_lengths_up_to():
    snap = builtin_snapshot("sdm4", 6)
    assert snap.lengths_up_to(4) == [2, 4, 4, 6]
    with pytest.raises(InvariantViolation):
        snap.lengths_up_to(99)
