"""End-to-end command-line checks: exit codes, formats, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from thermoait import ensembles, fixedpoint
from thermoait.cli import main
from thermoait.dyadic import Dyadic, int_text
from thermoait.ensembles import (
    EnsembleSnapshot, builtin_snapshot, get_machine, load_snapshot,
    save_snapshot,
)
from thermoait.errors import SnapshotError
from thermoait.relations import _identities_and_positivity, check_monotone
from thermoait.thermo import eval_limit, eval_partial

SRC = Path(__file__).resolve().parent.parent / "src"


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


# -- exit codes --------------------------------------------------------

def test_usage_error_unknown_command():
    code, _, _ = run("frobnicate")
    assert code == 2


def test_usage_error_unknown_flag():
    code, _, _ = run("thermo", "--machine", "geometric", "--T", "1/2",
                     "--wat", "1")
    assert code == 2


def test_domain_error_T_zero():
    code, _, err = run("thermo", "--machine", "geometric", "--T", "0")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("thermo", "--machine", "geometric", "--T", "1/3"),
    ("solve", "--quantity", "E", "--target", "4/3", "--tol", "1/1000"),
    ("thermo", "--machine", "geometric", "--grid", "1/4,1/2"),
    ("thermo", "--machine", "geometric", "--grid", "1/4:3/4:0"),
    ("solve", "--quantity", "E", "--target", "1/0", "--tol", "1*2^-20"),
])
def test_bad_argument_value_is_usage_error(argv):
    code, _, err = run(*argv)
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("witness", "--T", "1/2", "--n", "12", "--oracle", "grid:1/0"),
    ("witness", "--T", "1/2", "--n", "12", "--oracle", "file:{path}"),
    ("reconstruct", "--T", "1/2", "--u", "3/4", "--n", "4",
     "--oracle-B", "file:{path}"),
    ("profile", "--alpha", "1/0", "--N", "4"),
    ("profile", "--alpha", "Z@1/0", "--N", "4"),
], ids=["witness grid", "witness file", "reconstruct file", "profile alpha",
        "profile alpha at T"])
def test_a_zero_denominator_is_usage_error(argv, tmp_path):
    oracle = tmp_path / "oracle.txt"
    oracle.write_text("1/0\n", encoding="utf-8")
    code, out, err = run(*(a.format(path=oracle) for a in argv))
    assert (code, out) == (2, "")
    assert err == "error: zero denominator in '1/0'\n"


@pytest.mark.parametrize("argv, flag", [
    (("solve", "--quantity", "Z", "--target", "abc", "--tol", "1*2^-20"),
     "--target"),
    (("solve", "--quantity", "Z", "--target", "1/2", "--tol", "abc"),
     "--tol"),
    (("thermo", "--machine", "geometric", "--T", "abc"), "--T"),
    (("thermo", "--machine", "geometric", "--grid", "0:1:abc"), "--grid"),
])
def test_a_malformed_number_names_the_text(argv, flag):
    code, _, err = run(*argv)
    assert code == 2
    assert f"argument {flag}: 'abc' is not a" in err
    assert "_parse" not in err and "Traceback" not in err


def test_certification_error_exits_3():
    # literal up to length 1 has one program length: no slope certifies
    code, out, err = run("solve", "--machine", "literal", "--maxlen", "1",
                         "--quantity", "Z", "--target", "1/2", "--tol",
                         "1*2^-10")
    assert (code, out) == (3, "")
    assert err == ("error: ensemble has a single program length; slopes "
                   "cannot be certified\n")


def test_precision_error_exits_4():
    # on gamma_literal Z is about 2^-95 near T = 1/48: the rounding grid
    # of its Kraft-slack tail leaves the solver's comparisons unresolved
    # at 64 bits, and 160 bits resolve them
    argv = ("solve", "--machine", "gamma_literal", "--maxlen", "200",
            "--quantity", "Z", "--target", f"1/{1 << 95}", "--tol",
            "1*2^-30")
    code, out, err = run(*argv)
    assert (code, out) == (4, "")
    assert err.startswith("error: at 64 bits of working precision ")
    assert run("--precision", "160", *argv)[0] == 0


def test_thermo_needs_T_or_grid_not_both():
    base = ("thermo", "--machine", "geometric")
    assert run(*base)[0] == 2
    assert run(*base, "--T", "1/2", "--grid", "1/4:3/4:1/4")[0] == 2


def test_verify_passes_on_sdm4():
    code, out, _ = run("verify", "--machine", "sdm4", "--maxlen", "60",
                       "--grid", "1/4:3/4:1/4")
    assert code == 0
    assert json.loads(out)["failures"] == 0


def test_verify_passes_on_a_snapshot_of_fewer_than_12_programs():
    code, out, err = run("verify", "--machine", "geometric", "--maxlen", "8",
                         "--grid", "1/2:1/2:1/4")
    assert code == 0, err
    assert json.loads(out)["failures"] == 0


def test_verify_on_one_program_runs_no_depth_sweep():
    # the depth sweep compares depths 1..k_max >= 2, which one program
    # does not have; every other check still runs
    code, out, err = run("verify", "--machine", "geometric", "--maxlen", "1",
                         "--grid", "1/2:1/2:1", "--k", "1")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert doc["checks"] and not [c for c in doc["checks"]
                                  if c["k"] == "depth-sweep"]


def test_verify_default_depth_is_cut_to_the_census_total():
    # no --k: the default depth 4 is cut to the 3 programs of the census;
    # a depth the user sets is not cut
    base = ("verify", "--machine", "geometric", "--maxlen", "3", "--grid",
            "1/2:1/2:1")
    code, out, err = run(*base)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert {c["k"] for c in doc["checks"]} == {"3", "limit", "depth-sweep"}
    code, _, err = run(*base, "--k", "4")
    assert code == 2
    assert err == "error: census covers only 3 programs, 4 requested\n"


def test_a_zero_count_census_line_changes_no_output(tmp_path):
    # a census line `L <length> 0` holds no program: verify prints the same
    # bytes with or without it, and no strict witness stands on it
    outs = []
    for name, census in (("zero", {3: 2, 10: 0}), ("plain", {3: 2})):
        path = tmp_path / f"{name}.snap"
        save_snapshot(EnsembleSnapshot("custom", 0, 10, [], census), path)
        code, out, err = run("--format", "csv", "verify", "--snapshot",
                             str(path), "--grid", "1/2:1/2:1", "--k", "2")
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1]
    assert "strict" not in outs[0]
    # a machine's file with a zero line still carries the machine
    path = tmp_path / "sdm4.snap"
    assert run("enumerate", "--machine", "sdm4", "--budget", "20",
               "--maxlen", "8", "--save", str(path))[0] == 0
    text = path.read_text()
    assert "\nL 4 " in text
    path.write_text(text.replace("\nL 4 ", "\nL 3 0\nL 4 ", 1))
    assert load_snapshot(path).machine is get_machine("sdm4")
    assert (run("thermo", "--snapshot", str(path), "--T", "1/2", "--limit")
            == run("thermo", "--machine", "sdm4", "--maxlen", "8", "--T",
                   "1/2", "--limit"))


@pytest.mark.parametrize("bad", ["KRAFT", "KRAFT 1/0", "L 1 x", "P x 0 - 0"])
def test_malformed_snapshot_is_usage_error(tmp_path, bad):
    path = tmp_path / "bad.snap"
    path.write_text("\n".join(["THERMOAIT-SNAPSHOT v1",
                               "ensemble=custom budget=1 maxlen=2",
                               "L 1 1", bad]) + "\n")
    code, _, err = run("thermo", "--snapshot", str(path), "--T", "1/2")
    assert code == 2
    assert "error: line 4:" in err
    assert "Traceback" not in err


def test_edited_sdm4_record_is_usage_error(tmp_path):
    # the census still matches sdm4, so the file carries the machine; its
    # records must replay on the interpreter
    path = tmp_path / "sdm4.snap"
    assert run("enumerate", "--machine", "sdm4", "--budget", "20",
               "--maxlen", "8", "--save", str(path))[0] == 0
    text = path.read_text()
    assert "P 2 0011 0 2\n" in text
    path.write_text(text.replace("P 2 0011 0 2\n", "P 2 0011 111 2\n"))
    code, out, err = run("complexity", "--snapshot", str(path))
    assert code == 2
    assert out == ""
    assert "error: replay mismatch" in err


def test_an_edited_record_fails_only_the_commands_that_read_it(tmp_path):
    # thermo and verify read the census alone: the edited file prints the
    # unedited file's bytes.  complexity and profile read the outputs, and
    # the first read of the records replays them
    paths = {name: tmp_path / f"{name}.snap" for name in ("plain", "edited")}
    assert run("enumerate", "--machine", "sdm4", "--budget", "20",
               "--maxlen", "8", "--save", str(paths["plain"]))[0] == 0
    text = paths["plain"].read_text()
    assert "P 2 0011 0 2\n" in text
    paths["edited"].write_text(text.replace("P 2 0011 0 2\n",
                                            "P 2 0011 1 2\n"))
    for argv in (("thermo", "--T", "1/2", "--limit"),
                 ("verify", "--grid", "1/4:3/4:1/4")):
        plain, edited = (run(argv[0], "--snapshot", str(paths[name]),
                             *argv[1:]) for name in ("plain", "edited"))
        assert plain[0] == 0 and plain[1]
        assert edited == plain
    for argv in (("complexity",), ("profile", "--alpha", "1/2", "--N", "4")):
        code, out, err = run(argv[0], "--snapshot", str(paths["edited"]),
                             *argv[1:])
        assert (code, out) == (2, "")
        assert err.startswith("error: replay mismatch for '0011'")
        assert "Traceback" not in err
    snap = load_snapshot(paths["edited"])
    with pytest.raises(SnapshotError, match="replay mismatch"):
        snap.programs


def test_thermo_on_a_builtin_machine_runs_no_program():
    with mock.patch.object(ensembles, "run_sdm4",
                           wraps=ensembles.run_sdm4) as run_sdm4:
        code, out, _ = run("thermo", "--machine", "sdm4", "--maxlen",
                           "1500", "--T", "1/2", "--limit")
    assert code == 0 and out
    assert run_sdm4.call_count == 0


# -- thermo output -----------------------------------------------------

def test_thermo_renders_wide_dyadics():
    # Z.lo at depth 600 and T = 1/16 has 9600 decimal digits, more than
    # the interpreter's default int-to-str limit
    code, out, err = run("thermo", "--machine", "geometric", "--maxlen",
                         "600", "--k", "600", "--T", "1/16")
    assert code == 0, err
    z_lo = json.loads(out)["results"][0]["quantities"][0]["value"]["lo"]
    assert len(z_lo["decimal"]) > 9600

def test_thermo_limit_contains_closed_form():
    code, out, _ = run("thermo", "--machine", "geometric", "--T", "1/2",
                       "--limit")
    assert code == 0
    doc = json.loads(out)
    z = next(q for q in doc["results"][0]["quantities"]
             if q["quantity"] == "Z")
    lo = Dyadic.parse(z["value"]["lo"]["dyadic"]).as_fraction()
    hi = Dyadic.parse(z["value"]["hi"]["dyadic"]).as_fraction()
    assert lo <= Fraction(1, 3) <= hi


def test_thermo_csv_no_bare_floats():
    code, out, _ = run("--format", "csv", "thermo", "--machine", "geometric",
                       "--T", "1/2", "--k", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("T,quantity,k,value_lo")
    for line in lines[1:]:
        cells = line.split(",")
        assert "*2^" in cells[3] and "*2^" in cells[5]
        # decimal renderings are exact expansions, not repr(float)
        assert "e" not in cells[4] and "e" not in cells[6]


def test_byte_identical_reruns():
    args = ("--format", "csv", "thermo", "--machine", "sdm4", "--maxlen",
            "40", "--grid", "1/4:3/4:1/4", "--limit")
    assert run(*args) == run(*args)


def test_precision_comes_from_the_flag_alone(monkeypatch):
    # an invocation's output depends on argv and files only: the variable
    # that once set the default precision changes nothing, even unparsable
    argv = ("thermo", "--machine", "geometric", "--T", "1/2")
    monkeypatch.delenv("THERMOAIT_PRECISION", raising=False)
    unset = run(*argv)
    assert unset[0] == 0 and json.loads(unset[1])["precision_bits"] == 64
    for value in ("96", "8", "abc"):
        monkeypatch.setenv("THERMOAIT_PRECISION", value)
        assert run(*argv) == unset, value
    _, out96, _ = run("--precision", "96", *argv)
    assert json.loads(out96)["precision_bits"] == 96
    code, _, err = run("--precision", "8", *argv)
    assert code == 2 and "precision" in err


# -- enumerate / snapshot round trip -----------------------------------

def test_enumerate_then_thermo(tmp_path):
    path = tmp_path / "geo.snap"
    code, out, _ = run("enumerate", "--machine", "geometric", "--budget",
                       "10", "--maxlen", "24", "--save", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["programs"] == 24
    assert doc["kraft_partial"] == f"{(1 << 24) - 1}/{1 << 24}"
    assert out == json.dumps(doc, indent=2) + "\n"
    code, out, _ = run("thermo", "--snapshot", str(path), "--T", "1/2",
                       "--k", "2")
    assert code == 0
    assert json.loads(out)["ensemble"] == "geometric"


def test_enumerate_reports_a_census_total_past_the_int_digit_limit(tmp_path):
    # 4342 digits: json.dumps would refuse it (repr applies the limit)
    path = tmp_path / "big.snap"
    code, out, err = run("enumerate", "--machine", "sdm4", "--budget", "1",
                         "--maxlen", "18200", "--save", str(path))
    assert (code, err) == (0, "")
    total = sum(c for _, c in get_machine("sdm4").census(18200))
    digits = int_text(total)
    assert len(digits) > 4300
    assert f'"census_total": {digits},\n' in out
    doc = json.loads(out.replace(digits, "0"))
    assert (doc["ensemble"], doc["max_length"], doc["saved"]) == (
        "sdm4", 18200, str(path))


# -- solver / fixed-point front ends -----------------------------------

def test_solve_roundtrip():
    code, out, _ = run("solve", "--quantity", "E", "--target", "4/3",
                       "--tol", "1*2^-30")
    assert code == 0
    doc = json.loads(out)
    lo = Dyadic.parse(doc["temperature"]["lo"]["dyadic"]).as_fraction()
    hi = Dyadic.parse(doc["temperature"]["hi"]["dyadic"]).as_fraction()
    assert lo <= Fraction(1, 2) <= hi


def test_solve_takes_the_exact_target():
    # the exact 4/3 is rounded at 2^-200's working precision, not at the
    # default 64 bits, so this tolerance is reachable
    code, out, err = run("solve", "--quantity", "E", "--target", "4/3",
                         "--tol", "1*2^-200")
    assert code == 0, err
    doc = json.loads(out)
    lo = Dyadic.parse(doc["temperature"]["lo"]["dyadic"]).as_fraction()
    hi = Dyadic.parse(doc["temperature"]["hi"]["dyadic"]).as_fraction()
    assert lo <= Fraction(1, 2) <= hi
    assert Dyadic.parse(doc["width"]["dyadic"]) <= Dyadic(1, -203)


def test_solve_F_sign_convention():
    # F(1/2) = -(1/2) log2 (1/3) is positive; the CLI accepts F directly
    code, out, _ = run("solve", "--quantity", "F", "--target", "4/5",
                       "--tol", "1*2^-20")
    assert code == 0
    doc = json.loads(out)
    assert doc["quantity"] == "F"


def test_solve_out_of_range_is_usage_error():
    # the message renders the searched bracket as fractions
    for quantity, target, side in (("Z", "10", "above"), ("E", "1", "below")):
        code, out, err = run("solve", "--machine", "geometric", "--quantity",
                             quantity, "--target", target, "--tol", "1*2^-20")
        assert (code, out) == (2, "")
        assert err == (f"error: target {side} the quantity's range on "
                       f"[1/64, 63/64]\n")


def test_witness_cli():
    code, out, _ = run("--format", "csv", "witness", "--T", "1/2", "--n",
                       "20")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "T,n,k_e,length_threshold,witness,verified_through"
    cells = row.split(",")
    assert cells[0] == "1/2" and cells[4] == "-"
    assert int(cells[5]) == 10 * int(cells[2])


def test_reconstruct_cli():
    code, out, _ = run("reconstruct", "--T", "1/2", "--u", "3/4", "--n",
                       "16")
    assert code == 0
    doc = json.loads(out)
    assert doc["beta_bits_used"] == 11
    cand = Dyadic.parse(doc["candidate"]["dyadic"]).as_fraction()
    rad = Dyadic.parse(doc["radius"]["dyadic"]).as_fraction()
    assert abs(cand - Fraction(1, 2)) < rad


def test_reconstruct_b_mismatch():
    # reconstruct certifies the Z handle, whose b is always 0: there is no
    # --b to choose, and argparse rejects one
    code, out, err = run("reconstruct", "--T", "1/2", "--u", "3/4", "--n",
                         "16", "--b", "5")
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: --b 5" in err


def test_witness_file_oracle(tmp_path):
    path = tmp_path / "oracle.txt"
    # a descending upper oracle for Z(1/2) = 1/3; the last value must
    # undercut Z(1/2 + 2^-20), about 1/3 + 1.2e-6
    path.write_text("1*2^-1\n11*2^-5\n22369622*2^-26\n", encoding="utf-8")
    code, out, _ = run("witness", "--T", "1/2", "--n", "20", "--oracle",
                       f"file:{path}")
    assert code == 0
    assert json.loads(out)["k_e"] >= 1


def test_witness_grid_oracle():
    # the grid oracle descends to Z(1/2) rounded up on a 2^-10 grid; the
    # threshold T(n - a - b) comes from the handle, whatever the oracle
    code, out, err = run("witness", "--T", "1/2", "--n", "20", "--oracle",
                         "grid:1*2^-10")
    assert code == 0 and err == ""
    doc = json.loads(out)
    _, closed, _ = run("witness", "--T", "1/2", "--n", "20")
    assert doc["length_threshold"] == json.loads(closed)["length_threshold"]
    assert (doc["T"], doc["n"], doc["witness"]) == ("1/2", 20, "-")
    assert 1 <= doc["k_e"] <= doc["verified_through"] <= 10 * doc["k_e"]


def test_witness_past_the_stored_records_is_usage_error(tmp_path):
    path = tmp_path / "sdm4.snap"
    save_snapshot(builtin_snapshot("sdm4", 200, program_cap=64), path)
    code, out, err = run("witness", "--snapshot", str(path), "--T", "1/2",
                         "--n", "20")
    assert (code, out) == (2, "")
    assert err == ("error: snapshot stores 30 program records; listing "
                   "outputs needs the first k_e = 912\n")


def test_reconstruct_grid_oracle_is_usage_error():
    code, out, err = run("reconstruct", "--T", "1/2", "--u", "3/4", "--n",
                         "16", "--oracle-B", "grid:1*2^-10")
    assert (code, out) == (2, "")
    assert err == "error: grid oracles only serve upper bounds\n"


@pytest.mark.parametrize("u, machine", [
    ("0", ()), ("1/4", ()), ("1", ()), ("3/2", ()),
    ("1", ("--machine", "gamma_literal", "--maxlen", "300")),
], ids=["zero", "below T", "one", "above one", "one on gamma_literal"])
def test_reconstruct_u_outside_the_temperatures_is_usage_error(u, machine):
    # u is checked against (T, 1) before the handle is certified
    with mock.patch.object(fixedpoint, "certify",
                           wraps=fixedpoint.certify) as counter:
        code, out, err = run("reconstruct", *machine, "--T", "1/2", "--u", u,
                             "--n", "8")
    assert (code, out, counter.call_count) == (2, "", 0)
    assert err == f"error: u = {u} outside (T, 1) = (1/2, 1)\n"


@pytest.mark.parametrize("T, certified, err", [
    ("1", 0, "error: temperature 1 outside (0, 1)\n"), ("1/2", 1, ""),
], ids=["T one", "valid"])
def test_reconstruct_reads_T_before_it_certifies(T, certified, err):
    # --T is read as a temperature before u is checked against it, and the
    # handle is certified once both hold
    with mock.patch.object(fixedpoint, "certify",
                           wraps=fixedpoint.certify) as counter:
        code, _, got = run("reconstruct", "--T", T, "--u", "3/4", "--n", "8")
    assert (code, got, counter.call_count) == (2 if err else 0, err,
                                               certified)


def test_reconstruct_A_value_outside_the_window_is_usage_error(tmp_path):
    path = tmp_path / "A.txt"
    path.write_text("1\n", encoding="utf-8")
    code, out, err = run("reconstruct", "--T", "1/2", "--u", "3/4", "--n",
                         "16", "--oracle-A", f"file:{path}")
    assert (code, out) == (2, "")
    assert err == "error: A oracle value 1*2^0 outside (T, t)\n"


@pytest.mark.parametrize("argv", [
    ("witness", "--T", "1/2", "--n", "20", "--oracle", "bogus"),
    ("reconstruct", "--T", "1/2", "--u", "3/4", "--n", "16",
     "--oracle-A", "grid"),
])
def test_unknown_oracle_spec_is_usage_error(argv):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown oracle spec ")


# -- complexity / profile ----------------------------------------------

def test_complexity_csv():
    code, out, _ = run("--format", "csv", "complexity", "--machine",
                       "literal", "--maxlen", "7")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "output,H,min_program"
    table = {c[0]: c[1:] for c in (l.split(",") for l in lines[1:])}
    assert table["-"] == ["1", "0"]       # H(empty) = 1 via program "0"
    assert table["101"] == ["7", "1110101"]


def test_profile_worked_example_csv():
    code, out, _ = run("--format", "csv", "profile", "--alpha", "5/8",
                       "--machine", "gamma_literal", "--maxlen", "17",
                       "--N", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,bits,H,ratio"
    assert lines[-1] == "6,101000,11,11/6"


def test_profile_quantity_alpha():
    code, out, _ = run("profile", "--alpha", "Z@1/2", "--machine",
                       "literal", "--maxlen", "21", "--N", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["profile"][-1]["bits"] == "010101"  # 1/3 = 0.0101...
    assert all(e["status"] == "ok" for e in doc["profile"])


# -- what a command loads and builds -----------------------------------

# every command loads the package's core modules and the CLI
CORE = {"bitstring", "cli", "dyadic", "enclosure", "ensembles", "errors",
        "thermo"}

# standard-library modules no command needs: the first two cost a fresh
# process 10-13 ms to import, pathlib about 9 ms where site does not
# import it already
UNNEEDED = {"dataclasses", "inspect", "pathlib"}


def _child_output(code: str, *argv: str) -> list[str]:
    """stdout of `python -c code argv`, split, with the package on the
    path and no bytecode written (as a fresh command compiles it)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


@pytest.fixture(scope="module")
def bare_modules():
    """The modules a bare interpreter has loaded, in the same environment."""
    return set(_child_output("import sys; print(*sys.modules)"))


@pytest.mark.parametrize("argv, loads", [
    ("thermo --machine geometric --maxlen 60 --T 1/2 --limit", set()),
    ("enumerate --machine geometric --budget 10 --maxlen 24 --save {tmp}",
     set()),
    ("verify --machine geometric --maxlen 40 --grid 1/2:1/2:1",
     {"relations"}),
    ("solve --quantity E --target 4/3 --tol 1*2^-10", {"fixedpoint"}),
    ("witness --T 1/2 --n 12", {"fixedpoint"}),
    ("reconstruct --T 1/2 --u 3/4 --n 16", {"fixedpoint"}),
    ("complexity --machine literal --maxlen 7", {"complexity"}),
    ("profile --alpha Z@1/2 --machine literal --maxlen 11 --N 4",
     {"complexity"}),
], ids=lambda v: v.split()[0] if isinstance(v, str) else "")
def test_a_command_loads_only_the_modules_it_calls(tmp_path, bare_modules,
                                                   argv, loads):
    child = ("import contextlib, io, sys\n"
             "from thermoait.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(sys.argv[1:])\n"
             "print(code, *sorted(sys.modules))")
    code, *modules = _child_output(
        child, *argv.format(tmp=tmp_path / "snap.txt").split())
    assert code == "0"
    assert {m.split(".", 1)[1] for m in modules
            if m.startswith("thermoait.")} == CORE | loads
    assert not UNNEEDED & (set(modules) - bare_modules)


@pytest.mark.parametrize("kind, maxlen", [
    ("sdm4", 400), ("literal", 200), ("geometric", 600),
    ("gamma_literal", 300),
])
def test_census_commands_read_no_records(kind, maxlen):
    # thermo and verify read the census alone: the evaluations and the
    # relation reports are the same with program records and without
    full = builtin_snapshot(kind, maxlen)
    bare = builtin_snapshot(kind, maxlen, program_cap=0)
    assert full.programs and not bare.programs
    T = Fraction(3, 8)
    assert repr(eval_limit(full, T)) == repr(eval_limit(bare, T))
    assert repr(eval_partial(full, T, 40)) == repr(eval_partial(bare, T, 40))
    for k in (4, "limit"):
        assert (repr(_identities_and_positivity(full, T, k, 64))
                == repr(_identities_and_positivity(bare, T, k, 64)))
    assert (repr(check_monotone(full, Fraction(1, 2), 12))
            == repr(check_monotone(bare, Fraction(1, 2), 12)))


def test_a_huge_header_maxlen_costs_only_the_files_census(tmp_path):
    # load_snapshot compares the file's census with the machine's series
    # expansion, which must stop where the file's census stops: an
    # expansion up to the header's maxlen exhausts a 2 GiB address space
    path = tmp_path / "huge.snap"
    path.write_text("THERMOAIT-SNAPSHOT v1\n"
                    "ensemble=sdm4 budget=1 maxlen=100000000000\n"
                    "L 2 1\nKRAFT 1/4\n", encoding="utf-8")
    child = ("import contextlib, io, resource, sys\n"
             "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
             "from thermoait.cli import main\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    code = main(sys.argv[1:])\n"
             "print(code)")
    assert _child_output(child, "thermo", "--snapshot", str(path), "--T",
                         "1/2", "--limit") == ["0"]
