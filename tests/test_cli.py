"""End-to-end command-line checks: exit codes, formats, determinism."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction
from pathlib import Path

import pytest

from thermoait.cli import main
from thermoait.dyadic import Dyadic, int_text
from thermoait.ensembles import builtin_snapshot, get_machine
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


def test_precision_env_and_flag(monkeypatch):
    monkeypatch.setenv("THERMOAIT_PRECISION", "96")
    _, out96, _ = run("thermo", "--machine", "geometric", "--T", "1/2")
    assert json.loads(out96)["precision_bits"] == 96
    monkeypatch.setenv("THERMOAIT_PRECISION", "8")
    code, _, err = run("thermo", "--machine", "geometric", "--T", "1/2")
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
    code, _, err = run("solve", "--quantity", "Z", "--target", "10",
                       "--tol", "1*2^-20")
    assert code == 2 and "error:" in err


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


def test_reconstruct_grid_oracle_is_usage_error():
    code, out, err = run("reconstruct", "--T", "1/2", "--u", "3/4", "--n",
                         "16", "--oracle-B", "grid:1*2^-10")
    assert (code, out) == (2, "")
    assert err == "error: grid oracles only serve upper bounds\n"


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
    # thermo and verify build their snapshots without program records:
    # the evaluations and the relation reports are the same with them
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
