"""End-to-end command-line checks: exit codes, formats, determinism."""

import io
import json
from contextlib import redirect_stdout, redirect_stderr
from fractions import Fraction

import pytest

from thermoait.cli import main
from thermoait.dyadic import Dyadic


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
    code, out, _ = run("thermo", "--snapshot", str(path), "--T", "1/2",
                       "--k", "2")
    assert code == 0
    assert json.loads(out)["ensemble"] == "geometric"


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
    code, _, err = run("reconstruct", "--T", "1/2", "--u", "3/4", "--n",
                       "16", "--b", "5")
    assert code == 2 and "certified exponent" in err


def test_witness_file_oracle(tmp_path):
    path = tmp_path / "oracle.txt"
    # a descending upper oracle for Z(1/2) = 1/3; the last value must
    # undercut Z(1/2 + 2^-20), about 1/3 + 1.2e-6
    path.write_text("1*2^-1\n11*2^-5\n22369622*2^-26\n", encoding="utf-8")
    code, out, _ = run("witness", "--T", "1/2", "--n", "20", "--oracle",
                       f"file:{path}")
    assert code == 0
    assert json.loads(out)["k_e"] >= 1


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
