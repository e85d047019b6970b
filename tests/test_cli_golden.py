"""CLI output is byte-identical to recorded goldens: stdout, stderr, exit
code and saved snapshot files for every subcommand, in JSON and CSV.

A deliberate output change regenerates the goldens and names the change:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from thermoait.cli import main

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# each case runs its commands in order in one fresh directory, {tmp}
CASES = [
    ("enumerate --machine sdm4 --budget 200 --maxlen 12 --save {tmp}/s.snap",
     "thermo --snapshot {tmp}/s.snap --T 1/2 --limit",
     "--format csv thermo --snapshot {tmp}/s.snap --T 3/8 --k 40"),
    ("--format csv enumerate --machine geometric --budget 10 --maxlen 24 "
     "--save {tmp}/g.snap",),
    ("thermo --machine sdm4 --maxlen 400 --T 1/2 --limit",),
    ("--format csv thermo --machine geometric --grid 1/4:3/4:1/4",),
    ("thermo --machine literal --maxlen 40 --T 3/8 --k 10",),
    ("--precision 256 thermo --machine gamma_literal --maxlen 300 --T 7/8",),
    ("verify --machine sdm4 --maxlen 60 --grid 1/4:1/2:1/4",),
    ("--format csv verify --machine geometric --maxlen 8 --grid 1/2:1/2:1",),
    ("solve --quantity E --target 4/3 --tol 1*2^-20",),
    ("--format csv solve --machine literal --maxlen 40 --quantity F "
     "--target 3/4 --tol 1*2^-16",),
    ("witness --T 1/2 --n 12",),
    ("--format csv witness --T 3/8 --n 10 --oracle grid:1*2^-10",),
    ("reconstruct --T 1/2 --u 3/4 --n 16",),
    ("--format csv --precision 256 reconstruct --T 3/8 --u 5/8 --n 12",),
    ("complexity --machine sdm4 --maxlen 10",),
    ("--format csv complexity --machine literal --maxlen 7",),
    ("profile --alpha Z@1/2 --machine literal --maxlen 21 --N 6",),
    ("--format csv profile --alpha 5/8 --machine gamma_literal --maxlen 17 "
     "--N 6",),
    ("thermo --machine geometric --T 0",),
    ("thermo --machine geometric --T 1/2 --wat 1",),
    ("solve --machine literal --maxlen 1 --quantity Z --target 1/2 "
     "--tol 1*2^-10",),
    ("solve --machine literal --maxlen 40 --quantity F --target 1 "
     "--tol 1*2^-16",),
]


def _run_case(case, tmp: Path) -> dict:
    """The case's outputs with the directory's path written as {tmp}."""
    runs = []
    for command in case:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(command.format(tmp=tmp).split())
        runs.append({"code": code,
                     "stdout": out.getvalue().replace(str(tmp), "{tmp}"),
                     "stderr": err.getvalue().replace(str(tmp), "{tmp}")})
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(tmp.iterdir())}
    return {"runs": runs, "files": files}


def _key(case) -> str:
    return " ; ".join(case)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _fixed_environment(monkeypatch):
    # argparse wraps its usage text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


@pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
def test_output_matches_the_golden(golden, case, tmp_path):
    assert _run_case(case, tmp_path) == golden[_key(case)]


def test_every_golden_has_a_case(golden):
    assert sorted(golden) == sorted(map(_key, CASES))


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    goldens = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            goldens[_key(case)] = _run_case(case, Path(tmp))
    GOLDEN.write_text(json.dumps(goldens, indent=1) + "\n", encoding="utf-8")
