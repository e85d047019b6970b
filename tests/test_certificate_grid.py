"""certify's outcomes are identical to a recorded grid: the certificate
constants (k0, a, a_lower, b, c), or the type and message of the error
raised, for Z, -F, E and S at T = i/32 (i = 1 .. 31) on nine snapshots.

A deliberate change of an outcome regenerates the grid and names the
change:

    PYTHONPATH=src python tests/test_certificate_grid.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from thermoait.ensembles import builtin_snapshot
from thermoait.errors import ThermoAITError
from thermoait.fixedpoint import QUANTITY_CHOICES, certify

GRID = Path(__file__).resolve().parent / "data" / "certificate_grid.json"

SNAPSHOTS = {
    "geometric 80": ("geometric", 80, {}),
    "geometric 300": ("geometric", 300, {}),
    "sdm4 200 cap 64": ("sdm4", 200, {"program_cap": 64}),
    "sdm4 1500 cap 512": ("sdm4", 1500, {"program_cap": 512}),
    "sdm4 1500": ("sdm4", 1500, {}),
    "literal 40": ("literal", 40, {}),
    "literal 200 cap 0": ("literal", 200, {"program_cap": 0}),
    "gamma_literal 40": ("gamma_literal", 40, {}),
    "gamma_literal 300": ("gamma_literal", 300, {}),
}
TEMPERATURES = tuple(Fraction(i, 32) for i in range(1, 32))


def _outcome(snap, quantity, T) -> list:
    try:
        h = certify(snap, quantity, T)
    except ThermoAITError as exc:
        return [type(exc).__name__, str(exc)]
    return [h.k0, h.a, h.a_lower, h.b, h.c]


def _grid(name: str) -> dict[str, list]:
    kind, maxlen, options = SNAPSHOTS[name]
    snap = builtin_snapshot(kind, maxlen, **options)
    return {f"{name} | {quantity} | {T}": _outcome(snap, quantity, T)
            for quantity in QUANTITY_CHOICES for T in TEMPERATURES}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GRID.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", SNAPSHOTS)
def test_certificates_match_the_grid(recorded, name):
    got = _grid(name)
    assert got == {key: recorded[key] for key in got}


def test_every_recorded_call_has_a_snapshot(recorded):
    assert len(recorded) == len(SNAPSHOTS) * 4 * len(TEMPERATURES)
    assert {key.split(" | ")[0] for key in recorded} == set(SNAPSHOTS)


if __name__ == "__main__":
    outcomes = {key: value for name in SNAPSHOTS
                for key, value in _grid(name).items()}
    GRID.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(value)}"
        for key, value in outcomes.items()) + "\n}\n", encoding="utf-8")
