"""solve_temperature's enclosures are identical to recorded ones, over the
solve shapes of perfbench's procedures workload (machine, quantity and
tolerance: Z, -F, E and S on geometric 300, Z and -F on sdm4 1500 cap 512),
each at eight fixed targets: the midpoint of eval_limit's value at 256 bits
at a temperature T*, taken as a point.  A handle is certified at T = 1/2
at 64 bits, as the workload's are.

A deliberate change of an enclosure regenerates the record and names the
change:

    PYTHONPATH=src python tests/test_solve_enclosures.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from thermoait.dyadic import Dyadic
from thermoait.enclosure import Enclosure
from thermoait.ensembles import builtin_snapshot
from thermoait.errors import ThermoAITError
from thermoait.fixedpoint import certify, solve_temperature
from thermoait.thermo import eval_limit

RECORD = Path(__file__).resolve().parent / "data" / "solve_enclosures.json"

SNAPSHOTS = {"geometric": ("geometric", 300, {}),
             "sdm4": ("sdm4", 1500, {"program_cap": 512})}
SHAPES = (("geometric", "Z", 30), ("geometric", "-F", 30),
          ("geometric", "E", 50), ("geometric", "S", 30),
          ("sdm4", "Z", 30), ("sdm4", "Z", 50),
          ("sdm4", "-F", 30), ("sdm4", "-F", 50))
# off the probe grids, one in each eighth of [1/4, 3/4]
ROOTS = tuple(Fraction(n, 1000) for n in (281, 344, 406, 469, 531, 594, 656,
                                          719))


def _target(snap, quantity, T) -> Enclosure:
    value = eval_limit(snap, T, 256).quantity(quantity.lstrip("-"))
    mid = (value.lo + value.hi).scale2(-1)
    return Enclosure.point(-mid if quantity == "-F" else mid)


def _outcome(handle, target, tol_bits) -> list:
    try:
        enc = solve_temperature(handle, target, Dyadic(1, -tol_bits))
    except ThermoAITError as exc:
        return [type(exc).__name__, str(exc)]
    return [enc.lo.serialize(), enc.hi.serialize()]


def _solves(machine: str) -> dict[str, list]:
    kind, maxlen, options = SNAPSHOTS[machine]
    snap = builtin_snapshot(kind, maxlen, **options)
    out = {}
    for name, quantity, tol_bits in SHAPES:
        if name != machine:
            continue
        handle = certify(snap, quantity, Fraction(1, 2), 64)
        for T in ROOTS:
            out[f"{machine} | {quantity} | 2^-{tol_bits} | {T}"] = _outcome(
                handle, _target(snap, quantity, T), tol_bits)
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.mark.parametrize("machine", SNAPSHOTS)
def test_solves_match_the_record(recorded, machine):
    got = _solves(machine)
    assert got == {key: recorded[key] for key in got}


def test_every_recorded_solve_has_a_shape(recorded):
    assert len(recorded) == len(SHAPES) * len(ROOTS)


if __name__ == "__main__":
    outcomes = {key: value for machine in SNAPSHOTS
                for key, value in _solves(machine).items()}
    RECORD.write_text("{\n" + ",\n".join(
        f" {json.dumps(key)}: {json.dumps(value)}"
        for key, value in outcomes.items()) + "\n}\n", encoding="utf-8")
