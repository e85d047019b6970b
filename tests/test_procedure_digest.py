"""reconstruct_T, witness_search and semidecide_above give recorded
outcomes: one SHA-256 digest per snapshot over seeded procedure calls on
the closed-form oracles.  Any change of a report (a candidate, a depth,
a witness) or of an answer changes a digest; a call that raises records
its error's type and message instead.

Each snapshot is certified for Z, -F, E and S at seeded dyadic
temperatures.  Every handle then runs one reconstruction (the beta prefix
from beta_bits, as the CLI reads it), one witness search and, for r
below and above T (within 2^-3 down to 2^-30 of it), a semidecision at
each of the budgets 16, 256 and 4096.

A deliberate change of a procedure or an oracle regenerates the record
and names the change:

    PYTHONPATH=src python tests/test_procedure_digest.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from thermoait.dyadic import Dyadic
from thermoait.enclosure import bits_prefix
from thermoait.ensembles import EnsembleSnapshot, builtin_snapshot
from thermoait.errors import ThermoAITError
from thermoait.fixedpoint import (
    QUANTITY_CHOICES, approach_oracle, ascending_lower_oracle, beta_bits,
    certify, descending_upper_oracle, reconstruct_T, semidecide_above,
    witness_search,
)

RECORD = Path(__file__).resolve().parent / "data" / "procedure_digest.json"

PRECISION = 64
TEMPERATURES = 8  # per snapshot, each certified for every quantity
BUDGETS = (16, 256, 4096)
SCALE = 1 << 10  # temperatures are dyadics m / 2^10


def _snapshots() -> dict[str, EnsembleSnapshot]:
    return {"geometric 300": builtin_snapshot("geometric", 300),
            "sdm4 1500": builtin_snapshot("sdm4", 1500, program_cap=512),
            "literal 200": builtin_snapshot("literal", 200),
            "gamma_literal 300": builtin_snapshot("gamma_literal", 300)}


def _reconstruct(h, rng: random.Random) -> str:
    u = Fraction(rng.randrange(int(h.T * SCALE) + 1, SCALE), SCALE)
    n = rng.randrange(2, 33)
    rep = reconstruct_T(h, u, n, beta_bits(h, u, n),
                        approach_oracle(h), ascending_lower_oracle(h))
    return (f"{rep.beta_bits_used} {rep.candidate.serialize()} "
            f"{rep.radius.serialize()}")


def _witness(h, rng: random.Random) -> str:
    n = rng.randrange(4, 25)
    bits = bits_prefix(Dyadic.from_fraction(h.T), n)
    rep = witness_search(h, bits, descending_upper_oracle(h))
    return (f"{rep.k_e} {rep.length_threshold.serialize()} "
            f"{rep.witness.render()} {rep.verified_through}")


def _outcome(procedure, *args) -> str:
    try:
        return procedure(*args) + "\n"
    except ThermoAITError as exc:
        return f"{type(exc).__name__}: {exc}\n"


def _calls(snap: EnsembleSnapshot, rng: random.Random) -> str:
    out = []
    for _ in range(TEMPERATURES):
        T = Fraction(rng.randrange(SCALE // 8, 7 * SCALE // 8), SCALE)
        for quantity in QUANTITY_CHOICES:
            out.append(f"{T} {quantity}: ")
            try:
                h = certify(snap, quantity, T, PRECISION)
            except ThermoAITError as exc:
                out.append(f"{type(exc).__name__}: {exc}\n")
                continue
            out.append(_outcome(_reconstruct, h, rng))
            out.append(_outcome(_witness, h, rng))
            for side in (-1, 1):
                # r - T from about 2^-3 down to 2^-30, where late
                # oracle values decide
                r = T + side * Fraction(rng.randrange(1, 64),
                                        64 << rng.randrange(3, 31))
                for budget in BUDGETS:
                    out.append(_outcome(semidecide_above, h, r,
                                        descending_upper_oracle(h), budget))
    return "".join(out)


def _digests() -> dict[str, str]:
    rng = random.Random("thermoait procedure digest")
    return {name: hashlib.sha256(_calls(snap, rng).encode()).hexdigest()
            for name, snap in _snapshots().items()}


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_procedures_match_the_digests(recorded):
    assert _digests() == recorded


if __name__ == "__main__":
    RECORD.write_text(json.dumps(_digests(), indent=1) + "\n",
                      encoding="utf-8")
