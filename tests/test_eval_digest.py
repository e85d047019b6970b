"""eval_limit and eval_partial are identical to recorded results: one
SHA-256 digest per snapshot and precision over every endpoint of Z, W, Y,
F, E, S and C and of the limit's tail bounds, at 64 temperatures in (0, 1)
and, at a few depths, of the partial sums too.  Any change of any
endpoint, an ulp included, changes a digest; an evaluation that raises
records its error's type and message instead.

The snapshots cover every limit path: the generating functions of sdm4,
literal and geometric, and the census sum plus Kraft-slack tail of
gamma_literal and of an anonymous census.  The temperatures are a few
fixed ones (1/2 and 1/3 give exact point weights at every length) and
seeded dyadics and odd-denominator rationals, a quarter of them in the
near-critical band [7/8, 1).

A deliberate change of an evaluation regenerates the record and names the
change:

    PYTHONPATH=src python tests/test_eval_digest.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from thermoait.ensembles import EnsembleSnapshot, builtin_snapshot
from thermoait.errors import ThermoAITError
from thermoait.thermo import QUANTITIES, eval_limit, eval_partial

RECORD = Path(__file__).resolve().parent / "data" / "eval_digest.json"

PRECISIONS = (64, 256)
DEPTHS = (1, 7, 60)
FIXED = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 64),
         Fraction(63, 64), Fraction(1023, 1024), Fraction(5, 7),
         Fraction(999, 1000))
TEMPERATURES = 64

ANONYMOUS = {2: 1, 3: 1, 5: 3, 8: 10, 12: 50, 20: 1000, 31: 4000, 40: 9}


def _snapshots() -> dict[str, EnsembleSnapshot]:
    return {"sdm4 1500": builtin_snapshot("sdm4", 1500, program_cap=0),
            "literal 200": builtin_snapshot("literal", 200, program_cap=0),
            "geometric 600": builtin_snapshot("geometric", 600,
                                              program_cap=0),
            "gamma_literal 300": builtin_snapshot("gamma_literal", 300,
                                                  program_cap=0),
            "anonymous 40": EnsembleSnapshot("anonymous", 0, 40, [],
                                             ANONYMOUS)}


def _temperatures() -> list[Fraction]:
    rng = random.Random("thermoait eval digest")
    out = list(FIXED)
    while len(out) < TEMPERATURES:
        i = len(out)
        low = 7 if i % 4 == 0 else 0  # in [7/8, 1), or in (0, 1)
        if i % 2:
            m = rng.randrange(low << 13 or 1, 1 << 16)
            out.append(Fraction(m, 1 << 16))
        else:
            den = rng.randrange(3, 1 << 20) | 1
            out.append(Fraction(rng.randrange(low * den // 8 or 1, den), den))
    return out


def _record(ev) -> str:
    ends = [getattr(ev, q) for q in QUANTITIES]
    text = " ".join(f"{v.lo.m} {v.lo.e} {v.hi.m} {v.hi.e}" for v in ends)
    tails = " ".join(f"{k} {d.m} {d.e}" for k, d in ev.tail_bounds.items())
    return f"{text} | {tails}\n"


def _outcome(evaluate, *args) -> str:
    try:
        return _record(evaluate(*args))
    except ThermoAITError as exc:
        return f"{type(exc).__name__}: {exc}\n"


def _digests() -> dict[str, str]:
    temperatures = _temperatures()
    out = {}
    for name, snap in _snapshots().items():
        for p in PRECISIONS:
            text = "".join(_outcome(eval_limit, snap, T, p)
                           for T in temperatures)
            text += "".join(_outcome(eval_partial, snap, T, k, p)
                            for T in temperatures[::4] for k in DEPTHS)
            out[f"{name} | {p}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_evaluations_match_the_digests(recorded):
    assert _digests() == recorded


def test_the_temperatures_cover_both_bands():
    temperatures = _temperatures()
    assert len(set(temperatures)) == TEMPERATURES
    assert all(0 < T < 1 for T in temperatures)
    assert sum(T >= Fraction(7, 8) for T in temperatures) >= TEMPERATURES // 4
    assert any(T.denominator & (T.denominator - 1) for T in temperatures)


if __name__ == "__main__":
    RECORD.write_text(json.dumps(_digests(), indent=1) + "\n",
                      encoding="utf-8")
