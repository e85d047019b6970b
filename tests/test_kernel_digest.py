"""exp2_enclosure and log2_enclosure are identical to recorded results over
a seeded set of arguments: one SHA-256 digest of the endpoints per kernel
and precision.  Any change of any endpoint, an ulp included, changes a
digest.

exp2 reads rationals x = num/den with |x| below 2^6 and den up to 2^24, a
dyadic in every eighth; log2 reads enclosures [lo, hi] of positive dyadics,
within one binade and across one or more, and points.

A deliberate change of a kernel regenerates the record and names the
change:

    PYTHONPATH=src python tests/test_kernel_digest.py
"""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from thermoait.dyadic import Dyadic
from thermoait.enclosure import Enclosure, exp2_enclosure, log2_enclosure

RECORD = Path(__file__).resolve().parent / "data" / "kernel_digest.json"

PRECISIONS = (16, 64, 128, 256)
CALLS = 2000  # per kernel and precision


def _exp2_args(rng: random.Random) -> list[Fraction]:
    args = []
    for i in range(CALLS):
        den = (1 << rng.getrandbits(4) if i % 8 == 0
               else rng.getrandbits(24) | 1)
        num = rng.getrandbits(30) % (den << 6)
        args.append(Fraction(-num if rng.getrandbits(1) else num, den))
    return args


def _log2_args(rng: random.Random) -> list[Enclosure]:
    args = []
    for i in range(CALLS):
        lo = Dyadic(rng.getrandbits(40) | 1, rng.getrandbits(7) - 80)
        if i % 8 == 0:
            args.append(Enclosure.point(lo))
            continue
        # a width of 2^-130 up to 2^5 times lo
        hi = lo + (lo * Dyadic(rng.getrandbits(20) | 1, -20)).scale2(
            rng.getrandbits(7) - 125 if i % 4 else rng.getrandbits(3) - 3)
        args.append(Enclosure(lo, hi))
    return args


def _digest(values: list[Enclosure]) -> str:
    text = "".join(f"{v.lo.m} {v.lo.e} {v.hi.m} {v.hi.e}\n" for v in values)
    return hashlib.sha256(text.encode()).hexdigest()


def _digests() -> dict[str, str]:
    rng = random.Random("thermoait kernel digest")
    xs, vs = _exp2_args(rng), _log2_args(rng)
    out = {}
    for p in PRECISIONS:
        out[f"exp2 | {p}"] = _digest([exp2_enclosure(x, p) for x in xs])
        out[f"log2 | {p}"] = _digest([log2_enclosure(v, p) for v in vs])
    return out


@pytest.fixture(scope="module")
def recorded():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def test_kernels_match_the_digests(recorded):
    assert _digests() == recorded


if __name__ == "__main__":
    RECORD.write_text(json.dumps(_digests(), indent=1) + "\n",
                      encoding="utf-8")
