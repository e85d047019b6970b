"""Machine-relative program-size complexity and compression-rate profiles.

H(s) is the length of the shortest enumerated program producing s.  A
table built from a snapshot that enumerates every halting program up to
its length cap is exact: any program outside the snapshot is longer than
the cap and cannot undercut a recorded minimum.  A truncated snapshot
(program cap or step budget hit) only yields upper bounds.

No compressor stands in for H; every number in a table points at a
concrete program in the snapshot.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .bitstring import BitString
from .dyadic import Dyadic
from .enclosure import Enclosure, bits_prefix
from .ensembles import EnsembleSnapshot
from .errors import PrecisionError, SpecError

EXACT = "exact"
UPPER_BOUND = "upper_bound"

# profile entry statuses
OK = "ok"
ABSENT = "absent"
UNRESOLVED = "unresolved"


class ComplexityTable(NamedTuple):
    snapshot: EnsembleSnapshot
    entries: dict[BitString, tuple[int, BitString]]
    exactness: str

    def H(self, s: BitString) -> Optional[int]:
        entry = self.entries.get(s)
        return entry[0] if entry is not None else None


class ProfileEntry(NamedTuple):
    n: int
    bits: Optional[BitString]
    H: Optional[int]
    ratio: Optional[Fraction]
    status: str


class InvarianceGap(NamedTuple):
    max_abs: int
    max_a_minus_b: int
    max_b_minus_a: int
    shared_outputs: int


def build_table(snapshot: EnsembleSnapshot) -> ComplexityTable:
    """Minimum program length per output, deterministic min by
    (length, lex) over the enumerated programs."""
    entries: dict[BitString, tuple[int, BitString]] = {}
    for rec in snapshot.programs:
        cur = entries.get(rec.output)
        cand = (len(rec.program), rec.program)
        if cur is None or cand < cur:
            entries[rec.output] = cand
    complete = len(snapshot.programs) == snapshot.total
    exactness = EXACT if complete else UPPER_BOUND
    return ComplexityTable(snapshot, entries, exactness)


def profile(alpha: Union[Dyadic, Enclosure], N: int,
            table: ComplexityTable) -> list[ProfileEntry]:
    """Compression-rate profile (n, H(alpha_n), H(alpha_n)/n) for
    n = 1..N.  Outputs missing from the table are marked absent; if an
    enclosure-valued alpha stops resolving, the profile halts with an
    `unresolved` marker rather than guessing bits."""
    if N < 0:
        raise SpecError("N must be >= 0")
    out: list[ProfileEntry] = []
    for n in range(1, N + 1):
        try:
            bits = bits_prefix(alpha, n)
        except PrecisionError:
            out.append(ProfileEntry(n, None, None, None, UNRESOLVED))
            break
        h = table.H(bits)
        if h is None:
            out.append(ProfileEntry(n, bits, None, None, ABSENT))
        else:
            out.append(ProfileEntry(n, bits, h, Fraction(h, n), OK))
    return out


def invariance_gap(table_a: ComplexityTable,
                   table_b: ComplexityTable) -> InvarianceGap:
    """Exact maxima of H_A - H_B over the outputs both tables record."""
    shared = table_a.entries.keys() & table_b.entries.keys()
    if not shared:
        raise SpecError("tables have no shared output")
    diffs = [table_a.entries[s][0] - table_b.entries[s][0] for s in shared]
    return InvarianceGap(max(abs(d) for d in diffs),
                         max(max(diffs), 0),
                         max(-min(diffs), 0),
                         len(shared))
