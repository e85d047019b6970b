"""Prefix-free program ensembles: concrete machines, synthetic sources,
deterministic enumeration, and snapshot persistence.

Builtin ensembles:

* ``sdm4``          -- a deliberately sub-universal self-delimiting machine
                       with a regular-language domain and halting mass 4/5.
* ``literal``       -- programs 1^n 0 x with |x| = n, output x.
* ``gamma_literal`` -- programs gamma(|x|) x (Elias gamma length header).
* ``geometric``     -- one program 1^(l-1) 0 per length l, output l in binary.
* ``file``          -- a snapshot loaded from disk.

Enumeration order is canonical: ascending (length, lex).  The census maps
length -> count of *all* domain elements of that length, which can exceed
the explicitly enumerated programs (aggregate-only evaluation needs only
lengths).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Iterator

from .bitstring import BitString, LAMBDA
from .dyadic import Dyadic
from .enclosure import Enclosure
from .errors import InvariantViolation, SnapshotError, SpecError

SNAPSHOT_MAGIC = "THERMOAIT-SNAPSHOT v1"
DEFAULT_PROGRAM_CAP = 4096

BUILTIN_KINDS = ("sdm4", "literal", "gamma_literal", "geometric")


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProgramRecord:
    program: BitString
    output: BitString
    steps: int  # interpreter steps to halt; 0 for synthetic ensembles


@dataclass(frozen=True)
class EnsembleSpec:
    kind: str
    parameters: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind in BUILTIN_KINDS:
            known = {"program_cap"}
            extra = set(self.parameters) - known
            if extra:
                raise SpecError(f"unknown parameters for {self.kind}: {sorted(extra)}")
        elif self.kind == "file":
            if "path" not in self.parameters:
                raise SpecError("file ensemble requires a 'path' parameter")
        else:
            raise SpecError(f"unknown ensemble kind: {self.kind}")


@dataclass
class EnsembleSnapshot:
    ensemble_id: str
    step_budget: int
    max_length: int
    programs: list[ProgramRecord]
    census: dict[int, int]

    def kraft_partial(self) -> Fraction:
        """Exact census-based partial Kraft sum over lengths <= max_length."""
        return 1 - kraft_slack(self.census.items(), max(self.census, default=0))

    def program_kraft(self) -> Fraction:
        return sum((Fraction(1, 1 << len(r.program)) for r in self.programs),
                   Fraction(0))

    def length_counts_up_to(self, k: int) -> list[tuple[int, int]]:
        """(length, count) pairs covering |p_1|..|p_k|, ascending in length
        (canonical order is nondecreasing in length)."""
        out: list[tuple[int, int]] = []
        left = k
        for l in sorted(self.census):
            if left == 0:
                break
            take = min(self.census[l], left)
            if take:
                out.append((l, take))
                left -= take
        if left:
            raise InvariantViolation(
                f"census covers only {k - left} programs, {k} requested")
        return out

    def lengths_up_to(self, k: int) -> list[int]:
        """Lengths |p_1|..|p_k| from the census."""
        return [l for l, c in self.length_counts_up_to(k) for _ in range(c)]

    def validate(self) -> None:
        by_len: dict[int, int] = {}
        prev: ProgramRecord | None = None
        for rec in self.programs:
            by_len[len(rec.program)] = by_len.get(len(rec.program), 0) + 1
            if prev is not None and rec.program < prev.program:
                raise InvariantViolation("programs not in canonical (length, lex) order")
            prev = rec
        # prefix-freeness: in plain lex order a prefix sorts immediately
        # before its extensions, so adjacent pairs suffice
        by_lex = sorted(r.program.bits for r in self.programs)
        for a, b in zip(by_lex, by_lex[1:]):
            if b.startswith(a):
                msg = "duplicate program" if a == b else "prefix-free violation"
                raise InvariantViolation(f"{msg}: {a!r} / {b!r}")
        for l, n in by_len.items():
            if self.census.get(l, 0) < n:
                raise InvariantViolation(
                    f"census({l}) = {self.census.get(l, 0)} below enumerated count {n}")
        if any(l > self.max_length or l < 0 for l in self.census):
            raise InvariantViolation("census length outside [0, max_length]")
        if self.kraft_partial() > 1 or self.program_kraft() > 1:
            raise InvariantViolation("Kraft violation: partial sum exceeds 1")


# ---------------------------------------------------------------------------
# the SDM-4 machine
# ---------------------------------------------------------------------------

HALT, DIVERGE, BUDGET = "halt", "diverge", "budget_exhausted"

_REPEAT_COUNT = {"00": 1, "01": 2, "10": 3}


@dataclass(frozen=True)
class SDM4Result:
    status: str  # HALT / DIVERGE / BUDGET
    output: BitString | None = None
    steps: int = 0
    consumed: int = 0


def run_sdm4(program: BitString, step_budget: int) -> SDM4Result:
    """Execute the SDM-4 opcode table: per step read two bits;
    00 emit 0, 01 emit 1, 11 halt, 10 read two more bits bb and append the
    last emitted bit bb+1 times (bb = 11 diverges; before any emission the
    phantom last bit is 0).  Input exhaustion mid-read diverges."""
    bits = program.bits
    pos = 0
    out: list[str] = []
    last = "0"
    steps = 0
    while True:
        if steps >= step_budget:
            return SDM4Result(BUDGET, None, steps, pos)
        if pos + 2 > len(bits):
            return SDM4Result(DIVERGE, None, steps, pos)
        op = bits[pos:pos + 2]
        pos += 2
        steps += 1
        if op == "11":
            return SDM4Result(HALT, BitString("".join(out)), steps, pos)
        if op == "00":
            out.append("0")
            last = "0"
        elif op == "01":
            out.append("1")
            last = "1"
        else:  # repeat
            if pos + 2 > len(bits):
                return SDM4Result(DIVERGE, None, steps, pos)
            arg = bits[pos:pos + 2]
            pos += 2
            if arg == "11":
                return SDM4Result(DIVERGE, None, steps, pos)
            out.extend(last * _REPEAT_COUNT[arg])


def _sdm4_bodies(nbits: int):
    """Block sequences of the SDM-4 program body, emitted in lex order."""
    if nbits == 0:
        yield ""
        return
    if nbits < 0:
        return
    for head in ("00", "01"):
        for rest in _sdm4_bodies(nbits - 2):
            yield head + rest
    for arg in ("00", "01", "10"):
        for rest in _sdm4_bodies(nbits - 4):
            yield "10" + arg + rest


def sdm4_census_count(length: int) -> int:
    """Number of SDM-4 domain elements of the given length (d(m) with
    d(m) = 2 d(m-1) + 3 d(m-2), length = 2m + 2)."""
    return dict(census_counts("sdm4", length)).get(length, 0)


def census_counts(kind: str, max_length: int) -> Iterator[tuple[int, int]]:
    """Closed-form census of a builtin ensemble kind: (length, count) for
    every length <= max_length with a nonzero count, ascending, in one pass
    (linear in max_length, lazy so callers may stop early)."""
    if kind == "sdm4":
        d_prev, d = 0, 1  # d(-1), d(0)
        for length in range(2, max_length + 1, 2):
            yield length, d
            d_prev, d = d, 2 * d + 3 * d_prev
    elif kind == "geometric":
        for length in range(1, max_length + 1):
            yield length, 1
    elif kind == "literal":
        for n in range((max_length + 1) // 2):
            yield 2 * n + 1, 1 << n
    elif kind == "gamma_literal":
        n = 1
        while gamma_literal_length(n) <= max_length:
            yield gamma_literal_length(n), 1 << n
            n += 1
    else:
        raise SpecError(f"no closed-form census for kind {kind!r}")


# ---------------------------------------------------------------------------
# synthetic ensembles
# ---------------------------------------------------------------------------

def gamma_code(n: int) -> BitString:
    """Elias gamma code of n >= 1: floor(log2 n) zeros then n in binary."""
    if n < 1:
        raise ValueError("gamma code defined for n >= 1")
    k = n.bit_length() - 1
    return BitString("0" * k + format(n, "b"))


def gamma_literal_length(n: int) -> int:
    """Program length for an n-bit payload: n + 2*floor(log2 n) + 1."""
    return n + 2 * (n.bit_length() - 1) + 1


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def enumerate_ensemble(spec: EnsembleSpec, step_budget: int,
                       max_length: int) -> EnsembleSnapshot:
    """Deterministically enumerate the ensemble's domain in canonical
    (length, lex) order.  Per-program records are emitted up to the
    configured program_cap; the census always covers every length
    <= max_length."""
    if max_length < 1:
        raise SpecError("max_length must be >= 1")
    if spec.kind == "file":
        snap = load_snapshot(spec.parameters["path"])
        return snap
    if step_budget < 1 and spec.kind == "sdm4":
        raise SpecError("step_budget must be >= 1 for machine-backed ensembles")
    cap = spec.parameters.get("program_cap", DEFAULT_PROGRAM_CAP)

    census = dict(census_counts(spec.kind, max_length))
    programs: list[ProgramRecord] = []
    if spec.kind == "geometric":
        for l in range(1, max_length + 1):
            if len(programs) >= cap:
                break
            programs.append(ProgramRecord(
                BitString("1" * (l - 1) + "0"), BitString(format(l, "b")), 0))
    elif spec.kind == "literal":
        n = 0
        while 2 * n + 1 <= max_length and len(programs) + (1 << n) <= cap:
            head = "1" * n + "0"
            for v in range(1 << n):
                x = BitString.from_int(v, n)
                programs.append(ProgramRecord(BitString(head) + x, x, 0))
            n += 1
    elif spec.kind == "gamma_literal":
        n = 1
        while (gamma_literal_length(n) <= max_length
               and len(programs) + (1 << n) <= cap):
            head = gamma_code(n)
            for v in range(1 << n):
                x = BitString.from_int(v, n)
                programs.append(ProgramRecord(head + x, x, 0))
            n += 1
    elif spec.kind == "sdm4":
        done = False
        for length in range(2, max_length + 1, 2):
            if done or len(programs) + census[length] > cap:
                break
            for body in _sdm4_bodies(length - 2):
                prog = BitString(body + "11")
                res = run_sdm4(prog, step_budget)
                if res.status == HALT:
                    assert res.consumed == len(prog)
                    programs.append(ProgramRecord(prog, res.output, res.steps))
                elif res.status == BUDGET:
                    done = True  # deeper programs need even more steps
                    break
    else:  # pragma: no cover - guarded by EnsembleSpec
        raise SpecError(f"unknown ensemble kind: {spec.kind}")

    snap = EnsembleSnapshot(spec.kind, step_budget, max_length, programs, census)
    snap.validate()
    return snap


def builtin_snapshot(kind: str, max_length: int,
                     step_budget: int | None = None,
                     program_cap: int = DEFAULT_PROGRAM_CAP) -> EnsembleSnapshot:
    if step_budget is None:
        step_budget = max(1, max_length)  # ample: SDM-4 halts in <= len/2 steps
    return enumerate_ensemble(EnsembleSpec(kind, {"program_cap": program_cap}),
                              step_budget, max_length)


# ---------------------------------------------------------------------------
# tail mass
# ---------------------------------------------------------------------------

def census_tail_mass(snapshot: EnsembleSnapshot, L: int) -> Enclosure:
    """Certified bound on the Kraft mass of all domain elements longer
    than L, over the full (possibly infinite) domain: the mass lies in
    [0, 1 - sum_{l<=L} census(l) 2^-l].  The slack is exact for ensembles
    whose total Kraft sum is 1 (literal, gamma_literal, geometric)."""
    if L > snapshot.max_length:
        raise SpecError(f"L = {L} exceeds snapshot max_length {snapshot.max_length}")
    slack = Dyadic.from_fraction(kraft_slack(snapshot.census.items(), L))
    return Enclosure(Dyadic(0), slack)


def kraft_slack(census_items, L: int) -> Fraction:
    """1 - sum_{l<=L} count(l) 2^-l exactly, computed in integers as
    (2^L - sum count(l) 2^(L-l)) / 2^L."""
    filled = sum(c << (L - l) for l, c in census_items if l <= L)
    return Fraction((1 << L) - filled, 1 << L)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_snapshot(snapshot: EnsembleSnapshot, path: str | Path) -> None:
    kraft = snapshot.kraft_partial()
    lines = [SNAPSHOT_MAGIC,
             f"ensemble={snapshot.ensemble_id} budget={snapshot.step_budget} "
             f"maxlen={snapshot.max_length}"]
    for l in sorted(snapshot.census):
        lines.append(f"L {l} {snapshot.census[l]}")
    for i, rec in enumerate(snapshot.programs, start=1):
        lines.append(f"P {i} {rec.program.render()} {rec.output.render()} {rec.steps}")
    lines.append(f"KRAFT {kraft.numerator}/{kraft.denominator}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_snapshot(path: str | Path) -> EnsembleSnapshot:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SnapshotError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    if not lines or lines[0] != SNAPSHOT_MAGIC:
        raise SnapshotError("missing snapshot magic header", line=1)
    try:
        header = dict(kv.split("=", 1) for kv in lines[1].split())
        ensemble_id = header["ensemble"]
        budget = int(header["budget"])
        maxlen = int(header["maxlen"])
    except (IndexError, KeyError, ValueError) as exc:
        raise SnapshotError(f"bad header: {exc}", line=2) from exc

    census: dict[int, int] = {}
    programs: list[ProgramRecord] = []
    kraft_line: Fraction | None = None
    for lineno, line in enumerate(lines[2:], start=3):
        if not line.strip():
            continue
        parts = line.split()
        if parts[0] == "L":
            if len(parts) != 3:
                raise SnapshotError("census line needs 'L <length> <count>'", line=lineno)
            census[int(parts[1])] = int(parts[2])
        elif parts[0] == "P":
            if len(parts) != 5:
                raise SnapshotError(
                    "program line needs 'P <index> <bits> <output> <steps>'", line=lineno)
            if int(parts[1]) != len(programs) + 1:
                raise SnapshotError(f"program index {parts[1]} out of order", line=lineno)
            try:
                programs.append(ProgramRecord(BitString.from_render(parts[2]),
                                              BitString.from_render(parts[3]),
                                              int(parts[4])))
            except ValueError as exc:
                raise SnapshotError(str(exc), line=lineno) from exc
        elif parts[0] == "KRAFT":
            num, den = parts[1].split("/")
            kraft_line = Fraction(int(num), int(den))
        else:
            raise SnapshotError(f"unknown record {parts[0]!r}", line=lineno)

    snap = EnsembleSnapshot(ensemble_id, budget, maxlen, programs, census)
    if kraft_line is None:
        raise SnapshotError("missing KRAFT checksum line")
    if snap.kraft_partial() != kraft_line:
        raise SnapshotError(
            f"checksum mismatch: census Kraft sum {snap.kraft_partial()} "
            f"!= recorded {kraft_line}")
    snap.validate()
    return snap


def replay_check(snapshot: EnsembleSnapshot) -> None:
    """Re-execute every machine-backed record; raises on any mismatch."""
    if snapshot.ensemble_id != "sdm4":
        return
    for rec in snapshot.programs:
        res = run_sdm4(rec.program, snapshot.step_budget)
        if (res.status != HALT or res.output != rec.output
                or res.steps != rec.steps or res.consumed != len(rec.program)):
            raise InvariantViolation(f"replay mismatch for {rec.program.bits!r}")
