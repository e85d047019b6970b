"""Prefix-free program ensembles: the builtin machines, deterministic
enumeration, certified tails, and snapshot persistence.

Builtin machines (``MACHINES``, one ``Machine`` each):

* ``sdm4``          -- a deliberately sub-universal self-delimiting machine
                       with a regular-language domain and halting mass 4/5.
* ``literal``       -- programs 1^n 0 x with |x| = n, output x.
* ``gamma_literal`` -- programs gamma(|x|) x (Elias gamma length header).
* ``geometric``     -- one program 1^(l-1) 0 per length l, output l in binary.

A Machine holds its census closed form, its canonical program enumerator
and its certified tail.  A snapshot built from a machine carries it.  A
snapshot loaded from disk carries the machine its header names only when
its census equals that machine's closed form exactly; any other snapshot
is an anonymous census, whose tail is the census Kraft slack.

Enumeration order is canonical: ascending (length, lex).  The census maps
length -> count of *all* domain elements of that length, which can exceed
the explicitly enumerated programs (aggregate-only evaluation needs only
lengths).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import islice
from math import ceil, floor
from pathlib import Path
from typing import Callable, Iterator

from .bitstring import BitString
from .dyadic import (
    Dyadic, fraction_text, from_rational_ceil, int_from_text, int_text,
)
from .enclosure import exp2_enclosure, ln2_enclosure
from .errors import InvariantViolation, RangeError, SnapshotError, SpecError

SNAPSHOT_MAGIC = "THERMOAIT-SNAPSHOT v1"
DEFAULT_PROGRAM_CAP = 4096


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProgramRecord:
    program: BitString
    output: BitString
    steps: int  # interpreter steps to halt; 0 for synthetic ensembles


@dataclass
class EnsembleSnapshot:
    ensemble_id: str
    step_budget: int
    max_length: int
    programs: list[ProgramRecord]
    census: dict[int, int]
    machine: Machine | None = None  # None: an anonymous census

    @property
    def tail(self) -> Tail:
        """The machine's tail, or the Kraft slack of an anonymous census."""
        return self.machine.tail if self.machine else KRAFT_SLACK

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

    def iter_lengths(self) -> Iterator[int]:
        """|p_1|, |p_2|, ... from the census, lazily, so a caller builds no
        more lengths than it reads."""
        for l in sorted(self.census):
            for _ in range(self.census[l]):
                yield l

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
        if any(c < 0 for c in self.census.values()):
            raise InvariantViolation("negative census count")
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


def _sdm4_census(max_length: int) -> Iterator[tuple[int, int]]:
    d_prev, d = 0, 1  # d(-1), d(0)
    for length in range(2, max_length + 1, 2):
        yield length, d
        d_prev, d = d, 2 * d + 3 * d_prev


def sdm4_census_count(length: int) -> int:
    """Number of SDM-4 domain elements of the given length (d(m) with
    d(m) = 2 d(m-1) + 3 d(m-2), length = 2m + 2)."""
    return dict(_sdm4_census(length)).get(length, 0)


def _sdm4_programs(length: int, count: int,
                   step_budget: int) -> Iterator[ProgramRecord]:
    for body in _sdm4_bodies(length - 2):
        prog = BitString(body + "11")
        res = run_sdm4(prog, step_budget)
        if res.status == BUDGET:
            return
        assert res.status == HALT and res.consumed == len(prog)
        yield ProgramRecord(prog, res.output, res.steps)


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


def _literal_census(max_length: int) -> Iterator[tuple[int, int]]:
    for n in range((max_length + 1) // 2):
        yield 2 * n + 1, 1 << n


def _gamma_literal_census(max_length: int) -> Iterator[tuple[int, int]]:
    n = 1
    while gamma_literal_length(n) <= max_length:
        yield gamma_literal_length(n), 1 << n
        n += 1


def _unary_code(n: int) -> BitString:
    return BitString("1" * n + "0")


def _payload_programs(header, length: int, count: int,
                      step_budget: int) -> Iterator[ProgramRecord]:
    """header(n) x, output x, for each of the count = 2^n payloads x."""
    n = count.bit_length() - 1
    head = header(n)
    for v in range(count):
        x = BitString.from_int(v, n)
        yield ProgramRecord(head + x, x, 0)


def _geometric_census(max_length: int) -> Iterator[tuple[int, int]]:
    for length in range(1, max_length + 1):
        yield length, 1


def _geometric_programs(length: int, count: int,
                        step_budget: int) -> Iterator[ProgramRecord]:
    yield ProgramRecord(_unary_code(length - 1), BitString(format(length, "b")), 0)


# ---------------------------------------------------------------------------
# certified tails
# ---------------------------------------------------------------------------

def kraft_slack(census_items, L: int) -> Fraction:
    """1 - sum_{l<=L} count(l) 2^-l exactly, computed in integers as
    (2^L - sum count(l) 2^(L-l)) / 2^L."""
    filled = sum(c << (L - l) for l, c in census_items if l <= L)
    return Fraction((1 << L) - filled, 1 << L)


class Tail:
    """A certified tail past a cutoff L: bound(census, L, T, j,
    precision_bits, slack) bounds sum over |p| > L of |p|^j 2^(-|p|/T) from
    above (slack, when not None, is kraft_slack(census, L)); decay(T) is
    the float rate, in bits per length, at which it shrinks; it only picks
    the cutoff."""


class _KraftSlack(Tail):
    """Beyond length L the per-length Kraft mass of any prefix-free domain
    is at most the census slack tau = 1 - sum_{l<=L} census(l) 2^-l, and
    each term satisfies l^j 2^(-l/T) <= M_j (census(l) 2^-l) with
    M_j = max_{l>L} l^j 2^(-l(1/T - 1)); the max of that unimodal function
    is bracketed through rational bounds on its critical point
    j T / ((1-T) ln 2)."""

    def decay(self, T: Fraction) -> float:
        return 1 / float(T) - 1

    def bound(self, census, L: int, T: Fraction, j: int, precision_bits: int,
              slack: Fraction | None) -> Dyadic:
        if T >= 1:
            raise RangeError("census-slack tail bounds require T < 1")
        tau = kraft_slack(census.items(), L) if slack is None else slack
        if tau == 0:
            return Dyadic(0)
        delta = 1 / T - 1  # weight is (2^-l) * 2^(-l*delta)
        candidates = {L + 1}
        if j > 0:
            ln2 = ln2_enclosure(precision_bits)
            lstar_lo = Fraction(j) / (delta * ln2.hi.as_fraction())
            lstar_hi = Fraction(j) / (delta * ln2.lo.as_fraction())
            for l in range(max(L + 1, floor(lstar_lo)), max(L + 1, ceil(lstar_hi)) + 1):
                candidates.add(l)
        M = Dyadic(0)
        for l in candidates:
            M = max(M, exp2_enclosure(-l * delta, precision_bits).hi * l**j)
        bound = M.as_fraction() * tau
        return from_rational_ceil(bound.numerator, bound.denominator,
                                  precision_bits + 32)


class _Ratio(Tail):
    """Exact-ratio tail of a domain with one program per length, valid at
    any T > 0: terms t_l = l^j 2^(-l/T) shrink by a factor of at most
    rho = 2^(-1/T) ((L+2)/(L+1))^j, so the tail is t_{L+1}/(1-rho)."""

    def decay(self, T: Fraction) -> float:
        return 1 / float(T)  # the census does not grow

    def bound(self, census, L: int, T: Fraction, j: int, precision_bits: int,
              slack: Fraction | None) -> Dyadic:
        x_hi = exp2_enclosure(Fraction(-1) / T, precision_bits).hi.as_fraction()
        rho = x_hi * Fraction(L + 2, L + 1) ** j
        if rho >= 1:
            raise RangeError(f"tail ratio {float(rho):.3f} >= 1 at L = {L}; increase L")
        t_first = exp2_enclosure(Fraction(-(L + 1)) / T, precision_bits).hi * (L + 1)**j
        bound = t_first.as_fraction() / (1 - rho)
        return from_rational_ceil(bound.numerator, bound.denominator,
                                  precision_bits + 32)


KRAFT_SLACK, RATIO = _KraftSlack(), _Ratio()


# ---------------------------------------------------------------------------
# the builtin machines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Machine:
    """One builtin prefix-free machine.  census(max_length) lazily yields
    the nonzero (length, count) pairs up to max_length, ascending;
    programs(length, count, step_budget) yields the domain elements of one
    length in lex order, stopping where the step budget runs out; run is
    the (program, step_budget) interpreter of a machine-backed ensemble."""

    name: str
    census: Callable[[int], Iterator[tuple[int, int]]]
    programs: Callable[[int, int, int], Iterator[ProgramRecord]]
    tail: Tail = KRAFT_SLACK
    run: Callable[[BitString, int], SDM4Result] | None = None


MACHINES: dict[str, Machine] = {m.name: m for m in (
    Machine("sdm4", _sdm4_census, _sdm4_programs, run=run_sdm4),
    Machine("literal", _literal_census,
            partial(_payload_programs, _unary_code)),
    Machine("gamma_literal", _gamma_literal_census,
            partial(_payload_programs, gamma_code)),
    Machine("geometric", _geometric_census, _geometric_programs, RATIO),
)}


def get_machine(name: str) -> Machine:
    if name not in MACHINES:
        raise SpecError(f"unknown ensemble kind: {name}")
    return MACHINES[name]


def builtin_snapshot(kind: str, max_length: int,
                     step_budget: int | None = None,
                     program_cap: int = DEFAULT_PROGRAM_CAP) -> EnsembleSnapshot:
    """Deterministically enumerate a builtin machine's domain in canonical
    (length, lex) order.  Records cover whole lengths only, up to
    program_cap records or until the step budget runs out; the census
    always covers every length <= max_length."""
    machine = get_machine(kind)
    if max_length < 1:
        raise SpecError("max_length must be >= 1")
    if step_budget is None:
        step_budget = max(1, max_length)  # ample: SDM-4 halts in <= len/2 steps
    if step_budget < 1 and machine.run is not None:
        raise SpecError("step_budget must be >= 1 for machine-backed ensembles")
    census = dict(machine.census(max_length))
    programs: list[ProgramRecord] = []
    for length, count in census.items():
        if len(programs) + count > program_cap:
            break
        before = len(programs)
        programs.extend(machine.programs(length, count, step_budget))
        if len(programs) - before < count:
            break  # step budget exhausted: longer programs need more steps
    snap = EnsembleSnapshot(kind, step_budget, max_length, programs, census,
                            machine)
    snap.validate()
    return snap


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

def save_snapshot(snapshot: EnsembleSnapshot, path: str | Path) -> None:
    kraft = snapshot.kraft_partial()
    lines = [SNAPSHOT_MAGIC,
             f"ensemble={snapshot.ensemble_id} budget={snapshot.step_budget} "
             f"maxlen={snapshot.max_length}"]
    for l in sorted(snapshot.census):
        lines.append(f"L {l} {int_text(snapshot.census[l])}")
    for i, rec in enumerate(snapshot.programs, start=1):
        lines.append(f"P {i} {rec.program.render()} {rec.output.render()} {rec.steps}")
    lines.append(f"KRAFT {int_text(kraft.numerator)}/"
                 f"{int_text(kraft.denominator)}")
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
        try:
            if parts[0] == "L":
                if len(parts) != 3:
                    raise SnapshotError("census line needs 'L <length> <count>'", line=lineno)
                length, count = int(parts[1]), int_from_text(parts[2])
                if count < 0:
                    raise SnapshotError("census count must be >= 0", line=lineno)
                census[length] = count
            elif parts[0] == "P":
                if len(parts) != 5:
                    raise SnapshotError(
                        "program line needs 'P <index> <bits> <output> <steps>'", line=lineno)
                if int(parts[1]) != len(programs) + 1:
                    raise SnapshotError(f"program index {parts[1]} out of order", line=lineno)
                programs.append(ProgramRecord(BitString.from_render(parts[2]),
                                              BitString.from_render(parts[3]),
                                              int(parts[4])))
            elif parts[0] == "KRAFT":
                if len(parts) != 2:
                    raise SnapshotError("checksum line needs 'KRAFT <num>/<den>'", line=lineno)
                num, den = parts[1].split("/")
                kraft_line = Fraction(int_from_text(num), int_from_text(den))
            else:
                raise SnapshotError(f"unknown record {parts[0]!r}", line=lineno)
        except (ValueError, ZeroDivisionError) as exc:
            raise SnapshotError(f"bad {parts[0]} record: {exc}", line=lineno) from exc

    # the label only names the machine to check against; the census decides
    # (lazily: a huge header maxlen costs no more than the file's census)
    machine = MACHINES.get(ensemble_id)
    items = sorted(census.items())
    if machine and list(islice(machine.census(maxlen), len(items) + 1)) != items:
        machine = None
    snap = EnsembleSnapshot(ensemble_id, budget, maxlen, programs, census,
                            machine)
    if kraft_line is None:
        raise SnapshotError("missing KRAFT checksum line")
    if snap.kraft_partial() != kraft_line:
        raise SnapshotError(
            f"checksum mismatch: census Kraft sum "
            f"{fraction_text(snap.kraft_partial())} != recorded "
            f"{fraction_text(kraft_line)}")
    snap.validate()
    try:
        replay_check(snap)  # records of a machine-backed file must replay
    except InvariantViolation as exc:
        raise SnapshotError(str(exc)) from exc
    return snap


def replay_check(snapshot: EnsembleSnapshot) -> None:
    """Re-execute every record of a machine-backed snapshot on its
    machine's interpreter; raises on any mismatch."""
    run = snapshot.machine.run if snapshot.machine else None
    if run is None:
        return
    for rec in snapshot.programs:
        res = run(rec.program, snapshot.step_budget)
        if (res.status != HALT or res.output != rec.output
                or res.steps != rec.steps or res.consumed != len(rec.program)):
            raise InvariantViolation(f"replay mismatch for {rec.program.bits!r}")
