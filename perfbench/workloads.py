"""The benchmark's three workloads: inputs, operations and output checks.

Each workload hands out its inputs in decks.  A deck holds the same mix
of operations every time, drawn afresh from the seed, so any run that
completes whole decks measures the same mix whatever its length.  The
first ``prefix_decks`` decks are the fixed part of every run: widths,
peak memory and the traced counts are taken over them, so they repeat
exactly for a given seed.

* sweep       eval_limit at 64 bits on sdm4 (maxlen 1500) and geometric
              (maxlen 600) at distinct temperatures m/2^16;
* procedures  the library form of one CLI call each: certify, then one
              of solve_temperature, reconstruct_T, witness_search or
              semidecide_above;
* cli         fresh ``python -m thermoait.cli`` processes over all eight
              subcommands.

The program receives only generated inputs; every reference value comes
from ``reference`` (mpmath), never from the library under test.  The
library is imported inside the methods, once the runner has put the
checkout's ``src`` first on the path.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import reference as R

PRECISION = 64
QUANTITIES = ("Z", "W", "Y", "F", "E", "S", "C")
WIDTH_QUANTITIES = ("Z", "F", "E", "S", "C")  # the certified results
SCALE = 1 << 16  # temperatures are dyadics m / 2^16


def child_env(src: Path) -> dict:
    """Environment of every child interpreter: the checkout's program and
    nothing from the caller (THERMOAIT_PRECISION would change results)."""
    return {"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


@dataclass
class Op:
    kind: str
    args: dict
    refs: dict = field(default_factory=dict)


def _enc(lo, hi) -> tuple[Fraction, Fraction]:
    return R.parse_dyadic(lo), R.parse_dyadic(hi)


def _lib_enc(e) -> tuple[Fraction, Fraction]:
    return _enc(e.lo.serialize(), e.hi.serialize())


def _temp(m: int) -> Fraction:
    return Fraction(m, SCALE)


def _thermo_ok(norm: dict, refs: dict) -> bool:
    return all(R.encloses(*norm[q], refs[q]) for q in QUANTITIES)


def _thermo_widths(norm: dict) -> list:
    return [norm[q] for q in WIDTH_QUANTITIES]


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

class Sweep:
    """eval_limit at distinct temperatures.  Half of each deck lies in
    [1/16, 7/8), half in the near-critical band [7/8, 63/64], where the
    sdm4 cutoff climbs to max_length.  Each band has 8 strata with one
    sdm4 and one geometric temperature per stratum and deck, and every
    deck adds one sdm4 temperature within 2^-10 of 63/64.  The first
    block of 8 decks, which is the fixed prefix, includes 63/64 itself,
    so the widest result of the prefix is always the same one; later
    blocks step down by 2^-13 per block.  The band stops at 63/64 because
    above it the widest enclosure grows without bound as T nears 1 and
    would measure the draw, not the code."""

    name = "sweep"
    prefix_decks = 8
    NUDGE_KIND = "eval_limit"
    LOW = (4096, 57344)    # [1/16, 7/8)
    NEAR = (57344, 64000)  # [7/8, 63/64 - 2^-7)
    EDGE = 64512           # 63/64
    STRATA = 8

    def __init__(self, seed: int):
        import thermoait.ensembles as ens
        self.snapshots = {"sdm4": ens.builtin_snapshot("sdm4", 1500),
                          "geometric": ens.builtin_snapshot("geometric", 600)}
        self.seed = seed
        self.strata = []
        for lo, hi in (self.LOW, self.NEAR):
            size = (hi - lo) // self.STRATA
            for s in range(self.STRATA):
                base = lo + s * size
                perm = random.Random(f"sweep:{seed}:{base}").sample(range(size), size)
                self.strata.append([base + v for v in perm])

    def deck(self, i: int) -> list[Op] | None:
        if 2 * i + 1 >= len(self.strata[-1]):
            return None  # input space exhausted
        ops = []
        for stratum in self.strata:
            for machine, m in (("sdm4", stratum[2 * i]),
                               ("geometric", stratum[2 * i + 1])):
                ops.append(self._op(machine, m))
        block = list(range(8))
        random.Random(f"sweep:{self.seed}:edge:{i // 8}").shuffle(block)
        ops.append(self._op("sdm4", self.EDGE - 8 * (i // 8) - block[i % 8]))
        random.Random(f"sweep:{self.seed}:deck:{i}").shuffle(ops)
        return ops

    @staticmethod
    def _op(machine: str, m: int) -> Op:
        T = _temp(m)
        return Op("eval_limit", {"machine": machine, "T": T},
                  R.thermo(machine, T))

    def run(self, op: Op):
        import thermoait.thermo as th
        return th.eval_limit(self.snapshots[op.args["machine"]], op.args["T"],
                             PRECISION)

    def normalize(self, op: Op, out) -> dict:
        return {q: _lib_enc(out.quantity(q)) for q in QUANTITIES}

    def check(self, op: Op, norm: dict) -> bool:
        return _thermo_ok(norm, op.refs)

    def widths(self, op: Op, norm: dict) -> list:
        return _thermo_widths(norm)

    def nudge(self, op: Op, norm: dict) -> dict:
        return dict(norm, Z=R.nudged_off(*norm["Z"], op.refs["Z"], PRECISION))


# ---------------------------------------------------------------------------
# procedures
# ---------------------------------------------------------------------------

# (machine, quantity, log2 of 1/tol): 5 of 8 solves at 2^-30, 3 at 2^-50
SOLVES = [("geometric", "Z", 30), ("geometric", "-F", 30),
          ("geometric", "E", 50), ("geometric", "S", 30),
          ("sdm4", "Z", 30), ("sdm4", "Z", 50),
          ("sdm4", "-F", 30), ("sdm4", "-F", 50)]

# sdm4 E and S certification at T0 = 1/2 raises CertificationError at the
# seed commit; the pair is probed once per run instead of timed, because
# the timed mix must not contain operations known to fail
KNOWN_RED = [("sdm4", "E"), ("sdm4", "S")]

SOLVE_SLACK = Fraction(1, 1 << 200)  # target rounding moves the root by < 2^-240


def _g_ref(quantity: str, refs: dict):
    return -refs["F"] if quantity == "-F" else refs[quantity]


def _criterion08_triple(rng: random.Random):
    T = Fraction(rng.randrange(9, 48), 64)
    u = Fraction(rng.randrange(int(T * 64) + 1, 64), 64)
    n = rng.randrange(2, 25)
    return T, u, n


def _beta_bits(T: Fraction, u: Fraction, n: int) -> str:
    """The ceil(T n / u) leading bits of beta = Z_geometric(u)."""
    return R.frac_bits(R.thermo("geometric", u)["Z"], -((-T * n) // u))


class Procedures:
    """Each op certifies a handle and runs one procedure on it.  A deck
    of 16 holds 8 solves, 4 reconstructions, 2 witness searches and 2
    semidecisions (one r below T, one above)."""

    name = "procedures"
    prefix_decks = 3
    NUDGE_KIND = "solve"

    def __init__(self, seed: int):
        import thermoait.ensembles as ens
        self.snapshots = {
            "geometric": ens.builtin_snapshot("geometric", 300),
            "sdm4": ens.builtin_snapshot("sdm4", 1500, program_cap=512)}
        self.seed = seed

    def deck(self, i: int) -> list[Op]:
        rng = random.Random(f"procedures:{self.seed}:{i}")
        ops = []
        for j, (machine, quantity, tol_bits) in enumerate(SOLVES):
            # solve cost climbs steeply with T*, so each machine's four
            # slots keep one quarter of [1/4, 3/4] each and T* lies within
            # 1/256 of the quarter's centre: every deck costs about the same
            centre = Fraction(5, 16) + Fraction(j % 4, 8)
            T_star = centre + _temp(rng.randrange(-SCALE // 256, SCALE // 256))
            refs = R.thermo(machine, T_star)
            target = R.dyadic_round(_g_ref(quantity, refs), 256)
            ops.append(Op("solve", {"machine": machine, "quantity": quantity,
                                    "tol_bits": tol_bits, "target": target,
                                    "T_star": T_star}))
        for _ in range(4):
            T, u, n = _criterion08_triple(rng)
            ops.append(Op("reconstruct", {"T": T, "u": u, "n": n,
                                          "beta": _beta_bits(T, u, n)}))
        for _ in range(2):
            T = _temp(rng.randrange(SCALE // 4, 3 * SCALE // 4 + 1))
            n = rng.randrange(8, 25)
            ops.append(Op("witness", {"T": T, "n": n}, _witness_refs(T, n)))
        for side in (-1, 1):
            T = _temp(rng.randrange(SCALE // 4, 3 * SCALE // 4 + 1))
            k = rng.randrange(1, SCALE // 8) if side > 0 else rng.randrange(1, SCALE // 4)
            ops.append(Op("semidecide", {"T": T, "r": T + side * _temp(k)}))
        # no shuffle: solves share weight-chain cache entries, and the order
        # decides which op pays for building them
        return ops

    def run(self, op: Op):
        import thermoait.bitstring as bs
        import thermoait.dyadic as dy
        import thermoait.enclosure as enc
        import thermoait.fixedpoint as fp
        a = op.args
        geo = self.snapshots["geometric"]
        if op.kind == "solve":
            handle = fp.certify(self.snapshots[a["machine"]], a["quantity"],
                                Fraction(1, 2), PRECISION)
            return fp.solve_temperature(
                handle, enc.Enclosure.from_rational(a["target"], PRECISION),
                dy.Dyadic(1, -a["tol_bits"]))
        handle = fp.certify(geo, "Z", a["T"], PRECISION)
        if op.kind == "reconstruct":
            if handle.b != 0:
                raise ValueError("beta bits were generated for b = 0")
            return fp.reconstruct_T(handle, a["u"], a["n"], bs.BitString(a["beta"]),
                                    fp.approach_oracle(handle),
                                    fp.ascending_lower_oracle(handle))
        if op.kind == "witness":
            bits = enc.bits_prefix(dy.Dyadic.from_fraction(a["T"]), a["n"])
            return fp.witness_search(handle, bits,
                                     fp.descending_upper_oracle(handle))
        return fp.semidecide_above(handle, dy.Dyadic.from_fraction(a["r"]),
                                   fp.descending_upper_oracle(handle))

    def normalize(self, op: Op, out) -> dict:
        if op.kind == "solve":
            return {"T": _lib_enc(out)}
        if op.kind == "reconstruct":
            return {"candidate": R.parse_dyadic(out.candidate.serialize()),
                    "radius": R.parse_dyadic(out.radius.serialize())}
        if op.kind == "witness":
            return {"k_e": out.k_e, "witness": out.witness.render(),
                    "threshold": R.parse_dyadic(out.length_threshold.serialize())}
        return {"answer": out}

    def check(self, op: Op, norm: dict) -> bool:
        a = op.args
        if op.kind == "solve":
            lo, hi = norm["T"]
            return lo - SOLVE_SLACK <= a["T_star"] <= hi + SOLVE_SLACK
        if op.kind == "reconstruct":
            return abs(norm["candidate"] - a["T"]) < norm["radius"]
        if op.kind == "witness":
            return _witness_ok(op.refs, norm)
        # a `yes` is a certificate that T < r
        return norm["answer"] == "unknown" or (norm["answer"] == "yes"
                                               and a["r"] > a["T"])

    def widths(self, op: Op, norm: dict) -> list:
        return [norm["T"]] if op.kind == "solve" else []

    def nudge(self, op: Op, norm: dict) -> dict:
        lo, hi = norm["T"]
        shift = hi - op.args["T_star"] + R.ulp(lo, hi, PRECISION)
        return {"T": (lo - shift, hi - shift)}

    def known_red(self) -> int:
        """How many of the known-red certifications still raise."""
        import thermoait.errors as er
        import thermoait.fixedpoint as fp
        failing = 0
        for machine, quantity in KNOWN_RED:
            try:
                fp.certify(self.snapshots[machine], quantity, Fraction(1, 2),
                           PRECISION)
            except er.CertificationError:
                failing += 1
        return failing


def _witness_refs(T: Fraction, n: int) -> dict:
    """r = 0.T_n + 2^-n and Z(T), for the witness certificate check."""
    r = Fraction(math.floor(T * (1 << n)) + 1, 1 << n)
    return {"r": r, "Z_T": R.thermo("geometric", T)["Z"]}


def _witness_ok(refs: dict, norm: dict) -> bool:
    """The geometric machine's k-th program has length k and output k in
    binary.  A witness report is right when the depth-k_e partial sum at r
    exceeds Z(T), no program past k_e is as short as the threshold, and
    the witness is output by none of the first k_e programs."""
    k_e = norm["k_e"]
    outputs = {format(l, "b") for l in range(1, k_e + 1)}
    return (R.geometric_partial_Z(refs["r"], k_e) > refs["Z_T"]
            and norm["threshold"] < k_e + 1
            and norm["witness"] not in outputs)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_QUANTITIES = ("Z", "F", "E", "S")


def _sdm4_census(max_length: int) -> tuple[int, Fraction]:
    """Census total and Kraft sum of sdm4 up to max_length, from the
    recurrence d(m) = 2 d(m-1) + 3 d(m-2), d(0) = 1, d(1) = 2, for the
    d(m) programs of length 2m + 2."""
    d = [1, 2]
    m_max = (max_length - 2) // 2
    while len(d) <= m_max:
        d.append(2 * d[-1] + 3 * d[-2])
    d = d[:m_max + 1]
    return sum(d), sum(Fraction(c, 1 << (2 * m + 2)) for m, c in enumerate(d))


class Cli:
    """Fresh interpreter per op, one at a time.  A deck of 13 holds every
    subcommand: thermo at one T, on a grid, at 256 bits and on literal;
    verify on sdm4 1500 and geometric 600; solve; witness; reconstruct;
    complexity; profile; and an enumerate -> thermo --snapshot round trip,
    kept in order."""

    name = "cli"
    prefix_decks = 2
    NUDGE_KIND = "thermo"

    def __init__(self, seed: int, workdir: Path, src: Path):
        self.seed = seed
        self.workdir = workdir
        self.env = child_env(src)
        self.launcher = None  # set for the traced pass
        self.trace_files: list[Path] = []

    def deck(self, i: int) -> list[Op]:
        rng = random.Random(f"cli:{self.seed}:{i}")

        def temp(lo, hi):
            return _temp(rng.randrange(int(lo * SCALE), int(hi * SCALE)))

        def thermo_op(argv, machine, temps, precision=PRECISION):
            return Op("thermo", {"argv": argv, "precision": precision},
                      {T: R.thermo(machine, T) for T in temps})

        def arg(q: Fraction) -> str:
            return f"{q.numerator}/{q.denominator}"

        slots = []
        T = temp(Fraction(1, 16), Fraction(7, 8))
        slots.append([thermo_op(["thermo", "--machine", "geometric", "--maxlen", "600",
                                 "--T", arg(T), "--limit"], "geometric", [T])])
        a = Fraction(rng.randrange(32, 129), 256)
        grid = [a + Fraction(j, 16) for j in range(4)]
        slots.append([thermo_op(["thermo", "--machine", "sdm4", "--maxlen", "400",
                                 "--grid", f"{arg(a)}:{arg(grid[-1])}:1/16"],
                                "sdm4", grid)])
        for machine, maxlen in (("sdm4", "1500"), ("geometric", "600")):
            T = Fraction(rng.randrange(64, 193), 256)
            slots.append([Op("verify", {"argv": [
                "verify", "--machine", machine, "--maxlen", maxlen,
                "--grid", f"{arg(T)}:{arg(T)}:1"]})])
        quantity = CLI_QUANTITIES[(i + self.seed) % 4]
        T_star = temp(Fraction(1, 4), Fraction(3, 4))
        target = R.dyadic_round(R.thermo("geometric", T_star)[quantity], 256)
        slots.append([Op("solve", {"argv": [
            "solve", "--machine", "geometric", "--quantity", quantity,
            "--target", arg(target), "--tol", "1*2^-30"], "T_star": T_star})])
        T, n = temp(Fraction(1, 4), Fraction(3, 4)), rng.randrange(8, 25)
        slots.append([Op("witness", {"argv": ["witness", "--T", arg(T), "--n", str(n)]},
                         _witness_refs(T, n))])
        T, u, n = _criterion08_triple(rng)
        slots.append([Op("reconstruct", {"argv": [
            "reconstruct", "--T", arg(T), "--u", arg(u), "--n", str(n)], "T": T})])
        slots.append([Op("complexity", {"argv": [
            "complexity", "--machine", "literal", "--maxlen", "16"], "maxlen": 16})])
        T = Fraction(rng.randrange(64, 193), 256)
        slots.append([Op("profile", {"argv": [
            "profile", "--machine", "literal", "--maxlen", "21",
            "--alpha", f"Z@{arg(T)}", "--N", "12"]},
            {"alpha": R.thermo("geometric", T)["Z"]})])
        maxlen = rng.randrange(160, 241)
        snap = str(self.workdir / f"snap-{i}.txt")
        T = temp(Fraction(1, 16), Fraction(1, 2))
        slots.append([
            Op("enumerate", {"argv": ["enumerate", "--machine", "sdm4", "--budget",
                                      "200", "--maxlen", str(maxlen), "--save", snap],
                             "maxlen": maxlen}),
            thermo_op(["thermo", "--snapshot", snap, "--T", arg(T), "--limit"],
                      "sdm4", [T])])
        T = temp(Fraction(1, 16), Fraction(7, 8))
        slots.append([thermo_op(["--precision", "256", "thermo", "--machine",
                                 "geometric", "--maxlen", "600", "--T", arg(T),
                                 "--limit"], "geometric", [T], 256)])
        T = temp(Fraction(1, 16), Fraction(5, 8))
        slots.append([thermo_op(["thermo", "--machine", "literal", "--maxlen", "200",
                                 "--T", arg(T), "--limit"], "literal", [T])])
        rng.shuffle(slots)
        return [op for slot in slots for op in slot]

    def run(self, op: Op):
        if self.launcher is None:
            argv = [sys.executable, "-m", "thermoait.cli"]
        else:
            spans = self.workdir / f"trace-{len(self.trace_files)}.json"
            self.trace_files.append(spans)
            argv = [sys.executable, str(self.launcher), str(spans)]
        proc = subprocess.run(argv + op.args["argv"], env=self.env,
                              cwd=self.workdir, capture_output=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout

    def normalize(self, op: Op, out: bytes) -> dict:
        doc = json.loads(out)
        if op.kind == "thermo":
            return {"results": {
                Fraction(r["T"]): {e["quantity"]: _enc(e["value"]["lo"]["dyadic"],
                                                       e["value"]["hi"]["dyadic"])
                                   for e in r["quantities"]}
                for r in doc["results"]}, "precision": doc["precision_bits"]}
        if op.kind == "solve":
            t = doc["temperature"]
            return {"T": _enc(t["lo"]["dyadic"], t["hi"]["dyadic"])}
        if op.kind == "witness":
            return {"k_e": doc["k_e"], "witness": doc["witness"],
                    "threshold": R.parse_dyadic(doc["length_threshold"]["dyadic"])}
        if op.kind == "reconstruct":
            return {"candidate": R.parse_dyadic(doc["candidate"]["dyadic"]),
                    "radius": R.parse_dyadic(doc["radius"]["dyadic"])}
        return doc

    def check(self, op: Op, norm: dict) -> bool:
        a = op.args
        if op.kind == "thermo":
            return (norm["precision"] == a["precision"]
                    and set(norm["results"]) == set(op.refs)
                    and all(_thermo_ok(norm["results"][T], op.refs[T])
                            for T in op.refs))
        if op.kind == "solve":
            lo, hi = norm["T"]
            return lo - SOLVE_SLACK <= a["T_star"] <= hi + SOLVE_SLACK
        if op.kind == "witness":
            return _witness_ok(op.refs, norm)
        if op.kind == "reconstruct":
            return abs(norm["candidate"] - a["T"]) < norm["radius"]
        if op.kind == "verify":
            return (norm["failures"] == 0 and len(norm["checks"]) > 0
                    and all(c["status"] != "FAIL" for c in norm["checks"]))
        if op.kind == "complexity":
            n_max = (a["maxlen"] - 1) // 2
            entries = norm["entries"]
            return (norm["exactness"] == "exact"
                    and len(entries) == (1 << (n_max + 1)) - 1
                    and all(e["H"] == 2 * _bitlen(e["output"]) + 1
                            for e in entries))
        if op.kind == "profile":
            return _profile_ok(norm["profile"], op.refs["alpha"])
        if op.kind == "enumerate":
            total, kraft = _sdm4_census(a["maxlen"])
            return (norm["census_total"] == total
                    and Fraction(norm["kraft_partial"]) == kraft
                    and 0 < norm["programs"] <= total)
        raise ValueError(f"no check for {op.kind}")

    def widths(self, op: Op, norm: dict) -> list:
        if op.kind == "thermo":
            return [w for res in norm["results"].values()
                    for w in _thermo_widths(res)]
        return [norm["T"]] if op.kind == "solve" else []

    def nudge(self, op: Op, norm: dict) -> dict:
        T = next(iter(op.refs))
        results = {t: dict(res) for t, res in norm["results"].items()}
        results[T]["Z"] = R.nudged_off(*results[T]["Z"], op.refs[T]["Z"],
                                       norm["precision"])
        return dict(norm, results=results)


def _bitlen(rendered: str) -> int:
    return 0 if rendered == "-" else len(rendered)


def _profile_ok(entries: list, alpha) -> bool:
    """Literal maxlen 21 records every output of length <= 10, with
    H = 2n + 1; longer prefixes are absent.  The bits must be alpha's."""
    for pos, e in enumerate(entries, start=1):
        n = e["n"]
        if n != pos:
            return False
        if e["status"] == "unresolved":
            return pos == len(entries)
        if e["bits"] != R.frac_bits(alpha, n):
            return False
        want = ("ok", 2 * n + 1) if n <= 10 else ("absent", None)
        if (e["status"], e["H"]) != want:
            return False
    return True
