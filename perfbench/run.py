"""Benchmark for thermoait: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src``.
With ``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it runs the workload's fixed prefix of decks twice, plain
and then with every layer wrapped, and reports the per-layer metrics.
Every returned value is checked against an mpmath reference.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same metrics with their sample counts.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import reference
import tracer as tr
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
STATE = ROOT / ".perfbench_state"

MIN_OK = 100         # ops, so that op_p90_ms has ten samples beyond it
SETUP_ROUNDS = 5     # set-ups per run; setup_s is their median
HARD_STOP_S = 120.0  # loop seconds after which a run stops regardless

END_TO_END = {  # name -> unit
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "success_frac": "ratio", "peak_rss_mib": "MiB",
    "cert_bits_min": "bits", "cert_bits_p50": "bits",
}


class BenchmarkError(Exception):
    """The benchmark itself cannot produce a valid result."""


@dataclass
class Outcome:
    deck: int
    op: object
    seconds: float  # wall time of the op
    pace: float     # machine_pace() around the op
    out: object
    error: str | None


def machine_pace() -> float:
    """Seconds for a fixed big-integer loop, best of three.  Other tenants
    of the machine slow everything, this loop included, by up to 1.9x for
    seconds at a time, so every time the benchmark reports is corrected
    by the pace measured around it (see corrected())."""
    best = math.inf
    for _ in range(3):
        t = perf_counter()
        x, acc = 3 ** 200, 0
        for i in range(400):
            acc += (x * (i + 1)) >> 17
        best = min(best, perf_counter() - t)
    return best


# machine_pace() of the reference machine (2.1 GHz Xeon, Python 3.11.7)
# when nothing else runs on it
REFERENCE_PACE = 44e-6


def corrected(seconds: float, pace: float) -> float:
    """A time as it would read on the reference machine at rest."""
    return seconds * REFERENCE_PACE / pace


# ---------------------------------------------------------------------------
# workload construction and the closed loop
# ---------------------------------------------------------------------------

def make_workload(name: str, seed: int, workdir: Path):
    if name == "sweep":
        return workloads.Sweep(seed)
    if name == "procedures":
        return workloads.Procedures(seed)
    return workloads.Cli(seed, workdir, SRC)


def import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import thermoait; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=workloads.child_env(SRC),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import thermoait: {proc.stderr[-300:]}")
    return float(proc.stdout)


def set_up(name: str, seed: int, workdir: Path, rounds: int):
    """Import, snapshot builds and the fixed prefix of inputs (with their
    references), `rounds` times; returns the last workload, its prefix
    decks and the (seconds, pace) of each round."""
    times, wl = [], None
    for _ in range(rounds):
        del wl  # free the previous round's snapshots before the next build
        pace = machine_pace()
        t_import = import_seconds()
        t0 = perf_counter()
        wl = make_workload(name, seed, workdir)
        decks = [wl.deck(i) for i in range(wl.prefix_decks)]
        seconds = t_import + perf_counter() - t0
        times.append((seconds, (pace + machine_pace()) / 2))
    return wl, decks, times


def peak_rss_mib(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def closed_loop(wl, decks: list, seconds: float, fixed: bool, tracer=None):
    """One client, one op at a time.  Runs whole decks: exactly the prefix
    when `fixed`, else until the ops have taken `seconds` and MIN_OK of
    them returned (and never fewer decks than the prefix)."""
    outcomes: list[Outcome] = []
    loop_s, rss, i = 0.0, None, 0
    while True:
        if i == len(decks):
            decks.append(wl.deck(i))  # generated outside the loop time
        ops = decks[i]
        if ops is None:
            break
        for op in ops:
            if tracer is not None:
                tracer.op = len(outcomes)
            pace = machine_pace()
            t = perf_counter()
            try:
                out, error = wl.run(op), None
            except Exception as exc:  # a raising op is a failed op
                out, error = None, f"{type(exc).__name__}: {exc}"
            took = perf_counter() - t
            loop_s += took
            outcomes.append(Outcome(i, op, took, (pace + machine_pace()) / 2,
                                    out, error))
        i += 1
        if i == wl.prefix_decks:
            rss = peak_rss_mib(wl.name)
        if i < wl.prefix_decks:
            continue
        if fixed:
            break
        returned = sum(o.error is None for o in outcomes)
        if (loop_s >= seconds and returned >= MIN_OK) or loop_s >= HARD_STOP_S:
            break
    return outcomes, rss


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

@dataclass
class Checked:
    attempted: int
    ok: list            # outcomes that returned the right output
    failures: Counter   # reason -> count
    wrong: int          # ops that returned wrong output
    prefix_widths: list  # (lo, hi) of every certified result in the prefix
    prefix_status: list  # per prefix op: kind and ok / failure reason
    first_ok: tuple | None  # (op, normalized output) usable for the self-test


def check_outcomes(wl, outcomes: list[Outcome]) -> Checked:
    c = Checked(len(outcomes), [], Counter(), 0, [], [], None)
    for o in outcomes:
        status = "ok"
        if o.error is not None:
            status = o.error.split(":", 1)[0]
        else:
            try:
                norm = wl.normalize(o.op, o.out)
                right = wl.check(o.op, norm)
            except Exception:  # malformed output is wrong output
                right, norm = False, None
                traceback.print_exc(limit=2, file=sys.stderr)
            if right:
                c.ok.append(o)
                if o.deck < wl.prefix_decks:
                    c.prefix_widths.extend(wl.widths(o.op, norm))
                if c.first_ok is None and o.op.kind == wl.NUDGE_KIND:
                    c.first_ok = (o.op, norm)
            else:
                status = "wrong output"
                c.wrong += 1
                print(f"wrong output: {o.op.kind} {o.op.args}", file=sys.stderr)
        if status != "ok":
            c.failures[status] += 1
        if o.deck < wl.prefix_decks:
            c.prefix_status.append(f"{o.op.kind}:{status}")
    return c


def self_test(wl, checked: Checked) -> None:
    """A result nudged one ulp off its reference must fail the check."""
    if checked.first_ok is None:
        raise BenchmarkError("no correct result to run the checker self-test on")
    op, norm = checked.first_ok
    if not wl.check(op, norm) or wl.check(op, wl.nudge(op, norm)):
        raise BenchmarkError("checker self-test failed: a result one ulp off "
                             "its reference was not caught")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def nearest_rank(values: list, q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def width_bits(widths: list) -> list[float]:
    """-log2 of each nonzero width: the certified bits of each result."""
    bits = []
    for lo, hi in widths:
        lw = reference.log2_width(lo, hi)
        if lw is not None:
            bits.append(-lw)
    return bits


def end_to_end(name: str, outcomes: list[Outcome], checked: Checked,
               rss: float, setup_rss: float,
               setup: list) -> tuple[dict, list[str]]:
    """The eight end-to-end metrics; times are corrected to the reference
    pace, and the raw figures are printed beside them."""
    n_ok = len(checked.ok)
    if n_ok == 0:
        raise BenchmarkError("no op succeeded")
    bits = width_bits(checked.prefix_widths)
    if not bits:
        raise BenchmarkError("no certified result in the fixed prefix")
    loop_s = sum(corrected(o.seconds, o.pace) for o in outcomes)
    ok_s = [corrected(o.seconds, o.pace) for o in checked.ok]
    raw_s = [o.seconds for o in checked.ok]
    beyond = n_ok - math.ceil(0.9 * n_ok)
    values = {
        "setup_s": statistics.median(corrected(t, p) for t, p in setup),
        "ops_per_s": n_ok / loop_s,
        "op_p50_ms": statistics.median(ok_s) * 1e3,
        "op_p90_ms": nearest_rank(ok_s, 0.9) * 1e3,
        "success_frac": n_ok / checked.attempted,
        "peak_rss_mib": rss,
        "cert_bits_min": min(bits),
        "cert_bits_p50": statistics.median(bits),
    }
    raw_loop = sum(o.seconds for o in outcomes)
    notes = {
        "setup_s": f"median of {len(setup)} set-ups; raw "
                   f"{statistics.median(t for t, _ in setup):.4f}",
        "ops_per_s": f"{n_ok} ok of {checked.attempted} attempted; raw "
                     f"{n_ok / raw_loop:.4f} over {raw_loop:.2f} s",
        "op_p50_ms": f"n={n_ok}; raw {statistics.median(raw_s) * 1e3:.4f}",
        "op_p90_ms": f"n={n_ok}, {beyond} beyond; raw "
                     f"{nearest_rank(raw_s, 0.9) * 1e3:.4f}"
                     + ("" if beyond >= 10 else " (fewer than 10 beyond)"),
        "success_frac": f"failed_frac {1 - n_ok / checked.attempted:.4f}",
        "peak_rss_mib": ("largest child" if name == "cli" else "this process")
                        + f" after the prefix; {setup_rss:.2f} after set-up",
        "cert_bits_min": f"-log2 of the widest of {len(bits)} prefix results",
        "cert_bits_p50": f"median -log2 width of {len(bits)} prefix results",
    }
    lines = [f"  {k:<16} {values[k]:>14.6f} {END_TO_END[k]:<6} {notes[k]}"
             for k in END_TO_END]
    lines.append(f"  times corrected to the reference pace {REFERENCE_PACE * 1e6:.1f} us; "
                 f"median pace {statistics.median(o.pace for o in outcomes) * 1e6:.2f} us")
    return values, lines


# ---------------------------------------------------------------------------
# determinism across runs of one seed
# ---------------------------------------------------------------------------

def code_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for root in (SRC / "thermoait", HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def compare_records(what: str, before: dict, now: dict) -> None:
    if before != now:
        diff = sorted(k for k in set(before) | set(now)
                      if before.get(k) != now.get(k))
        raise BenchmarkError(f"determinism check failed for {what}: "
                             f"{', '.join(diff)} differ")


def determinism_check(key: str, record: dict, clean: bool) -> None:
    """Same code and seed, same counts and widths: a difference is a
    benchmark error.  Records are kept per digest of the code, so a
    program change starts a new record instead of looking like
    nondeterminism.  The first clean run of a seed writes the record;
    a run with a failed op neither writes nor checks one, since its
    failures are already reported as failed ops."""
    if not clean:
        return
    STATE.mkdir(exist_ok=True)
    path = STATE / f"{key}-{code_digest()}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        compare_records(f"{key} against an earlier run", before, record)
        return
    part = path.with_suffix(".part")
    part.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    part.replace(path)


def prefix_clean(checked: Checked) -> bool:
    return all(status.endswith(":ok") for status in checked.prefix_status)


def prefix_record(checked: Checked) -> dict:
    digest = hashlib.sha256()
    for status in checked.prefix_status:
        digest.update(status.encode() + b"\n")
    for lo, hi in checked.prefix_widths:
        digest.update(f"{lo} {hi}\n".encode())
    return {"prefix_ops": len(checked.prefix_status),
            "prefix_digest": digest.hexdigest()}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(args, workdir: Path):
    wl, decks, setup = set_up(args.workload, args.seed, workdir, SETUP_ROUNDS)
    setup_rss = peak_rss_mib(args.workload)
    outcomes, rss = closed_loop(wl, decks, args.seconds, fixed=False)
    checked = check_outcomes(wl, outcomes)
    self_test(wl, checked)
    values, lines = end_to_end(args.workload, outcomes, checked, rss,
                               setup_rss, setup)
    if hasattr(wl, "known_red"):
        lines.append(f"  known-red sdm4 E/S certifications still raising: "
                     f"{wl.known_red()} of 2")
    determinism_check(f"{args.workload}-seed{args.seed}-prefix",
                      prefix_record(checked), prefix_clean(checked))
    return checked, values, lines


def run_traced(args, workdir: Path):
    wl, decks, _ = set_up(args.workload, args.seed, workdir, 1)
    known_red = wl.known_red() if hasattr(wl, "known_red") else 0
    tr.clear_weight_chains()  # both passes start from an empty cache
    plain, _ = closed_loop(wl, decks, args.seconds, fixed=True)

    tr.clear_weight_chains()
    tracer = tr.Tracer()
    tracer.install()
    tracer.op = "setup"
    wl = make_workload(args.workload, args.seed, workdir)  # traced set-up
    agg = tr.Aggregate()
    if args.workload == "cli":
        wl.launcher = HERE / "launch.py"
    traced, _ = closed_loop(wl, decks, args.seconds, fixed=True, tracer=tracer)
    extra = {"fixedpoint.known_red_certify_errors": known_red}
    STATE.mkdir(exist_ok=True)
    spans_out = STATE / f"spans-{args.workload}-seed{args.seed}.json"
    if args.workload == "cli":
        startup, chain_entries, children = [], 0, []
        for op_id, (o, path) in enumerate(zip(traced, wl.trace_files)):
            doc = json.loads(path.read_text(encoding="utf-8"))
            children.append(dict(doc, op=op_id))
            agg.add(doc["spans"], doc["oracle_values"], doc["absent"])
            main_s = sum(s[2] - s[1] for s in doc["spans"] if s[0] == "cli.main")
            startup.append((o.seconds - main_s) * 1e3)
            chain_entries += doc["weight_chain_entries"]
        spans_out.write_text(json.dumps({"children": children}), encoding="utf-8")
        extra.update({
            "cli.startup_ms": round(statistics.median(startup), 4),
            "cli.stdout_bytes": sum(len(o.out) for o in traced if o.out),
            "thermo.weight_chain_entries": chain_entries})
    else:
        tracer.dump(spans_out, {})
        agg.add(tracer.spans, tracer.oracle_values, tracer.absent)
        extra["thermo.weight_chain_entries"] = tr.weight_chain_entries()
    checked_plain = check_outcomes(wl, plain)
    checked = check_outcomes(wl, traced)
    self_test(wl, checked)
    plain_s = sum(corrected(o.seconds, o.pace) for o in plain)
    traced_s = sum(corrected(o.seconds, o.pace) for o in traced)
    extra["trace.overhead_frac"] = round(
        1 - (len(checked.ok) / traced_s) / (len(checked_plain.ok) / plain_s), 6)
    values = agg.metrics(extra)
    lines = [f"  {k:<44} {v:>14} {tr.LAYER_METRICS[k]}"
             for k, v in values.items()]
    if agg.absent:
        lines.append(f"  absent (reported as 0): {', '.join(sorted(agg.absent))}")
    # the plain and the traced pass run the same prefix: same outcomes
    # and widths within this run, and the same as any untraced run
    clean = prefix_clean(checked_plain) and prefix_clean(checked)
    if clean:
        compare_records("the plain and the traced pass",
                        prefix_record(checked_plain), prefix_record(checked))
    determinism_check(f"{args.workload}-seed{args.seed}-prefix",
                      prefix_record(checked_plain), clean)
    counts = {k: v for k, v in values.items()
              if tr.LAYER_METRICS[k] != tr.MS and k != "trace.overhead_frac"}
    determinism_check(f"{args.workload}-seed{args.seed}-counts", counts, clean)
    total = Checked(checked.attempted + checked_plain.attempted,
                    checked.ok + checked_plain.ok,
                    checked.failures + checked_plain.failures,
                    checked.wrong + checked_plain.wrong, [], [], None)
    return total, {k: values[k] for k in tr.LAYER_METRICS}, lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("sweep", "procedures", "cli"),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "thermoait" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'thermoait'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import thermoait  # noqa: F401  (imported before any set-up is timed)
    TMP.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP))
    try:
        runner = run_traced if args.trace else run_untraced
        checked, values, lines = runner(args, workdir)
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = tr.LAYER_METRICS if args.trace else END_TO_END
    failed = checked.attempted - len(checked.ok)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for reason, count in sorted(checked.failures.items()):
        print(f"  failed: {count} x {reason}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": checked.wrong == 0,
        "attempted": checked.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
