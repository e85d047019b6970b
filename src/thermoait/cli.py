"""Command-line front end.

Every number leaves this module as an exact dyadic (``m*2^e`` plus a
finite decimal rendering) or an exact fraction, never a bare float, so
identical invocations are byte-identical and fit for regression capture.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .bitstring import BitString
from .complexity import build_table, profile as complexity_profile
from .dyadic import Dyadic, fraction_text
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, bits_prefix, parse_temperature_text,
)
from .ensembles import (
    MACHINES, EnsembleSnapshot, builtin_snapshot, load_snapshot, save_snapshot,
)
from .errors import ThermoAITError
from .fixedpoint import (
    approach_oracle, ascending_lower_oracle, certify, descending_upper_oracle,
    file_oracle, grid_oracle, reconstruct_T, solve_temperature, witness_search,
)
from .relations import check_identities, check_monotone, check_positivity
from .thermo import QUANTITIES, eval_limit, eval_partial

EXIT_OK, EXIT_VERIFY, EXIT_USAGE = 0, 1, 2


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _dy(d: Dyadic) -> dict:
    return {"dyadic": d.serialize(), "decimal": d.decimal()}


def _enc(e: Enclosure) -> dict:
    return {"lo": _dy(e.lo), "hi": _dy(e.hi)}


class _Emitter:
    def __init__(self, out_format: str, stream):
        self.out_format = out_format
        self.stream = stream

    def emit(self, payload: dict, csv_rows: tuple[list[str], list[list[str]]]):
        if self.out_format == "json":
            self.stream.write(json.dumps(payload, indent=2) + "\n")
        else:
            header, rows = csv_rows
            self.stream.write(",".join(header) + "\n")
            for row in rows:
                self.stream.write(",".join(row) + "\n")


def _csv_num(d: Dyadic) -> str:
    return d.serialize()


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _argument_type(convert):
    """An argparse type= converter that reports the library's errors and a
    zero denominator as usage errors (exit 2) instead of escaping main."""
    @functools.wraps(convert)
    def checked(text: str):
        try:
            return convert(text)
        except ThermoAITError as exc:
            raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from None
        except ZeroDivisionError:
            raise argparse.ArgumentTypeError(
                f"{text!r}: zero denominator") from None
    return checked


def _parse_dyadic(text: str) -> Dyadic:
    return parse_temperature_text(text)


def _parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def _parse_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ThermoAITError("grid must be a:b:step")
    a, b, step = (Fraction(p) for p in parts)
    if step <= 0 or b < a:
        raise ThermoAITError("grid needs a <= b and step > 0")
    grid, x = [], a
    while x <= b:
        grid.append(x)
        x += step
    return grid


_dyadic_arg = _argument_type(_parse_dyadic)
_fraction_arg = _argument_type(_parse_fraction)
_grid_arg = _argument_type(_parse_grid)


def _load(args) -> EnsembleSnapshot:
    if getattr(args, "snapshot", None):
        return load_snapshot(args.snapshot)
    if not args.machine:
        raise ThermoAITError("need --machine or --snapshot")
    return builtin_snapshot(args.machine, args.maxlen,
                            step_budget=getattr(args, "budget", None))


def _make_oracle(spec: str, handle, kind: str):
    """kind: 'upper' (descending to f(T)), 'lower' (ascending to f(T)),
    or 'approach' (descending to T from inside (T, t))."""
    if spec == "closed-form":
        if kind == "upper":
            return descending_upper_oracle(handle)
        if kind == "lower":
            return ascending_lower_oracle(handle)
        return approach_oracle(handle)
    if spec.startswith("file:"):
        return file_oracle(spec[5:])
    if spec.startswith("grid:"):
        if kind != "upper":
            raise ThermoAITError("grid oracles only serve upper bounds")
        return grid_oracle(handle, _parse_dyadic(spec[5:]))
    raise ThermoAITError(f"unknown oracle spec {spec!r}; "
                         "use closed-form, file:<path>, or grid:<step>")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="thermoait")
    p.add_argument("--precision", type=int,
                   default=int(os.environ.get("THERMOAIT_PRECISION",
                                              DEFAULT_PRECISION)))
    p.add_argument("--format", dest="out_format", choices=("csv", "json"),
                   default="json")
    sub = p.add_subparsers(dest="command", required=True)

    def machine_flags(sp, default_maxlen):
        sp.add_argument("--machine", choices=MACHINES)
        sp.add_argument("--snapshot")
        sp.add_argument("--maxlen", type=int, default=default_maxlen)

    sp = sub.add_parser("enumerate")
    sp.add_argument("--machine", choices=MACHINES, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--maxlen", type=int, required=True)
    sp.add_argument("--save", required=True)

    sp = sub.add_parser("thermo")
    machine_flags(sp, 120)
    sp.add_argument("--T", type=_dyadic_arg)
    sp.add_argument("--grid", type=_grid_arg)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--k", type=int)
    group.add_argument("--limit", action="store_true")

    sp = sub.add_parser("verify")
    machine_flags(sp, 120)
    sp.add_argument("--grid", type=_grid_arg, required=True)
    sp.add_argument("--k", type=int, default=4)

    sp = sub.add_parser("solve")
    machine_flags(sp, 600)
    sp.set_defaults(machine="geometric")
    sp.add_argument("--quantity", choices=("Z", "F", "E", "S"), required=True)
    sp.add_argument("--target", type=_fraction_arg, required=True)
    sp.add_argument("--tol", type=_dyadic_arg, required=True)

    sp = sub.add_parser("witness")
    machine_flags(sp, 600)
    sp.set_defaults(machine="geometric")
    sp.add_argument("--T", type=_dyadic_arg, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--oracle", default="closed-form")

    sp = sub.add_parser("reconstruct")
    machine_flags(sp, 600)
    sp.set_defaults(machine="geometric")
    sp.add_argument("--T", type=_dyadic_arg, required=True)
    sp.add_argument("--u", type=_dyadic_arg, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--b", type=int, default=0,
                    help="exponent of the beta power sum; must match the "
                         "certified handle")
    sp.add_argument("--oracle-A", default="closed-form")
    sp.add_argument("--oracle-B", default="closed-form")

    sp = sub.add_parser("complexity")
    machine_flags(sp, 16)

    sp = sub.add_parser("profile")
    machine_flags(sp, 21)
    sp.set_defaults(machine="literal")
    sp.add_argument("--alpha", required=True,
                    help="a dyadic, or quantity@T (e.g. Z@1/2) evaluated "
                         "on the geometric ensemble")
    sp.add_argument("--N", type=int, required=True)
    return p


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_enumerate(args, emit) -> int:
    snap = builtin_snapshot(args.machine, args.maxlen,
                            step_budget=args.budget)
    save_snapshot(snap, args.save)
    kraft = snap.kraft_partial()
    payload = {
        "ensemble": snap.ensemble_id,
        "max_length": snap.max_length,
        "step_budget": snap.step_budget,
        "programs": len(snap.programs),
        "census_total": sum(snap.census.values()),
        "kraft_partial": fraction_text(kraft),
        "saved": args.save,
    }
    rows = [[snap.ensemble_id, str(snap.max_length), str(len(snap.programs)),
             fraction_text(kraft)]]
    emit(payload, (["ensemble", "maxlen", "programs", "kraft_partial"], rows))
    return EXIT_OK


def _thermo_rows(ev, temperature: Fraction):
    rows, entries = [], []
    for q in QUANTITIES:
        enc = ev.quantity(q)
        tail = ev.tail_bounds.get(q, Dyadic(0)) if ev.tail_bounds else Dyadic(0)
        entries.append({"quantity": q, "value": _enc(enc),
                        "tail_bound": _dy(tail)})
        rows.append([fraction_text(temperature), q, str(ev.k),
                     _csv_num(enc.lo), enc.lo.decimal(),
                     _csv_num(enc.hi), enc.hi.decimal(), _csv_num(tail)])
    return rows, entries


def _cmd_thermo(args, emit, precision) -> int:
    snap = _load(args)
    if (args.T is None) == (args.grid is None):
        raise ThermoAITError("need exactly one of --T or --grid")
    temps = args.grid if args.grid else [args.T.as_fraction()]
    use_limit = args.limit or args.k is None
    results, rows = [], []
    for T in temps:
        if use_limit:
            ev = eval_limit(snap, T, precision_bits=precision)
        else:
            ev = eval_partial(snap, T, args.k, precision_bits=precision)
        r, entries = _thermo_rows(ev, T)
        rows.extend(r)
        results.append({"T": fraction_text(T), "k": str(ev.k),
                        "quantities": entries})
    emit({"ensemble": snap.ensemble_id, "precision_bits": precision,
          "results": results},
         (["T", "quantity", "k", "value_lo", "value_lo_dec", "value_hi",
           "value_hi_dec", "tail_bound"], rows))
    return EXIT_OK


def _cmd_verify(args, emit, precision) -> int:
    snap = _load(args)
    failures, reports, rows = 0, [], []
    for T in args.grid:
        for k in (args.k, "limit"):
            for rep in (check_identities(snap, T, k, precision),
                        check_positivity(snap, T, k, precision)):
                for chk in rep.checks:
                    status = {True: "pass", False: "FAIL",
                              None: "unresolved"}[chk.passed]
                    if chk.passed is False:
                        failures += 1
                    reports.append({"T": fraction_text(T), "k": str(k),
                                    "check": chk.name, "status": status})
                    rows.append([fraction_text(T), str(k), chk.name, status])
    mono = check_monotone(snap, Fraction(1, 2),
                          min(12, sum(snap.census.values())))
    for chk in mono.checks:
        status = {True: "pass", False: "FAIL", None: "unresolved"}[chk.passed]
        if chk.passed is False:
            failures += 1
        reports.append({"T": "1/2", "k": "depth-sweep", "check": chk.name,
                        "status": status})
        rows.append(["1/2", "depth-sweep", chk.name, status])
    emit({"ensemble": snap.ensemble_id, "failures": failures,
          "checks": reports},
         (["T", "k", "check", "status"], rows))
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_solve(args, emit, precision) -> int:
    snap = _load(args)
    quantity = "-F" if args.quantity == "F" else args.quantity
    handle = certify(snap, quantity, Fraction(1, 2), precision)
    target = args.target if args.quantity != "F" else -args.target
    enc = solve_temperature(handle, target, args.tol)
    emit({"quantity": args.quantity, "target": fraction_text(args.target),
          "temperature": _enc(enc), "width": _dy(enc.width())},
         (["quantity", "target", "T_lo", "T_lo_dec", "T_hi", "T_hi_dec"],
          [[args.quantity, fraction_text(args.target), _csv_num(enc.lo),
            enc.lo.decimal(), _csv_num(enc.hi), enc.hi.decimal()]]))
    return EXIT_OK


def _cmd_witness(args, emit, precision) -> int:
    snap = _load(args)
    handle = certify(snap, "Z", args.T.as_fraction(), precision)
    bits = bits_prefix(args.T, args.n)
    oracle = _make_oracle(args.oracle, handle, "upper")
    rep = witness_search(handle, bits, oracle)
    emit({"T": fraction_text(rep.T), "n": rep.n, "k_e": rep.k_e,
          "length_threshold": _dy(rep.length_threshold),
          "witness": rep.witness.render(),
          "verified_through": rep.verified_through},
         (["T", "n", "k_e", "length_threshold", "witness",
           "verified_through"],
          [[fraction_text(rep.T), str(rep.n), str(rep.k_e),
            _csv_num(rep.length_threshold), rep.witness.render(),
            str(rep.verified_through)]]))
    return EXIT_OK


def _cmd_reconstruct(args, emit, precision) -> int:
    from .thermo import limit_moments
    snap = _load(args)
    handle = certify(snap, "Z", args.T.as_fraction(), precision)
    if args.b != handle.b:
        raise ThermoAITError(
            f"--b {args.b} does not match the certified exponent {handle.b}")
    u = args.u.as_fraction()
    bits_needed = int(-((-handle.T * args.n) // u))
    beta, _ = limit_moments(snap, u, (handle.b,), precision + 32)
    prefix = bits_prefix(beta[handle.b], bits_needed)
    rep = reconstruct_T(handle, u, args.n, prefix,
                        _make_oracle(args.oracle_A, handle, "approach"),
                        _make_oracle(args.oracle_B, handle, "lower"))
    emit({"T_true": fraction_text(rep.T_true), "n": rep.n,
          "u": fraction_text(rep.u),
          "beta_bits_used": rep.beta_bits_used,
          "candidate": _dy(rep.candidate), "radius": _dy(rep.radius)},
         (["T_true", "n", "u", "beta_bits", "candidate", "candidate_dec",
           "radius"],
          [[fraction_text(rep.T_true), str(rep.n), fraction_text(rep.u),
            str(rep.beta_bits_used), _csv_num(rep.candidate),
            rep.candidate.decimal(), _csv_num(rep.radius)]]))
    return EXIT_OK


def _cmd_complexity(args, emit) -> int:
    snap = _load(args)
    table = build_table(snap)
    items = sorted(table.entries.items())
    rows = [[s.render(), str(h), prog.render()] for s, (h, prog) in items]
    emit({"ensemble": snap.ensemble_id, "exactness": table.exactness,
          "entries": [{"output": s.render(), "H": h,
                       "min_program": prog.render()}
                      for s, (h, prog) in items]},
         (["output", "H", "min_program"], rows))
    return EXIT_OK


def _resolve_alpha(spec: str, precision: int):
    if "@" in spec:
        qname, t_text = spec.split("@", 1)
        if qname not in QUANTITIES:
            raise ThermoAITError(f"unknown quantity {qname!r} in --alpha")
        T = parse_temperature_text(t_text).as_fraction()
        snap = builtin_snapshot("geometric", 200)
        return eval_limit(snap, T, precision_bits=precision).quantity(qname)
    return _parse_dyadic(spec)


def _cmd_profile(args, emit, precision) -> int:
    snap = _load(args)
    table = build_table(snap)
    alpha = _resolve_alpha(args.alpha, precision)
    prof = complexity_profile(alpha, args.N, table)
    rows, entries = [], []
    for e in prof:
        bits = e.bits.render() if e.bits is not None else ""
        h = str(e.H) if e.H is not None else e.status
        ratio = fraction_text(e.ratio) if e.ratio is not None else e.status
        rows.append([str(e.n), bits, h, ratio])
        entries.append({"n": e.n, "bits": bits, "H": e.H,
                        "ratio": fraction_text(e.ratio) if e.ratio else None,
                        "status": e.status})
    emit({"alpha": args.alpha, "machine": snap.ensemble_id,
          "exactness": table.exactness, "profile": entries},
         (["n", "bits", "H", "ratio"], rows))
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors with code 2
        return EXIT_USAGE if exc.code else EXIT_OK
    emitter = _Emitter(args.out_format, sys.stdout)
    emit = emitter.emit
    try:
        if args.precision < 16:
            raise ThermoAITError("precision must be at least 16 bits")
        if args.command == "enumerate":
            return _cmd_enumerate(args, emit)
        if args.command == "thermo":
            return _cmd_thermo(args, emit, args.precision)
        if args.command == "verify":
            return _cmd_verify(args, emit, args.precision)
        if args.command == "solve":
            return _cmd_solve(args, emit, args.precision)
        if args.command == "witness":
            return _cmd_witness(args, emit, args.precision)
        if args.command == "reconstruct":
            return _cmd_reconstruct(args, emit, args.precision)
        if args.command == "complexity":
            return _cmd_complexity(args, emit)
        if args.command == "profile":
            return _cmd_profile(args, emit, args.precision)
        raise ThermoAITError(f"unknown command {args.command!r}")
    except ThermoAITError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
