"""Command-line front end.

Every number leaves this module as an exact dyadic (``m*2^e`` plus a
finite decimal rendering) or an exact fraction, never a bare float, so
identical invocations are byte-identical and fit for regression capture.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 a certificate that cannot be established (CertificationError), 4 a
result unresolved at the working precision (PrecisionError).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from typing import Optional

from .dyadic import Dyadic, fraction_text, int_text
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, bits_prefix, parse_temperature_text,
)
from .ensembles import (
    DEFAULT_PROGRAM_CAP, MACHINES, EnsembleSnapshot, builtin_snapshot,
    load_snapshot, save_snapshot,
)
from .errors import CertificationError, PrecisionError, ThermoAITError
from .thermo import QUANTITIES, eval_limit, eval_partial

# fixedpoint, relations and complexity are imported inside the commands
# that call them, so that a command compiles only the modules it runs

EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_CERTIFY, EXIT_PRECISION = 0, 1, 2, 3, 4


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _dy(d: Dyadic) -> dict:
    return {"dyadic": d.serialize(), "decimal": d.decimal()}


def _enc(e: Enclosure) -> dict:
    return {"lo": _dy(e.lo), "hi": _dy(e.hi)}


def _json_text(value, level: int = 0) -> str:
    """json.dumps(value, indent=2), except that ints are rendered through
    int_text: json renders them with repr, which refuses an int past the
    interpreter's int-to-str digit limit, as a census total can be."""
    if isinstance(value, bool) or not isinstance(value, (dict, list, tuple,
                                                         int)):
        return json.dumps(value)
    if isinstance(value, int):
        return int_text(value)
    if not value:
        return json.dumps(value)
    pad = "\n" + "  " * (level + 1)
    if isinstance(value, dict):
        items = [f"{json.dumps(str(k))}: {_json_text(v, level + 1)}"
                 for k, v in value.items()]
        ends = "{}"
    else:
        items = [_json_text(v, level + 1) for v in value]
        ends = "[]"
    return (ends[0] + pad + ("," + pad).join(items) + "\n" + "  " * level
            + ends[1])


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


def _load(args, program_cap: int = DEFAULT_PROGRAM_CAP) -> EnsembleSnapshot:
    """The snapshot, with up to program_cap records if built (0: none)."""
    if getattr(args, "snapshot", None):
        return load_snapshot(args.snapshot)
    if not args.machine:
        raise ThermoAITError("need --machine or --snapshot")
    return builtin_snapshot(args.machine, args.maxlen,
                            step_budget=getattr(args, "budget", None),
                            program_cap=program_cap)


def _make_oracle(spec: str, handle, kind: str):
    """kind: 'upper' (descending to f(T)), 'lower' (ascending to f(T)),
    or 'approach' (descending to T from inside (T, t))."""
    from .fixedpoint import (
        approach_oracle, ascending_lower_oracle, descending_upper_oracle,
        file_oracle, grid_oracle,
    )
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
    sp.set_defaults(run=_cmd_enumerate)
    sp.add_argument("--machine", choices=MACHINES, required=True)
    sp.add_argument("--budget", type=int, required=True)
    sp.add_argument("--maxlen", type=int, required=True)
    sp.add_argument("--save", required=True)

    sp = sub.add_parser("thermo")
    sp.set_defaults(run=_cmd_thermo)
    machine_flags(sp, 120)
    sp.add_argument("--T", type=_dyadic_arg)
    sp.add_argument("--grid", type=_grid_arg)
    group = sp.add_mutually_exclusive_group()
    group.add_argument("--k", type=int)
    group.add_argument("--limit", action="store_true")

    sp = sub.add_parser("verify")
    sp.set_defaults(run=_cmd_verify)
    machine_flags(sp, 120)
    sp.add_argument("--grid", type=_grid_arg, required=True)
    sp.add_argument("--k", type=int, default=4)

    sp = sub.add_parser("solve")
    machine_flags(sp, 600)
    sp.set_defaults(run=_cmd_solve, machine="geometric")
    sp.add_argument("--quantity", choices=("Z", "F", "E", "S"), required=True)
    sp.add_argument("--target", type=_fraction_arg, required=True)
    sp.add_argument("--tol", type=_dyadic_arg, required=True)

    sp = sub.add_parser("witness")
    machine_flags(sp, 600)
    sp.set_defaults(run=_cmd_witness, machine="geometric")
    sp.add_argument("--T", type=_dyadic_arg, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--oracle", default="closed-form")

    sp = sub.add_parser("reconstruct")
    machine_flags(sp, 600)
    sp.set_defaults(run=_cmd_reconstruct, machine="geometric")
    sp.add_argument("--T", type=_dyadic_arg, required=True)
    sp.add_argument("--u", type=_dyadic_arg, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--oracle-A", default="closed-form")
    sp.add_argument("--oracle-B", default="closed-form")

    sp = sub.add_parser("complexity")
    sp.set_defaults(run=_cmd_complexity)
    machine_flags(sp, 16)

    sp = sub.add_parser("profile")
    machine_flags(sp, 21)
    sp.set_defaults(run=_cmd_profile, machine="literal")
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
        tail = ev.tail_bounds.get(q, Dyadic(0))
        entries.append({"quantity": q, "value": _enc(enc),
                        "tail_bound": _dy(tail)})
        rows.append([fraction_text(temperature), q, str(ev.k),
                     enc.lo.serialize(), enc.lo.decimal(),
                     enc.hi.serialize(), enc.hi.decimal(), tail.serialize()])
    return rows, entries


def _cmd_thermo(args, emit) -> int:
    snap = _load(args, program_cap=0)
    if (args.T is None) == (args.grid is None):
        raise ThermoAITError("need exactly one of --T or --grid")
    temps = args.grid if args.grid else [args.T.as_fraction()]
    use_limit = args.limit or args.k is None
    results, rows = [], []
    for T in temps:
        if use_limit:
            ev = eval_limit(snap, T, precision_bits=args.precision)
        else:
            ev = eval_partial(snap, T, args.k, precision_bits=args.precision)
        r, entries = _thermo_rows(ev, T)
        rows.extend(r)
        results.append({"T": fraction_text(T), "k": str(ev.k),
                        "quantities": entries})
    emit({"ensemble": snap.ensemble_id, "precision_bits": args.precision,
          "results": results},
         (["T", "quantity", "k", "value_lo", "value_lo_dec", "value_hi",
           "value_hi_dec", "tail_bound"], rows))
    return EXIT_OK


def _cmd_verify(args, emit) -> int:
    from .relations import _identities_and_positivity, check_monotone
    snap = _load(args, program_cap=0)
    checks = [(fraction_text(T), str(k), chk)
              for T in args.grid for k in (args.k, "limit")
              for rep in _identities_and_positivity(snap, T, k, args.precision)
              for chk in rep.checks]
    mono = check_monotone(snap, Fraction(1, 2),
                          min(12, sum(snap.census.values())))
    checks += [("1/2", "depth-sweep", chk) for chk in mono.checks]
    status = {True: "pass", False: "FAIL", None: "unresolved"}
    header = ["T", "k", "check", "status"]
    rows = [[T, k, chk.name, status[chk.passed]] for T, k, chk in checks]
    failures = sum(chk.passed is False for _, _, chk in checks)
    emit({"ensemble": snap.ensemble_id, "failures": failures,
          "checks": [dict(zip(header, row)) for row in rows]},
         (header, rows))
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_solve(args, emit) -> int:
    from .fixedpoint import certify, solve_temperature
    snap = _load(args)
    quantity = "-F" if args.quantity == "F" else args.quantity
    handle = certify(snap, quantity, Fraction(1, 2), args.precision)
    target = args.target if args.quantity != "F" else -args.target
    enc = solve_temperature(handle, target, args.tol)
    emit({"quantity": args.quantity, "target": fraction_text(args.target),
          "temperature": _enc(enc), "width": _dy(enc.width())},
         (["quantity", "target", "T_lo", "T_lo_dec", "T_hi", "T_hi_dec"],
          [[args.quantity, fraction_text(args.target), enc.lo.serialize(),
            enc.lo.decimal(), enc.hi.serialize(), enc.hi.decimal()]]))
    return EXIT_OK


def _cmd_witness(args, emit) -> int:
    from .fixedpoint import certify, witness_search
    snap = _load(args)
    handle = certify(snap, "Z", args.T.as_fraction(), args.precision)
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
            rep.length_threshold.serialize(), rep.witness.render(),
            str(rep.verified_through)]]))
    return EXIT_OK


def _cmd_reconstruct(args, emit) -> int:
    from .fixedpoint import certify, reconstruct_T
    from .thermo import limit_moments
    snap = _load(args)
    handle = certify(snap, "Z", args.T.as_fraction(), args.precision)
    u = args.u.as_fraction()
    bits_needed = int(-((-handle.T * args.n) // u))
    beta, _ = limit_moments(snap, u, (handle.b,), args.precision + 32)
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
            str(rep.beta_bits_used), rep.candidate.serialize(),
            rep.candidate.decimal(), rep.radius.serialize()]]))
    return EXIT_OK


def _cmd_complexity(args, emit) -> int:
    from .complexity import build_table
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
        snap = builtin_snapshot("geometric", 200, program_cap=0)
        return eval_limit(snap, T, precision_bits=precision).quantity(qname)
    return _parse_dyadic(spec)


def _cmd_profile(args, emit) -> int:
    from .complexity import build_table, profile as complexity_profile
    snap = _load(args)
    table = build_table(snap)
    alpha = _resolve_alpha(args.alpha, args.precision)
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

    def emit(payload: dict, csv_rows: tuple[list[str], list[list[str]]]):
        if args.out_format == "json":
            sys.stdout.write(_json_text(payload) + "\n")
        else:
            header, rows = csv_rows
            for row in (header, *rows):
                sys.stdout.write(",".join(row) + "\n")

    try:
        if args.precision < 16:
            raise ThermoAITError("precision must be at least 16 bits")
        return args.run(args, emit)
    except ThermoAITError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, CertificationError):
            return EXIT_CERTIFY
        if isinstance(exc, PrecisionError):
            return EXIT_PRECISION
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
