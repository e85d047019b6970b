"""Span tracer for the benchmark's traced run.

The tracer wraps functions of the thermoait modules from the outside: it
replaces every binding of a target function in every loaded thermoait
module (``thermo.exp2_enclosure``, ``fixedpoint.limit_moments`` and
``relations.evaluate`` are separate bindings of the same function), so
a call is recorded wherever its caller looks it up.  A span holds name,
start, end, parent span and op id; spans stay in memory until the run
ends.  A target that no longer exists is reported as absent, never as an
error, so the tracer survives refactors that remove or rename helpers.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from time import perf_counter

# (metric prefix, module, attribute); "Class.method" wraps a method
TARGETS = [
    ("thermo.moment_sums", "thermo", "moment_sums"),
    ("thermo.moment_tail_bound", "thermo", "moment_tail_bound"),
    ("thermo.limit_moments", "thermo", "limit_moments"),
    ("thermo.derive_quantities", "thermo", "derive_quantities"),
    ("thermo.eval_limit", "thermo", "eval_limit"),
    ("enclosure.exp2", "enclosure", "exp2_enclosure"),
    ("enclosure.log2", "enclosure", "log2_enclosure"),
    ("enclosure.div", "enclosure", "div"),
    ("ensembles.builtin_snapshot", "ensembles", "builtin_snapshot"),
    ("ensembles.sdm4_census_count", "ensembles", "sdm4_census_count"),
    ("ensembles.run_sdm4", "ensembles", "run_sdm4"),
    ("ensembles.load_snapshot", "ensembles", "load_snapshot"),
    ("fixedpoint.certify", "fixedpoint", "certify"),
    ("fixedpoint.solve_temperature", "fixedpoint", "solve_temperature"),
    ("fixedpoint.witness_search", "fixedpoint", "witness_search"),
    ("fixedpoint.semidecide_above", "fixedpoint", "semidecide_above"),
    ("fixedpoint.reconstruct_T", "fixedpoint", "reconstruct_T"),
    ("fixedpoint.handle_g", "fixedpoint", "QuantityHandle.g"),
    ("relations.check_identities", "relations", "check_identities"),
    ("relations.check_positivity", "relations", "check_positivity"),
    ("relations.check_monotone", "relations", "check_monotone"),
    ("complexity.build_table", "complexity", "build_table"),
    ("complexity.profile", "complexity", "profile"),
    ("cli.main", "cli", "main"),
]

# oracle factories return generators; the tracer counts the values drawn
ORACLES = ["descending_upper_oracle", "ascending_lower_oracle",
           "approach_oracle"]


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _moment_sums_extra(args, kwargs):
    items = _arg(args, kwargs, 0, "length_counts")
    if not hasattr(items, "__len__"):  # an iterator: count without consuming
        items = list(items)
        if "length_counts" in kwargs:
            kwargs = dict(kwargs, length_counts=items)
        else:
            args = (items,) + tuple(args[1:])
    return args, kwargs, len(items)


def _tail_extra(args, kwargs):
    snapshot, L = _arg(args, kwargs, 0, "snapshot"), _arg(args, kwargs, 1, "L")
    return args, kwargs, int(L >= snapshot.max_length)


def _exp2_extra(args, kwargs):
    return args, kwargs, _arg(args, kwargs, 1, "precision_bits", 64)


EXTRAS = {
    "thermo.moment_sums": _moment_sums_extra,
    "thermo.moment_tail_bound": _tail_extra,
    "enclosure.exp2": _exp2_extra,
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index, op id, extra]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = None
        self.oracle_values = 0
        self.absent: list[str] = []

    # -- installation -----------------------------------------------

    def install(self) -> None:
        for modname in sorted({t[1] for t in TARGETS}):
            try:
                importlib.import_module(f"thermoait.{modname}")
            except ModuleNotFoundError:
                pass  # its targets are reported absent below
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "thermoait" or n.startswith("thermoait."))
                   and m is not None]
        for name, modname, attr in TARGETS:
            module = sys.modules.get(f"thermoait.{modname}")
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, method, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                setattr(owner, method, wrapper)
            else:
                _rebind(modules, original, wrapper)
        fixedpoint = sys.modules.get("thermoait.fixedpoint")
        for attr in ORACLES:
            original = getattr(fixedpoint, attr, None)
            if callable(original):
                _rebind(modules, original, self._wrap_oracle(original))

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        extra_of = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            extra = 0
            if extra_of is not None:
                try:
                    args, kwargs, extra = extra_of(args, kwargs)
                except (IndexError, KeyError, AttributeError, TypeError):
                    extra = 0  # a changed signature loses the counter only
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, extra]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return traced

    def _wrap_oracle(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for value in fn(*args, **kwargs):
                self.oracle_values += 1
                yield value

        return counted

    # -- output -----------------------------------------------------

    def dump(self, path, extra: dict) -> None:
        """Write the spans and run-level counters as one JSON document."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "oracle_values": self.oracle_values,
                       "absent": self.absent, **extra}, fh)


def _rebind(modules, original, wrapper) -> None:
    for module in modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def weight_chain_entries() -> int:
    """Entries held by the global weight-chain cache; 0 once it is gone."""
    thermo = sys.modules.get("thermoait.thermo")
    chains = getattr(thermo, "_WEIGHT_CHAINS", None)
    if not isinstance(chains, dict):
        return 0
    return sum(len(chain) for chain in chains.values())


def clear_weight_chains() -> None:
    thermo = sys.modules.get("thermoait.thermo")
    chains = getattr(thermo, "_WEIGHT_CHAINS", None)
    if isinstance(chains, dict):
        chains.clear()


# ---------------------------------------------------------------------------
# aggregation into per-layer metrics
# ---------------------------------------------------------------------------

COUNT, MS, RATIO = "count", "ms", "ratio"

# per-layer metrics: name -> unit; every traced run reports all of them
LAYER_METRICS = {
    "thermo.moment_sums.self_ms": MS,
    "thermo.moment_sums.calls": COUNT,
    "thermo.moment_sums.terms": COUNT,
    "thermo.terms_per_limit_eval": RATIO,
    "thermo.moment_tail_bound.self_ms": MS,
    "thermo.moment_tail_bound.calls": COUNT,
    "thermo.limit_moments.calls": COUNT,
    "thermo.limit_moments.self_ms": MS,
    "thermo.derive_quantities.self_ms": MS,
    "thermo.eval_limit.calls": COUNT,
    "thermo.cutoff_at_maxlen_frac": RATIO,
    "thermo.weight_chain_entries": COUNT,
    "enclosure.exp2.calls": COUNT,
    "enclosure.exp2.self_ms": MS,
    "enclosure.exp2.bits_max": "bits",
    "enclosure.log2.calls": COUNT,
    "enclosure.log2.self_ms": MS,
    "enclosure.div.calls": COUNT,
    "enclosure.div.self_ms": MS,
    "fixedpoint.limit_evals_per_solve": RATIO,
    "fixedpoint.solve_temperature.self_ms": MS,
    "fixedpoint.certify.calls": COUNT,
    "fixedpoint.certify.self_ms": MS,
    "fixedpoint.handle_g.calls": COUNT,
    "fixedpoint.witness_search.self_ms": MS,
    "fixedpoint.semidecide_above.self_ms": MS,
    "fixedpoint.reconstruct_T.self_ms": MS,
    "fixedpoint.oracle_values_used": COUNT,
    "fixedpoint.known_red_certify_errors": COUNT,
    "relations.check_identities.self_ms": MS,
    "relations.check_positivity.self_ms": MS,
    "relations.check_monotone.self_ms": MS,
    "relations.log2_per_check": RATIO,
    "ensembles.builtin_snapshot.calls": COUNT,
    "ensembles.builtin_snapshot.self_ms": MS,
    "ensembles.sdm4_census_count.calls": COUNT,
    "ensembles.run_sdm4.calls": COUNT,
    "ensembles.load_snapshot.self_ms": MS,
    "complexity.build_table.self_ms": MS,
    "complexity.profile.self_ms": MS,
    "cli.main.self_ms": MS,
    "cli.startup_ms": MS,
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": RATIO,
}


class Aggregate:
    """Per-name call counts and self times, plus the derived counters,
    accumulated over one or more span lists (one per process)."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.terms = 0
        self.terms_in_limit = 0
        self.limit_at_maxlen = 0
        self.exp2_bits_max = 0
        self.limit_in_solve = 0
        self.log2_in_check = 0
        self.oracle_values = 0
        self.absent: set[str] = set()

    def add(self, spans, oracle_values: int = 0, absent=()) -> None:
        self.oracle_values += oracle_values
        self.absent.update(absent)
        child_s = [0.0] * len(spans)
        names = [s[0] for s in spans]
        for _name, start, end, parent, _op, _extra in spans:
            if parent >= 0:
                child_s[parent] += end - start
        tail_seen: set[int] = set()
        for i, (name, start, end, parent, _op, extra) in enumerate(spans):
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = (self.self_s.get(name, 0.0)
                                 + (end - start) - child_s[i])
            parent_name = names[parent] if parent >= 0 else None
            if name == "thermo.moment_sums":
                self.terms += extra
                if parent_name == "thermo.limit_moments":
                    self.terms_in_limit += extra
            elif name == "thermo.moment_tail_bound":
                # the first tail bound of a limit evaluation carries its cutoff
                if parent_name == "thermo.limit_moments" and parent not in tail_seen:
                    tail_seen.add(parent)
                    self.limit_at_maxlen += extra
            elif name == "enclosure.exp2":
                self.exp2_bits_max = max(self.exp2_bits_max, extra)
            elif name == "thermo.limit_moments":
                if _has_ancestor(spans, names, parent,
                                 "fixedpoint.solve_temperature"):
                    self.limit_in_solve += 1
            elif name == "enclosure.log2":
                if _has_ancestor(spans, names, parent,
                                 "relations.check_identities",
                                 "relations.check_positivity"):
                    self.log2_in_check += 1

    def metrics(self, extra: dict) -> dict[str, float]:
        out: dict[str, float] = dict.fromkeys(LAYER_METRICS, 0)
        for name in LAYER_METRICS:
            prefix, _, field = name.rpartition(".")
            if field == "calls":
                out[name] = self.calls.get(prefix, 0)
            elif field == "self_ms":
                out[name] = round(self.self_s.get(prefix, 0.0) * 1e3, 4)
        limits = self.calls.get("thermo.limit_moments", 0)
        solves = self.calls.get("fixedpoint.solve_temperature", 0)
        checks = (self.calls.get("relations.check_identities", 0)
                  + self.calls.get("relations.check_positivity", 0))
        out.update({
            "thermo.moment_sums.terms": self.terms,
            "thermo.terms_per_limit_eval": _ratio(self.terms_in_limit, limits),
            "thermo.cutoff_at_maxlen_frac": _ratio(self.limit_at_maxlen, limits),
            "enclosure.exp2.bits_max": self.exp2_bits_max,
            "fixedpoint.limit_evals_per_solve": _ratio(self.limit_in_solve, solves),
            "fixedpoint.oracle_values_used": self.oracle_values,
            "relations.log2_per_check": _ratio(self.log2_in_check, checks),
        })
        out.update(extra)
        return out


def _has_ancestor(spans, names, index, *wanted) -> bool:
    while index >= 0:
        if names[index] in wanted:
            return True
        index = spans[index][3]
    return False


def _ratio(num, den) -> float:
    return round(num / den, 6) if den else 0.0
