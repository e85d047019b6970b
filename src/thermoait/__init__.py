"""Certified thermodynamics of prefix-free program ensembles.

Partition sums, free energy, energy, entropy, and heat capacity of
concrete prefix-free machines, computed as directed-rounded enclosures
with certified limit tails, plus effective procedures (temperature
inversion, witness search, reconstruction) built on certified monotone
handles, and machine-relative program-size complexity tables.
"""

import importlib

from .bitstring import BitString, LAMBDA, successor
from .dyadic import Dyadic
from .enclosure import (
    DEFAULT_PRECISION, Enclosure, bits_prefix, certified_gt, certified_lt,
    certified_positive, div, exp2_enclosure, ln2_enclosure, log2_enclosure,
    parse_temperature_text, prefix_value,
)
from .ensembles import (
    MACHINES, EnsembleSnapshot, Machine, ProgramRecord, builtin_snapshot,
    gamma_literal_length, load_snapshot, replay_check, run_sdm4,
    save_snapshot,
)
from .errors import (
    CertificationError, InvariantViolation, OracleExhausted, PrecisionError,
    RangeError, SnapshotError, SpecError, ThermoAITError,
)
from .thermo import (
    QUANTITIES, ThermoEvaluation, divergence_probe, eval_limit, eval_partial,
    evaluate, power_sum,
)

# name -> module of the modules only some commands call, imported on first use
_LAZY = {name: module for module, names in {
    "complexity": "ComplexityTable InvarianceGap ProfileEntry build_table "
                  "invariance_gap profile",
    "fixedpoint": "QuantityHandle ReconstructionReport WitnessReport "
                  "approach_oracle ascending_lower_oracle certify "
                  "descending_upper_oracle file_oracle grid_oracle "
                  "reconstruct_T semidecide_above solve_temperature "
                  "witness_search",
    "relations": "CheckResult RelationReport check_derivative "
                 "check_identities check_monotone check_positivity "
                 "third_derivative_bound",
}.items() for name in names.split()}

# every public name: those imported above and the lazy ones
__all__ = [name for name, value in globals().items()
           if name[0] != "_" and type(value) is not type(importlib)] + [*_LAZY]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
