"""The library's records are immutable values: equal when their fields
are, hashable when every field is, closed to assignment, and shown by a
repr that names each field."""

from fractions import Fraction

import pytest

from thermoait.bitstring import BitString
from thermoait.complexity import ComplexityTable, InvarianceGap, ProfileEntry
from thermoait.dyadic import Dyadic
from thermoait.enclosure import Enclosure
from thermoait.ensembles import (
    EnsembleSnapshot, ProgramRecord, SDM4Result, builtin_snapshot,
    get_machine,
)
from thermoait.fixedpoint import (
    QuantityHandle, ReconstructionReport, WitnessReport,
)
from thermoait.relations import CheckResult, RelationReport
from thermoait.thermo import ThermoEvaluation

SNAP = builtin_snapshot("geometric", 4)
HALF, ONE = Fraction(1, 2), Enclosure.point(1)

RECORDS = [
    ProgramRecord(BitString("10"), BitString("10"), 0),
    EnsembleSnapshot("custom", 1, 2, [], {1: 1}),
    SDM4Result("halt", BitString("0"), 2, 4),
    get_machine("geometric"),
    ThermoEvaluation("geometric", HALF, "limit", 64, *[ONE] * 7,
                     {"Z": Dyadic(0)}),
    QuantityHandle(SNAP, "Z", HALF, Fraction(3, 4), 1, 2, 0, 0, 1, 64),
    WitnessReport(HALF, 20, 3, Dyadic(7), BitString(""), 30),
    ReconstructionReport(HALF, 16, Fraction(3, 4), 11, Dyadic(1, -1),
                         Dyadic(1, -10)),
    CheckResult("entropy-gibbs", True, ONE, ONE),
    RelationReport("identities", "geometric", HALF, "limit",
                   [CheckResult("capacity-variance", None)]),
    ComplexityTable(SNAP, {BitString("1"): (2, BitString("10"))}, "exact"),
    ProfileEntry(1, BitString("0"), None, None, "absent"),
    InvarianceGap(2, 1, 2, 5),
]

# records holding a list, a dict or a snapshot: hashing them raises, as it
# did for the dataclasses they replace
UNHASHABLE = {"EnsembleSnapshot", "ThermoEvaluation", "QuantityHandle",
              "RelationReport", "ComplexityTable"}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_values(record):
    kind = type(record)
    copy = kind(*record)
    assert copy == record and copy is not record
    first = kind._fields[0]
    assert record._replace(**{first: object()}) != record
    if kind.__name__ in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(copy) == hash(record)
    for name in (*kind._fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    assert repr(record) == "{}({})".format(kind.__name__, ", ".join(
        f"{name}={getattr(record, name)!r}" for name in kind._fields))


def test_record_reprs_are_pinned():
    assert [repr(r) for r in (RECORDS[0], RECORDS[2], RECORDS[8],
                              RECORDS[11], RECORDS[12])] == [
        "ProgramRecord(program=BitString('10'), output=BitString('10'), "
        "steps=0)",
        "SDM4Result(status='halt', output=BitString('0'), steps=2, "
        "consumed=4)",
        "CheckResult(name='entropy-gibbs', passed=True, "
        "lhs=Enclosure[1*2^0, 1*2^0], rhs=Enclosure[1*2^0, 1*2^0], "
        "note='')",
        "ProfileEntry(n=1, bits=BitString('0'), H=None, ratio=None, "
        "status='absent')",
        "InvarianceGap(max_abs=2, max_a_minus_b=1, max_b_minus_a=2, "
        "shared_outputs=5)",
    ]


def test_records_share_no_mutable_default():
    # the evaluation's tails and the report's checks come from each caller
    a = ThermoEvaluation("x", HALF, 1, 64, *[ONE] * 7, {})
    b = ThermoEvaluation("x", HALF, 1, 64, *[ONE] * 7, {})
    a.tail_bounds["Z"] = Dyadic(1)
    assert b.tail_bounds == {}
    with pytest.raises(TypeError):
        RelationReport("monotone", "x", HALF, "1..2")
