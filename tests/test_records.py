"""The record rule (see flipcert's package docstring): a record is a
NamedTuple, and a dataclass only where a listed reason holds.  Each
converted record keeps the repr and hash its frozen dataclass gave, and
still refuses field assignment."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import flipcert
from flipcert.designs import Design, DesignParams, DesignViolation
from flipcert.obstruction import (
    CertConfig,
    DecodeResult,
    FReport,
    ObstructionCertificate,
    PropertyReport,
    TableRow,
)
from flipcert.oracles import (
    ColCycle,
    ColSwap,
    Diagonal,
    ElementaryAdd,
    PermSwap,
    PosThreeCycle,
    RowCycle,
)
from flipcert.pit import ExplicitClass, HitReport, HittingSet, PitResult
from flipcert.symtests import NullspaceResult, Query

KEPT_DATACLASSES = {
    # built once per enumerated member or node: cheaper construction would
    # speed up the enumeration, and with it F1b
    "flipcert.circuits.Circuit",
    "flipcert.pit._Input",
    "flipcert.pit._Const",
    "flipcert.pit._Add",
    "flipcert.pit._Sub",
    "flipcert.pit._Mul",
    # its constructor validates, in __post_init__
    "flipcert.designs.DesignParams",
    # built through config.declare
    "flipcert.symtests.VerifyConfig",
    "flipcert.obstruction.CertConfig",
    "flipcert.pit.EnumeratedClass",
}

F1B = ("F1b", True, 1.5, "decoded 3/3 members")
TOY_DESIGN = Design(DesignParams(4, 6, 3, 1), (7, 56))
TOY_CONFIG = CertConfig("perm", n=2, truth_table=(0, 1))
# (record kind, every field's value, repr the frozen dataclass gave)
RECORDS = [
    (Design, (DesignParams(4, 6, 3, 1), (7, 56)),
     "Design(params=DesignParams(m_prime=4, l=6, r=3, k_cap=1), rows=(7, 56))"),
    # its frozen dataclass's repr also showed derive_seconds, now gone
    (ObstructionCertificate, (TOY_DESIGN, TOY_CONFIG, (), ((1, 0, 0, 1),)),
     f"ObstructionCertificate(design={TOY_DESIGN!r}, config={TOY_CONFIG!r}, queries=(), "
     "points=((1, 0, 0, 1),))"),
    (DesignViolation, ("universe", None, None, ""),
     "DesignViolation(kind='universe', index=None, pair=None, detail='')"),
    (DecodeResult, (2, Query("swap", (1,), "equal", (), ((1, 2), (2, 1))), (True, False)),
     "DecodeResult(query_index=2, query=Query(kind='swap', params=(1,), relation='equal', "
     "coeffs=(), points=((1, 2), (2, 1))), direct_disagreement=(True, False))"),
    (PropertyReport, F1B,
     "PropertyReport(name='F1b', passed=True, seconds=1.5, detail='decoded 3/3 members')"),
    (FReport, ((PropertyReport(*F1B),), True, "explicit count=0", 0, 2, 0, 48, False),
     "FReport(properties=(PropertyReport(name='F1b', passed=True, seconds=1.5, "
     "detail='decoded 3/3 members'),), all_pass=True, class_label='explicit count=0', "
     "class_size=0, point_count=2, trivial_rows=0, label_bits=48, aborted=False)"),
    (TableRow, (0, (0, 1), 3, 4),
     "TableRow(index=0, point=(0, 1), circuit_value=3, target_value=4)"),
    (ElementaryAdd, (1, 2, 3), "ElementaryAdd(i=1, j=2, y=3)"),
    (Diagonal, ((2, 5),), "Diagonal(entries=(2, 5))"),
    (PermSwap, (1,), "PermSwap(i=1)"),
    (RowCycle, (1, 2, 3), "RowCycle(a=1, b=2, c=3)"),
    (ColSwap, (2,), "ColSwap(i=2)"),
    (ColCycle, (1,), "ColCycle(i=1)"),
    (PosThreeCycle, (1, 2, 3), "PosThreeCycle(a=1, b=2, c=3)"),
    (ExplicitClass, ((),), "ExplicitClass(circuits=())"),
    (PitResult, ("nonzero", (1, 2), 5, 0.0, 1),
     "PitResult(verdict='nonzero', witness_point=(1, 2), witness_value=5, "
     "error_bound=0.0, trials_run=1)"),
    (HittingSet, (((1, 2),), ExplicitClass(())),
     "HittingSet(points=((1, 2),), cls=ExplicitClass(circuits=()))"),
    (HitReport, (True, None, 3, 2, 6),
     "HitReport(valid=True, violator=None, members_checked=3, nonzero_members=2, "
     "evaluations=6)"),
    (NullspaceResult, (1, [(1,)], [{(1,): Fraction(1)}], 0),
     "NullspaceResult(dim=1, monomials=[(1,)], basis=[{(1,): Fraction(1, 1)}], forced_zero=0)"),
]


def test_only_the_listed_dataclasses_remain():
    found = set()
    for info in pkgutil.iter_modules(flipcert.__path__, "flipcert."):
        module = importlib.import_module(info.name)
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if inspect.isclass(obj) and obj.__module__ == info.name
                  and dataclasses.is_dataclass(obj)}
    assert found == KEPT_DATACLASSES


@pytest.mark.parametrize("kind, values, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_converted_record_keeps_repr_hash_and_frozen_fields(kind, values, text):
    record = kind(*values)
    assert repr(record) == text
    if kind is not NullspaceResult:  # its list fields left it unhashable
        assert hash(record) == hash(values)  # a frozen dataclass hashed its field tuple
    with pytest.raises(AttributeError):
        setattr(record, kind._fields[0], values[0])
