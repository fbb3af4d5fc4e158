"""The record contract, checked on every record class of the package:
equality by exact class and fields with a matching hash, immutability, the
dataclass-style repr, and ``replace`` that validates like a constructor."""

import numpy as np
import pytest

from cuntz import algebra, catalog, multiplicity, orderzero, supernatural
from cuntz.algebra import (
    COMPLEX,
    CX,
    Compacts,
    DirectSum,
    FinDim,
    JiangSu,
    KirchbergSimple,
    Mat,
    MatAmp,
    MatInf,
    Stabilize,
    Tensor,
    UHF,
    _Chain,
)
from cuntz.catalog import (
    RULES,
    CarSG,
    ClassificationVerdict,
    CuOfSG,
    DirectSumSG,
    ExtNatSG,
    IdealLatticeSG,
    MfSG,
    MfiSG,
    NatSG,
    Query,
    TraceStep,
    TwoPointSG,
    UnknownSG,
    WOfSG,
    ZeroSG,
    scale_membership_note,
)
from cuntz.extnat import ExtNat
from cuntz.multiplicity import ClosedSet, Space, mf
from cuntz.orderzero import (
    EpsRankReport,
    HandelmanReport,
    OrderZeroMap,
    OrthogonalityReport,
    WitnessReport,
    findim,
    oz_new,
)
from cuntz.record import Record
from cuntz.supernatural import sn_parse

Z = JiangSu()
PQ = Space.discrete(("p", "q"))

EXAMPLES = [
    COMPLEX,
    Mat(2),
    FinDim((2, 3)),
    CX(("p", "q")),
    UHF(sn_parse("2:inf,3:2")),
    Z,
    KirchbergSimple("O2"),
    Compacts(),
    Tensor(Z, Mat(2)),
    DirectSum(COMPLEX, Z),
    Stabilize(Z),
    MatAmp(2, Z),
    MatInf(Z),
    sn_parse("2:inf,3:2"),
    NatSG(),
    ExtNatSG(),
    ZeroSG(),
    TwoPointSG(),
    CarSG(),
    MfSG(PQ.points),
    MfiSG(PQ.points),
    IdealLatticeSG(3),
    DirectSumSG((NatSG(), ZeroSG())),
    WOfSG(Z),
    CuOfSG(Z),
    UnknownSG("W(Z, O2)"),
    Query("W", Mat(2), Z),
    TraceStep("R1", "recovery", "W(C, Z)", "W(Z)"),
    RULES[0],
    ClassificationVerdict("Isomorphic", "matrix dimensions agree: 2 = 2"),
    scale_membership_note(Mat(2), Mat(4)),
    PQ,
    ClosedSet.discrete(PQ, ["p"]),
    mf(PQ, {"p": ExtNat(2)}),
    findim(1, 2),
    oz_new(findim(1, 1), 3, [1, 1], [["1/2"], ["1"]]),
    OrthogonalityReport(True, 0.0, 5, 1e-9),
    WitnessReport(np.zeros((2, 2)), (3, 2), 0.0, 1e-6),
    EpsRankReport(1, 2),
    HandelmanReport(np.eye(2), 1.0, 0.0),
]


def _package_subclasses(cls):
    return [sub for sub in cls.__subclasses__() if sub.__module__.startswith("cuntz.")]


def test_every_record_class_has_an_example():
    leaves, todo = set(), [Record]
    while todo:
        subs = _package_subclasses(todo.pop())
        todo += subs
        leaves |= {sub for sub in subs if not _package_subclasses(sub)}
    modules = (algebra, catalog, multiplicity, orderzero, supernatural)
    assert {c.__module__ for c in leaves} == {m.__name__ for m in modules}
    assert {type(r) for r in EXAMPLES} == leaves


def _rebuild(record, cls=None):
    cls = cls or type(record)
    if isinstance(record, _Chain):
        return cls(*record.items)
    return cls(**{name: getattr(record, name) for name in record._fields})


def _values(record):
    return tuple(getattr(record, name) for name in record._fields)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a field holds a numpy array
        return type(exc)


@pytest.mark.parametrize("record", EXAMPLES, ids=lambda r: type(r).__name__)
def test_record_contract(record):
    again = _rebuild(record)
    if isinstance(record, OrderZeroMap):  # equal only to itself
        assert record == record and again != record
    else:
        assert again == record and not again != record
        assert _hash_or_error(again) == _hash_or_error(record)
        assert _hash_or_error(record) == _hash_or_error(_values(record))
        if not isinstance(record, _Chain):  # a chain is built from operands
            assert record.replace() == record

    # An instance of another class with equal fields is unequal.
    twin = _rebuild(record, type("Twin", (type(record),), {}))
    assert _values(twin) == _values(record)
    assert twin != record and record != twin

    before = _values(record)
    for name in record._fields or ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert _values(record) == before
    assert repr(record).startswith(f"{type(record).__qualname__}(")


@pytest.mark.parametrize(
    "a,b",
    [
        (Tensor(Z, Mat(2)), DirectSum(Z, Mat(2))),
        (MfSG(PQ.points), MfiSG(PQ.points)),
        (WOfSG(Z), CuOfSG(Z)),
        (NatSG(), ZeroSG()),
    ],
    ids=lambda r: type(r).__name__,
)
def test_classes_with_equal_fields_are_unequal(a, b):
    assert _values(a) == _values(b)
    assert a != b and b != a


def test_replace_validates_and_repr_names_every_field():
    with pytest.raises(ValueError):
        Mat(2).replace(n=0)
    with pytest.raises(ValueError):
        CX(("p",)).replace(points=("p", "p"))
    assert Mat(2).replace(n=3) == Mat(3)
    assert Stabilize(Z).replace(inner=Mat(2)) == Stabilize(Mat(2))
    assert repr(Query("W", Mat(2), Z)) == "Query(variant='W', a=Mat(n=2), b=JiangSu())"
    assert repr(Query("Wof", Z)) == "Query(variant='Wof', a=JiangSu(), b=None)"


def test_a_field_without_a_default_may_not_follow_one():
    class Bad(Record):
        a: int = 1
        b: int

    with pytest.raises(TypeError):
        Bad(1, 2)
