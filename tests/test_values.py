"""The contract every value class keeps: construction by position or
keyword with defaults, checks in __post_init__, immutability, equality and
hashing by type and fields, the dataclass repr, copies, and the report
serializers' output."""

import copy
import hashlib
import pickle
from fractions import Fraction as Q

import pytest

from gsp4hodge._value import Value
from gsp4hodge.errors import ConstraintViolated, InvalidData
from gsp4hodge.extledger import (
    AddChar,
    Constituent,
    LedgerCheck,
    LedgerEntry,
    LedgerReport,
    SocleDiagram,
    check_ledger,
)
from gsp4hodge.hecke import ClassicalityReport, FrobeniusData, HeckeData, classicality_classify
from gsp4hodge.kernel import EigenlineGrid, LInvariantPlane
from gsp4hodge.phimodule import CheckResult, HodgeFlag, PhiModuleData, ValidityReport, complete_flag, validate
from gsp4hodge.symplectic import Flag, Subspace
from gsp4hodge.weyl import CocharTuple, Weight, WeylElem

PI = Constituent(index_set=None, reflection=None)
FLAG = complete_flag(Q(2), Q(3))

#: For each value class: the fields of one instance, in declaration order,
#: and the fields of another instance that differs from it.
SAMPLES = {
    AddChar: (
        {"shape": "T_to_E", "val": (1, 0, 0), "log": (0, 0, 1)},
        {"shape": "T_to_E", "val": (0, 1, 0), "log": (0, 0, 0)},
    ),
    Constituent: ({"index_set": frozenset({1}), "reflection": 1}, {"index_set": None, "reflection": None}),
    SocleDiagram: ({"kind": "pi1", "layers": ((PI,),)}, {"kind": "pimin", "layers": ((PI,),)}),
    LedgerEntry: (
        {"name": "deformations", "dim": 12, "source": "stated"},
        {"name": "deformations", "dim": 13, "source": "stated"},
    ),
    LedgerCheck: (
        {"name": "additivity", "passed": True, "detail": "12 = 8 + 4"},
        {"name": "additivity", "passed": False, "detail": "12 = 8 + 4"},
    ),
    LedgerReport: ({"entries": (LedgerEntry("e", 1, "stated"),), "checks": ()}, {"entries": (), "checks": ()}),
    LInvariantPlane: (
        {"basis_fg": ((Q(1), Q(0)),), "a": Q(2), "b": Q(3), "kernel_dim": 17, "glue_dim": 15},
        {"basis_fg": ((Q(1), Q(0)),), "a": Q(5), "b": Q(3), "kernel_dim": 17, "glue_dim": 15},
    ),
    WeylElem: ({"perm": (2, 1, 4, 3)}, {"perm": (1, 2, 3, 4)}),
    Weight: ({"n1": 1, "n2": -1, "n3": 0}, {"n1": 0, "n2": 2, "n3": -1}),
    CocharTuple: ({"m": (1, -1, 1, -1)}, {"m": (0, 1, -1, 0)}),
    PhiModuleData: (
        {"p": 3, "alphas": (1, 9, 81, 729), "weights": (0, -2, -4, -6), "a": Q(2), "b": Q(3)},
        {"p": 3, "alphas": (1, 9, 81, 729), "weights": (0, -2, -4, -6), "a": Q(5), "b": Q(3)},
    ),
    CheckResult: (
        {"name": "p-prime", "passed": True, "witness": "p=3"},
        {"name": "p-prime", "passed": False, "witness": "p=3"},
    ),
    ValidityReport: ({"checks": (CheckResult("p-prime", True),)}, {"checks": ()}),
    HodgeFlag: ({"flag": FLAG, "jumps": (0, 2, 4, 6)}, {"flag": FLAG, "jumps": (0, 1, 2, 3)}),
    HeckeData: ({"l": 3, "c0": Q(2), "c1": Q(-1), "c2": Q(5)}, {"l": 5, "c0": Q(2), "c1": Q(-1), "c2": Q(5)}),
    FrobeniusData: ({"coeffs": (1, 2, 3, 4), "sim": Q(2)}, {"coeffs": (1, 2, 3, 4), "sim": Q(3)}),
    ClassicalityReport: tuple(
        {"bound_ok": True, "bound_witness": "", "alternate_reading_differs": False, "gap_ok": False,
         "gap_witness": "w", "admissible": ("e",), "very_classical": very}
        for very in (False, True)
    ),
    Subspace: tuple({"rows": ((Q(1), Q(0), Q(0), Q(0)),), "ambient": n} for n in (4, 24)),
    Flag: tuple({"members": complete_flag(Q(a), Q(3)).members, "kind": "complete"} for a in (2, 5)),
    EigenlineGrid: ({"lines": {(1, 2, 3, 4): ()}}, {"lines": {}}),
}
CLASSES = list(SAMPLES)
#: Classes with a field whose values cannot be hashed, as a frozen dataclass's could not.
UNHASHABLE = {EigenlineGrid}


def test_every_value_class_is_sampled():
    assert len(CLASSES) == 20
    assert all(issubclass(cls, Value) for cls in CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueClass:
    def test_positional_and_keyword_agree(self, cls):
        fields, other = SAMPLES[cls]
        by_keyword, by_position = cls(**fields), cls(*fields.values())
        assert by_keyword == by_position and not by_keyword != by_position
        assert by_keyword != cls(**other)
        assert by_keyword != object() and by_keyword != tuple(fields.values())
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(by_keyword)
        else:
            assert hash(by_keyword) == hash(by_position)
            assert len({by_keyword, by_position, cls(**other)}) == 2

    def test_other_class_with_equal_fields_is_unequal(self, cls):
        fields, _ = SAMPLES[cls]
        twin = type(cls.__name__, (Value,), {"__annotations__": dict.fromkeys(fields, "object")})
        assert cls(**fields) != twin(**fields) and twin(**fields) != cls(**fields)

    def test_fields_cannot_be_assigned(self, cls):
        fields, other = SAMPLES[cls]
        value = cls(**fields)
        name = next(iter(fields))
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(cls(**other), name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, name) is before

    def test_bad_arguments_raise_type_error(self, cls):
        fields, _ = SAMPLES[cls]
        values = list(fields.values())
        name = next(iter(fields))
        for args, kwargs in (
            (values + [None], {}),
            (values[:1], {name: values[0]}),
            ([], {**fields, "not_a_field": 1}),
            ([], {k: v for k, v in fields.items() if k != name}),
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_copies_are_equal(self, cls):
        value = cls(**SAMPLES[cls][0])
        for made in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(made) is cls and made == value


def test_defaults():
    rows = ((Q(1), Q(0), Q(0), Q(0)),)
    assert Subspace(rows) == Subspace(rows, 4) == Subspace(rows=rows, ambient=4)
    assert CheckResult("genericity", True) == CheckResult("genericity", True, "")


def test_post_init_checks_and_normalizes():
    with pytest.raises(InvalidData, match="not a permutation"):
        WeylElem((1, 1, 3, 4))
    with pytest.raises(InvalidData, match="not in the Weyl group"):
        WeylElem((2, 1, 3, 4))
    with pytest.raises(ConstraintViolated, match="m1\\+m4 != m2\\+m3"):
        CocharTuple((1, 0, 0, 0))
    with pytest.raises(ConstraintViolated):
        CocharTuple(m=(0, 0, 0, 1))
    with pytest.raises(InvalidData, match="unknown flag kind"):
        Flag(FLAG.members, "parabolic")
    with pytest.raises(InvalidData, match="not prime"):
        HeckeData(4, 1, 0, 0)
    with pytest.raises(InvalidData, match="torus constraint"):
        AddChar("qp_to_t", (1, 0, 0, 0), (0, 0, 0, 0))
    assert Weight(1, 2, 3).n1 == Q(1) and type(Weight(1, 2, 3).n1) is Q


def test_repr_is_the_dataclass_format():
    assert repr(WeylElem((2, 1, 4, 3))) == "WeylElem(perm=(2, 1, 4, 3))"
    assert repr(Subspace.span([(1, 2, 3, 4)])) == (
        "Subspace(rows=((Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(4, 1)),), ambient=4)"
    )


def test_validity_report_as_dict():
    report = validate(PhiModuleData(3, (1, 3, 9, 27), (0, -2, -4, -6), Q(2), Q(-1)))
    assert report.as_dict() == {
        "ok": False,
        "checks": (
            {"name": "p-prime", "passed": True, "witness": "p=3"},
            {"name": "alphas-nonzero", "passed": True, "witness": ""},
            {"name": "similitude-relation", "passed": True, "witness": ""},
            {"name": "genericity", "passed": False, "witness": "alpha1/alpha2 = 1/3"},
            {"name": "weights-strictly-decreasing", "passed": True, "witness": "h=(0, -2, -4, -6)"},
            {"name": "weight-sum", "passed": True, "witness": ""},
            {"name": "nondegeneracy-polynomial", "passed": False, "witness": "factor b+1 vanishes"},
        ),
    }


def test_ledger_report_as_dict():
    report = check_ledger().as_dict()
    assert report["ok"] is True and report["entries"][0] == {"name": "deformations", "dim": 12, "source": "stated"}
    # the repr pins every entry and check, and that both lists are tuples
    assert hashlib.sha256(repr(report).encode()).hexdigest() == (
        "b40ce6c4562fe6b8f1e8371891a29365ba64e79d87ecfb5eb007de5d4ef9df25"
    )


def test_classicality_report_as_dict():
    report = classicality_classify([1, 9, 81, 729], [0, -2, -4, -6], 3, 10)
    assert report.as_dict() == {
        "bound_ok": True,
        "bound_witness": "",
        "alternate_reading_differs": False,
        "gap_ok": False,
        "gap_witness": "h_1 - h_2 = 2 <= 221969640",
        "admissible": ["e"],
        "very_classical": False,
    }
