"""The immutable value types: equality, hash, repr, keyword construction and
refusal of assignment, as `@dataclass(frozen=True)` defined them."""

import copy
import pickle
from fractions import Fraction

import pytest

from zetaforge import oracle
from zetaforge.dirichlet import LocalFactor, ShapeAbscissa
from zetaforge.families import Family
from zetaforge.laurent import InputError, TruncatedSeries
from zetaforge.numberfield import NumberField
from zetaforge.oracle import LieLattice
from zetaforge.signed_perms import BStats
from zetaforge.symmetry import SymmetryFactor

# (class, field values, repr) with the reprs the dataclasses printed
RECORDS = [
    (TruncatedSeries, ((1, Fraction(1, 2)),),
     "TruncatedSeries(coefficients=(1, Fraction(1, 2)))"),
    (Family, ("heisenberg", (2,)), "Family(kind='heisenberg', params=(2,))"),
    (BStats, (1, 1, 2, 2, 1, 0, 10),
     "BStats(inv=1, npr=1, length=2, des_mask=2, des=1, eps1=0, sigma_c=10)"),
    (SymmetryFactor, (-1, 3, 4), "SymmetryFactor(sign=-1, a=3, b=4)"),
    (NumberField, ((1, 0, 1),), "NumberField(minpoly=(1, 0, 1))"),
    (LocalFactor, (5, ((0, 1),), ((1, 1), (5, 2))),
     "LocalFactor(p=5, numerator=((0, 1),), denominator=((1, 1), (5, 2)))"),
    (ShapeAbscissa, (Fraction(3, 2), True),
     "ShapeAbscissa(value=Fraction(3, 2), shape_verified=True)"),
    (LieLattice, (3, ((0, 1, ((2, 1),)),)),
     "LieLattice(rank=3, brackets=((0, 1, ((2, 1),)),))"),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(cls, values, text):
    first, second = cls(*values), cls(*values)
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second) == hash(values)
    assert len({first, second}) == 1
    assert first != values


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_keyword_construction(cls, values, text):
    record = cls(**dict(zip(cls._fields, values)))
    assert record == cls(*values)
    assert tuple(getattr(record, name) for name in cls._fields) == values


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_fields_refuse_assignment_and_deletion(cls, values, text):
    record = cls(*values)
    for name in (*cls._fields, "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    assert record == cls(*values)


@pytest.mark.parametrize("cls, values, text", RECORDS, ids=IDS)
def test_copies_and_pickles_are_equal(cls, values, text):
    record = cls(*values)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and twin == record


def test_classes_with_equal_values_are_not_equal():
    assert TruncatedSeries((1, 0, 1)) != NumberField((1, 0, 1))
    assert LocalFactor(1, 2, 3) != SymmetryFactor(1, 2, 3)
    assert Family("x", (1,)) != ShapeAbscissa("x", (1,))
    assert SymmetryFactor(1, 2, 3) != (1, 2, 3)


def test_family_params_default_to_empty():
    assert Family("abelian") == Family(kind="abelian", params=())
    assert repr(Family("abelian")) == "Family(kind='abelian', params=())"


def test_lattice_properties_are_computed_once(monkeypatch):
    calls = []
    for name in ("_pairs", "_kind", "t"):
        prop = vars(LieLattice)[name]
        monkeypatch.setattr(prop, "func", lambda self, f=prop.func, n=name: calls.append(n) or f(self))
    lattice = oracle.heisenberg_lattice(2)
    for _ in range(3):
        assert (lattice._pairs, lattice._kind, lattice.t) == (
            lattice._pairs, "heisenberg-type", 4)
    assert sorted(calls) == ["_kind", "_pairs", "t"]
    assert lattice == oracle.heisenberg_lattice(2)


def test_number_field_takes_a_generator():
    assert NumberField(c for c in (1, 0, 1)) == NumberField((1, 0, 1))
    with pytest.raises(InputError, match="must be integers, got 1.0"):
        NumberField(c for c in (1.0, 0, 1))


def test_family_params_are_stored_as_a_tuple():
    family = Family("heisenberg", [2])
    assert family.params == (2,) and family == Family("heisenberg", (2,))
    assert hash(family) == hash(Family("heisenberg", (2,)))
    with pytest.raises(InputError, match="must be integers"):
        Family("heisenberg", ["2"])
