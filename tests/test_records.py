"""The record contract of every public immutable type.

Each public record is built from one sample of its fields, positionally and
by keyword, and must then behave as an immutable value: its fields read
back, setting or deleting an attribute is an AttributeError, equal fields
give equal records with equal hashes, the repr is `Name(field=value, ...)`
(refusal messages print field reprs such as `PrimeField(p=3)`), and pickle
and copy give back an equal record.  A wrong argument list is a TypeError,
and each constructor's own refusals still run.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from antiprelie.algebra import AntiPreLieAlgebra, LieTable, MultTable, Report, Violation
from antiprelie.cohomology import Cochain2, CohomologySpaces
from antiprelie.deformation import RigidityCertificate, TruncatedDeformation, TruncatedIsomorphism
from antiprelie.dendriform import AntiLDendriform
from antiprelie.extension import AbelianExtension
from antiprelie.fields import QQ, PrimeField, Rationals
from antiprelie.linalg import Matrix, Tensor3
from antiprelie.representation import LieRepresentation, Representation
from antiprelie.search import SearchSpec

from test_api import RECORD_FIELDS

ONE = Fraction(1)
A2 = MultTable.from_dict(QQ, 2, {(0, 1, 1): 1})
E11 = Matrix(QQ, 2, 2, [{}, {1: ONE}])


def _samples() -> dict:
    """{class: {field: value}} with the fields in declaration order."""
    alg = AntiPreLieAlgebra(A2)
    cochain = Cochain2(Tensor3(QQ, (2, 2, 1), [[{}, {0: ONE}], [{}, {}]]))
    zero2 = Matrix.zero(QQ, 2, 2)
    return {
        AbelianExtension: {"total": alg, "dim_a": 1, "dim_v": 1},
        AntiLDendriform: {"right": A2, "left": MultTable.zero(QQ, 2)},
        AntiPreLieAlgebra: {"table": A2},
        Cochain2: {"tensor": cochain.tensor},
        CohomologySpaces: {"z2_basis": (cochain,), "b2_basis": (), "h2_dim": 1,
                           "h2_representatives": (cochain,)},
        LieRepresentation: {"dim_v": 2, "action": (E11, zero2)},
        LieTable: {"tensor": A2.tensor},
        Matrix: {"field": QQ, "rows": 2, "cols": 2, "nonzero": ({}, {1: ONE})},
        MultTable: {"tensor": A2.tensor},
        PrimeField: {"p": 3},
        Rationals: {},
        Report: {"subject": "anti-pre-lie", "violations": (Violation("left", (0, 1, 1), ("1",)),)},
        Representation: {"dim_a": 2, "dim_v": 2, "rho": (zero2, E11), "mu": (E11, zero2),
                         "scalars": QQ},
        RigidityCertificate: {"h2_dim": 0, "order": 2, "eliminations": ((E11,),)},
        SearchSpec: {"kind": "algebra", "dim": 2, "p": 3, "dim_v": 1, "exhaustive": False,
                     "samples": 5, "max_results": 4, "seed": 7},
        Tensor3: {"field": QQ, "dims": (2, 2, 2), "fibers": A2.tensor.fibers},
        TruncatedDeformation: {"base": alg, "terms": (A2,)},
        TruncatedIsomorphism: {"phis": (E11, zero2)},
        Violation: {"law": "left", "at": (0, 1, 1), "residual": ("1", "-1/2")},
    }


SAMPLES = _samples()
RECORDS = sorted(SAMPLES, key=lambda cls: cls.__name__)
# Fields that ==, hash and repr leave out.
HIDDEN = {Representation: {"scalars"}}
# The fields each record may leave out of its constructor call, with their defaults.
DEFAULTS = {
    Representation: {"scalars": None},
    SearchSpec: {"dim_v": 0, "exhaustive": True, "samples": 0, "max_results": None, "seed": 0},
}


def _shown(cls) -> list:
    return [name for name in SAMPLES[cls] if name not in HIDDEN.get(cls, ())]


def test_samples_cover_every_public_record():
    assert {cls.__name__: tuple(SAMPLES[cls]) for cls in RECORDS} == RECORD_FIELDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_positional_and_keyword_construction_agree(cls):
    fields = SAMPLES[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    assert by_position == by_keyword


@pytest.mark.parametrize("cls", sorted(DEFAULTS, key=lambda cls: cls.__name__),
                         ids=lambda cls: cls.__name__)
def test_defaults_fill_the_fields_left_out(cls):
    defaults = DEFAULTS[cls]
    given = {name: value for name, value in SAMPLES[cls].items() if name not in defaults}
    for record in (cls(**given), cls(*given.values())):
        for name, value in {**given, **defaults}.items():
            assert getattr(record, name) == value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_wrong_argument_list_is_a_type_error(cls):
    fields = SAMPLES[cls]
    args = list(fields.values())
    with pytest.raises(TypeError):
        cls(*args, "one too many")
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    if fields:
        first = next(iter(fields))
        with pytest.raises(TypeError):
            cls(*args, **{first: fields[first]})
    required = [name for name in fields if name not in DEFAULTS.get(cls, ())]
    if required:
        with pytest.raises(TypeError):
            cls(**{name: value for name, value in fields.items() if name != required[-1]})


def test_constructors_still_refuse_bad_fields():
    with pytest.raises(ValueError, match="not a prime: 4"):
        PrimeField(4)
    with pytest.raises(ValueError, match="cubic"):
        MultTable(Tensor3.zero(QQ, 2, 2, 1))
    with pytest.raises(ValueError, match="declared dims"):
        Tensor3(QQ, (2, 2, 2), [[{}, {}], [{}]])
    with pytest.raises(ValueError, match="declared dims"):
        Tensor3(field=QQ, dims=(2, 2, 2), fibers=[[{}, {}]])
    with pytest.raises(ValueError, match="must not be negative"):
        SearchSpec("algebra", -1, 3)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_set_or_deleted(cls):
    record = cls(**SAMPLES[cls])
    for name, value in {**SAMPLES[cls], "not_a_field": 0}.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    for name, value in SAMPLES[cls].items():
        assert getattr(record, name) == value


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_equal_fields_make_equal_records(cls):
    first, second = cls(**SAMPLES[cls]), cls(**copy.deepcopy(SAMPLES[cls]))
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert first != object() and first != tuple(SAMPLES[cls].values())


def test_records_of_another_class_or_other_fields_differ():
    assert PrimeField(3) != PrimeField(5)
    assert Rationals() == QQ and Rationals() != PrimeField(3)
    assert Cochain2(A2.tensor) != MultTable(A2.tensor)
    assert Violation("left", (0,), ()) != Violation("right", (0,), ())


def test_representation_scalars_take_no_part_in_equality():
    fields = {**SAMPLES[Representation]}
    with_scalars, without = Representation(**fields), Representation(**{**fields, "scalars": None})
    assert with_scalars.scalars is QQ and without.scalars is None
    assert with_scalars == without and hash(with_scalars) == hash(without)
    assert "scalars" not in repr(with_scalars)


def test_hash_reads_the_shown_fields_as_a_tuple():
    assert hash(PrimeField(3)) == hash((3,))
    assert hash(QQ) == hash(())
    assert hash(SearchSpec("algebra", 2, 3)) == hash(("algebra", 2, 3, 0, True, 0, None, 0))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_repr_names_the_shown_fields_in_order(cls):
    record = cls(**SAMPLES[cls])
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in _shown(cls))
    assert repr(record) == f"{cls.__name__}({shown})"


def test_exact_repr_strings():
    assert repr(PrimeField(3)) == str(PrimeField(3)) == "PrimeField(p=3)"
    assert repr(QQ) == str(QQ) == "Rationals()"
    assert repr(E11) == "Matrix(field=Rationals(), rows=2, cols=2, nonzero=({}, {1: Fraction(1, 1)}))"
    assert repr(Violation("left", (0, 1, 1), ("1",))) == (
        "Violation(law='left', at=(0, 1, 1), residual=('1',))")
    assert repr(Report("x", ())) == "Report(subject='x', violations=())"
    assert repr(SearchSpec("algebra", 2, 3)) == (
        "SearchSpec(kind='algebra', dim=2, p=3, dim_v=0, exhaustive=True, samples=0,"
        " max_results=None, seed=0)")
    assert repr(Representation(1, 1, (Matrix.zero(QQ, 1, 1),), (Matrix.zero(QQ, 1, 1),), QQ)) == (
        "Representation(dim_a=1, dim_v=1, rho=(Matrix(field=Rationals(), rows=1, cols=1,"
        " nonzero=({},)),), mu=(Matrix(field=Rationals(), rows=1, cols=1, nonzero=({},)),))")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trip(cls):
    record = cls(**SAMPLES[cls])
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls
        assert twin == record and hash(twin) == hash(record)
        for name in SAMPLES[cls]:
            assert getattr(twin, name) == getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(twin, next(iter(SAMPLES[cls]), "not_a_field"), None)
