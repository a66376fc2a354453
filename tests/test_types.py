"""The package's types: the validated value types (plain classes over
`_fields`) and the records (named tuples)."""

import copy
import pickle
import random

import pytest

from nwe import ConstructionError, DimensionError, InvariantError, StateSet, derive_certificate, gen_equal
from nwe.constructions import GeneralDims, SizeReport, prior_sizes
from nwe.inference import Certificate, PartyConclusion, check_certificate
from nwe.states import LocalVector, PairTable, ProductState, SystemShape
from nwe.verifier import HermitianMatrix, MeasurementConstraintSystem, TrivialityVerdict, assemble, verify_all

from helpers import rotated, without_stopper

SHAPE = SystemShape((2, 2))


def state(*rows, label=None, shape=SHAPE):
    return ProductState(shape, tuple(LocalVector(r) for r in rows), label)


def values():
    """Two equal but distinct instances of each value type."""
    return {
        "SystemShape": (SystemShape((3, 3)), SystemShape([3, 3])),
        "LocalVector": (LocalVector((1, -1, 0)), LocalVector([1, -1, 0])),
        "ProductState": (state((1, 0), (0, 1), label="a"), state([1, 0], [0, 1], label="a")),
        "StateSet": (gen_equal(3, 3), gen_equal(3, 3)),
        "GeneralDims": (GeneralDims((3, 3, 4)), GeneralDims([3, 3, 4])),
    }


@pytest.mark.parametrize("kind", sorted(values()))
def test_value_equality_and_hashing(kind):
    a, b = values()[kind]
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert hash(a) == hash(tuple(getattr(a, name) for name in type(a)._fields))
    assert len({a, b}) == 1
    # equal only to a value of the same class: not to a subclass with the
    # same fields, nor to the tuple of the fields
    sub = copy.copy(a)
    object.__setattr__(sub, "__class__", type("Sub", (type(a),), {"__slots__": ()}))
    assert a != sub and sub != a
    assert a != tuple(getattr(a, name) for name in type(a)._fields)
    assert a != None  # noqa: E711


def test_values_of_different_classes_with_equal_fields_differ():
    assert SystemShape((3, 3, 4)) != GeneralDims((3, 3, 4))
    assert GeneralDims((3, 3, 4)) != SystemShape((3, 3, 4))


def test_unequal_fields():
    assert SystemShape((3, 3)) != SystemShape((3, 4))
    assert LocalVector((1, 0)) != LocalVector((2, 0))
    assert state((1, 0), (0, 1), label="a") != state((1, 0), (0, 1), label="b")
    assert gen_equal(3, 3) != without_stopper(gen_equal(3, 3))
    assert GeneralDims((3, 3, 4)) != GeneralDims((3, 4, 4))


def test_reprs():
    assert repr(SystemShape((3, 3))) == "SystemShape(dims=(3, 3))"
    assert repr(LocalVector((1, -1))) == "LocalVector(coeffs=(1, -1))"
    assert repr(state((1, 0), (0, 1))) == (
        "ProductState(shape=SystemShape(dims=(2, 2)), "
        "locals=(LocalVector(coeffs=(1, 0)), LocalVector(coeffs=(0, 1))), label=None)"
    )
    assert repr(GeneralDims((3, 3, 4))) == "GeneralDims(dims=(3, 3, 4))"
    sset = StateSet(SHAPE, (state((1, 0), (1, 0), label="x"),), provenance="p")
    assert repr(sset) == (
        "StateSet(shape=SystemShape(dims=(2, 2)), vector_index=(PartyVectors(coeffs=((1, 0),), ids=(0,), "
        "supports=(((0, 1),),), kets=(0,)), PartyVectors(coeffs=((1, 0),), ids=(0,), supports=(((0, 1),),), "
        "kets=(0,))), _labels=('x',), provenance='p')"
    )


@pytest.mark.parametrize("kind", sorted(values()))
def test_values_are_immutable(kind):
    value, _ = values()[kind]
    for name in type(value)._fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_state_set_keeps_its_views_in_its_dict():
    sset = gen_equal(3, 3)
    assert sset.pair_table is sset.__dict__["pair_table"]
    assert {name: sset.__dict__[name] for name in StateSet._fields} == {
        name: getattr(sset, name) for name in StateSet._fields
    }


@pytest.mark.parametrize("kind", sorted(values()))
def test_values_pickle_and_copy(kind):
    value, _ = values()[kind]
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(again) is type(value) and again == value
    if kind == "StateSet":
        assert pickle.loads(pickle.dumps(value)).states == value.states


@pytest.mark.parametrize(
    "make, error, message",
    [
        (lambda: SystemShape((3, 2.5)), DimensionError, "dimensions must be integers, got 2.5"),
        (lambda: SystemShape((3,)), DimensionError, "need at least 2 parties, got 1"),
        (lambda: SystemShape((3, 1)), DimensionError, "party 1: dimension must be >= 2, got 1"),
        (lambda: SystemShape((3, 65)), DimensionError, "party 1: dimension 65 exceeds cap 64 (NWE_DIM_CAP)"),
        (lambda: LocalVector((1, "x")), DimensionError, "coefficients must be integers, got 'x'"),
        (lambda: LocalVector(()), DimensionError, "local vector must not be empty"),
        (lambda: LocalVector((0, 0)), DimensionError, "local vector must have at least one nonzero coefficient"),
        (lambda: ProductState(SHAPE, (LocalVector((1, 0)),)), DimensionError, "state has 1 local vectors for 2 parties"),
        (lambda: state((1, 0), (1, 0, 0)), DimensionError, "party 1: local vector length 3 != dimension 2"),
        (
            lambda: StateSet(SHAPE, (state((1, 0), (1, 0)), state((1, 0), (1, 0, 0), shape=SystemShape((2, 3))))),
            DimensionError,
            "state 1 has shape (2, 3), set has (2, 2)",
        ),
        (lambda: GeneralDims((3, 3.5, 4)), DimensionError, "dimensions must be integers, got 3.5"),
        (lambda: GeneralDims((3, 4)), ConstructionError, "general family needs n >= 3 parties, got n=2"),
        (lambda: GeneralDims((4, 3, 5)), ConstructionError, "dims must be nondecreasing: dims[1]=3 < dims[0]=4"),
        (lambda: GeneralDims((2, 3, 3)), ConstructionError, "smallest dimension must be >= 3, got d_1=2"),
    ],
)
def test_validation_messages(make, error, message, monkeypatch):
    monkeypatch.delenv("NWE_DIM_CAP", raising=False)
    with pytest.raises(error) as raised:
        make()
    assert str(raised.value) == message


def records():
    """One instance of each record, with its fields in order."""
    sset = without_stopper(gen_equal(3, 3))
    cert = derive_certificate(sset)
    verdicts = verify_all(sset)
    witness = next(v.witness for v in verdicts if v.witness is not None)
    return {
        PairTable: (sset.pair_table, ("violations", "buckets")),
        SizeReport: (prior_sizes((3, 3, 4)), ("ours", "jiang", "wang", "zhang")),
        PartyConclusion: (cert.conclusions[0], ("party", "trivial", "missing_zeros", "diagonal_classes")),
        Certificate: (cert, ("shape", "labels", "facts", "conclusions")),
        MeasurementConstraintSystem: (assemble(sset, 0), ("party", "dim", "sym", "anti", "zeroed")),
        HermitianMatrix: (witness, ("dim", "den", "sym", "anti")),
        TrivialityVerdict: (verdicts[0], ("party", "status", "nullspace_dim", "witness")),
    }


@pytest.mark.parametrize("kind", list(records()), ids=lambda kind: kind.__name__)
def test_records_are_named_tuples(kind):
    record, fields = records()[kind]
    assert kind._fields == fields
    assert tuple(record) == tuple(getattr(record, name) for name in fields)
    # a record equals the plain tuple of its values
    assert record == tuple(record)
    first = fields[0]
    changed = record._replace(**{first: None})
    assert type(changed) is kind and getattr(changed, first) is None
    assert changed[1:] == record[1:] and record._replace() == record
    assert repr(record).startswith(f"{kind.__name__}({first}=")
    with pytest.raises(AttributeError):
        setattr(record, first, None)


def test_constraint_system_default():
    assert MeasurementConstraintSystem(0, 2, (), ()).zeroed == frozenset()


def test_invariant_error_shows_the_conclusion():
    sset = rotated(gen_equal(3, 4), random.Random(4), [0])
    cert = derive_certificate(sset)
    flipped = (PartyConclusion(0, True, (), ((0, 1, 2, 3),)),) + cert.conclusions[1:]
    with pytest.raises(InvariantError) as raised:
        check_certificate(sset, cert._replace(conclusions=flipped))
    assert str(raised.value) == (
        "party 0: the conclusion PartyConclusion(party=0, trivial=True, missing_zeros=(), "
        "diagonal_classes=((0, 1, 2, 3),)) does not follow from the facts"
    )


def test_a_conclusion_must_be_a_party_conclusion():
    # equal to the replayed conclusion as a tuple, but not one
    sset = gen_equal(3, 3)
    cert = derive_certificate(sset)
    plain = (tuple(cert.conclusions[0]),) + cert.conclusions[1:]
    with pytest.raises(InvariantError, match=r"party 0: the conclusion \(0, True, .* does not follow"):
        check_certificate(sset, cert._replace(conclusions=plain))
