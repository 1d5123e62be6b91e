"""Behaviour of the package's immutable data records: the input checks of
each constructor, immutability, equality and hashing, defaults, and the
length and iteration of the sequence-like records."""

import inspect
from fractions import Fraction

import pytest

from dimgroup.ecrs import EcrsProblem, PolyNat
from dimgroup.ecs import BParams, ExtensionData, Stage
from dimgroup.errors import DimensionMismatch, SchemaError
from dimgroup.ers import ErsStageData, ErsVerifyReport, WSequence
from dimgroup.exact import Matrix, UnimodularTransform
from dimgroup.perron import EqualSumsReport, PerronData, UniqueTraceReport
from dimgroup.realization import RealizationSeq
from dimgroup.supernatural import (EcrsDecision, FactorSequence,
                                   SupernaturalNumber)
from dimgroup.traces import NearlySplitReport, TraceReport
from dimgroup.verify import VerificationResult

I1 = Matrix.identity(1)
I2 = Matrix.identity(2)
SINGULAR = Matrix.from_rows([[1, 2], [2, 4]])
WIDE = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])     # 2 x 3
TALL = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])   # 3 x 2


# (number, record, args, error type, exact message); where two checks
# fail, the message is the one today's check order raises first.  A row's
# id is its record and its own number, so deleting a row renames no other
# case; a new row takes a number no row has had.
BAD_INPUTS = [
    (0, Stage, (1, (0,), I1), SchemaError,
     "stage factor must exceed 1, got 1"),
    (1, Stage, (1, (0, 0), SINGULAR), SchemaError,
     "stage factor must exceed 1, got 1"),
    (2, Stage, (3, (0, 0), I1), DimensionMismatch,
     "stage B must be k x k, k the length of the stage vector"),
    (3, Stage, (3, (0, 0), WIDE), DimensionMismatch,
     "stage B must be k x k, k the length of the stage vector"),
    (4, Stage, (3, (0, 0), SINGULAR), SchemaError,
     "stage B must have nonzero determinant"),
    (5, ExtensionData, (0, ()), SchemaError, "k must be >= 1"),
    (6, ExtensionData, (1, ()), SchemaError, "need at least one stage"),
    (7, ExtensionData, (2, (Stage(3, (0,), I1),)), DimensionMismatch,
     "stage vector length != k"),
    (8, EcrsProblem, (1, 1, (1,), FactorSequence((3,)), None, WIDE),
     DimensionMismatch, "seed must be square"),
    (9, EcrsProblem, (1, 1, (1,), FactorSequence((3,)), None, TALL),
     DimensionMismatch, "seed must be square"),
    (10, Stage, (0, (0,), I1), SchemaError,
     "stage factor must exceed 1, got 0"),
    (11, Stage, (3, (0,), I2), DimensionMismatch,
     "stage B must be k x k, k the length of the stage vector"),
    (12, Stage, (3, (0,), Matrix.from_rows([[0]])), SchemaError,
     "stage B must have nonzero determinant"),
    (13, ErsStageData, (0, (), ()), SchemaError, "k must be >= 1"),
    (14, ErsStageData, (1, (), (1,)), SchemaError, "need at least one stage"),
    (15, ErsStageData, (2, (Stage(3, (0,), I1),), (1, 1)), DimensionMismatch,
     "stage vector length != k"),
    (16, ErsStageData, (1, (Stage(3, (0,), I1),), (1, 2)), DimensionMismatch,
     "trace row length != k"),
    (17, EcrsProblem, (0, 0, (), FactorSequence(())), SchemaError,
     "k must be >= 1"),
    (18, EcrsProblem, (1, 0, (1,), FactorSequence((3,))), SchemaError,
     "lambda must be >= 1"),
    (19, EcrsProblem, (2, 3, (1,), FactorSequence((4,))), DimensionMismatch,
     "rho must have length k"),
    (20, EcrsProblem, (1, 3, (1,), FactorSequence(())), SchemaError,
     "need at least one factor"),
    (21, PolyNat, ((1, 0, -1),), SchemaError,
     "coefficients must be nonnegative"),
    (22, SupernaturalNumber, ({2: 1}, [2, 1]), SchemaError,
     "primes [2] both finite and infinite"),
    (23, SupernaturalNumber, ({1: 1, 4: 1},), SchemaError,
     "primes must be at least 2, got [1]"),
    (24, SupernaturalNumber, ({9: 1}, [4]), SchemaError,
     "keys must be prime, got [4, 9]"),
    (25, SupernaturalNumber, ({2: 1, 3: 0},), SchemaError,
     "multiplicity of 3 must be positive, got 0"),
    (26, FactorSequence, ([3, 2.5, "7"],), SchemaError,
     "every factor must be an integer, got 2.5"),
    (27, FactorSequence, ([3, True],), SchemaError,
     "every factor must be an integer, got True"),
    (28, FactorSequence, ([3, 1],), SchemaError, "every factor must exceed 1"),
    (29, RealizationSeq, ((), ()), DimensionMismatch,
     "realization needs at least one stage"),
    (30, RealizationSeq, ((I2,), (3, 5)), DimensionMismatch,
     "one designed eigenvalue per stage"),
    (31, RealizationSeq, ((I2, Matrix.identity(3)), (1, 1)), DimensionMismatch,
     "stage dimensions do not chain"),
    (32, RealizationSeq, ((I2,), (1,), ((1, 1),)), DimensionMismatch,
     "one marker per level"),
    (33, RealizationSeq, ((I2, I2), (1, 1), ((1, 1), (1,), (1, 1))),
     DimensionMismatch, "marker length wrong at level 2"),
    (34, RealizationSeq, ((TALL,), (1,), ((1, 1), (1, 1))), DimensionMismatch,
     "marker length wrong at last level"),
]


@pytest.mark.parametrize(
    "record,args,error,message",
    [pytest.param(*row, id=f"{row[0].__name__}-{number}")
     for number, *row in BAD_INPUTS])
def test_bad_input_raises_the_checked_error(record, args, error, message):
    with pytest.raises(error) as info:
        record(*args)
    assert type(info.value) is error
    assert str(info.value) == message


def test_bad_input_numbers_are_distinct():
    numbers = [row[0] for row in BAD_INPUTS]
    assert len(set(numbers)) == len(numbers)


def _examples():
    """A maker of one valid instance of each record; each call makes a new
    instance from equal values."""
    return {
        "Stage": lambda: Stage(3, (1, 0), I2),
        "ExtensionData": lambda: ExtensionData(1, (Stage(3, (1,), I1),)),
        "ErsStageData": lambda: ErsStageData(1, (Stage(3, (1,), I1),),
                                             (Fraction(1, 2),)),
        "EcrsProblem": lambda: EcrsProblem(1, 3, (1,), FactorSequence((4,))),
        "PolyNat": lambda: PolyNat((1, 2)),
        "SupernaturalNumber": lambda: SupernaturalNumber({2: 1}, [3]),
        "FactorSequence": lambda: FactorSequence([3, 5]),
        "RealizationSeq": lambda: RealizationSeq(
            (I2,), (1,), ((1, 1), (1, 1)), {"ecs": True},
            {"pipeline": "test"}),
        "BParams": lambda: BParams(3, I1, (1,), 1),
        "ErsVerifyReport": lambda: ErsVerifyReport(True, (3,), True),
        "WSequence": lambda: WSequence(((1,),), ((1,),), Fraction(1, 3)),
        "PerronData": lambda: PerronData(3, (1,), (1,), 1),
        "EqualSumsReport": lambda: EqualSumsReport(1, 1, True),
        "UniqueTraceReport": lambda: UniqueTraceReport(I1, 1, 3,
                                                       Fraction(1, 10)),
        "TraceReport": lambda: TraceReport([(3, 1, True)], True, None),
        "NearlySplitReport": lambda: NearlySplitReport(True, True, True),
        "VerificationResult": lambda: VerificationResult(True, {"ok": True}),
        "EcrsDecision": lambda: EcrsDecision(True, 3, True,
                                             "size-equals-index"),
        "UnimodularTransform": lambda: UnimodularTransform(
            2, (("swap", 0, 1),)),
    }


# Records that hold a dict or a list, so they are unhashable.
UNHASHABLE = {"SupernaturalNumber", "RealizationSeq", "TraceReport",
              "VerificationResult"}


@pytest.mark.parametrize("name", sorted(_examples()))
def test_records_are_immutable(name):
    record = _examples()[name]()
    field = next(iter(inspect.signature(type(record)).parameters))
    before = getattr(record, field)
    for attr in (field, "not_a_field"):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", sorted(_examples()))
def test_equal_records_compare_equal_and_hash_alike(name):
    make = _examples()[name]
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b
    assert repr(a) == repr(b)
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_records_with_different_values_differ():
    assert Stage(3, (1, 0), I2) != Stage(5, (1, 0), I2)
    assert FactorSequence([3, 5]) != FactorSequence([5, 3])
    assert PerronData(3, (1,), (1,), 1) != PerronData(3, (1,), (2,), 1)


def test_realization_defaults_are_fresh_dicts():
    a = RealizationSeq((I1,), (1,))
    b = RealizationSeq((I1,), (1,))
    assert a.markers is None
    assert a.properties == a.provenance == {}
    assert a.properties is not b.properties
    assert a.provenance is not b.provenance
    assert a.properties is not a.provenance
    a.properties["ecs"] = True
    a.provenance["pipeline"] = "test"
    assert b.properties == b.provenance == {}
    assert RealizationSeq((I1,), (1,)).properties == {}


def test_supernatural_defaults_and_normalization():
    empty = SupernaturalNumber()
    assert empty.finite_part == {} and empty.infinite_primes == frozenset()
    assert SupernaturalNumber().finite_part is not empty.finite_part
    given = {2: 3}
    u = SupernaturalNumber(given, [5, 7, 5])
    assert u.finite_part == given and u.finite_part is not given
    assert u.infinite_primes == frozenset({5, 7})
    assert isinstance(u.infinite_primes, frozenset)


def test_ecrs_problem_defaults():
    problem = EcrsProblem(1, 3, (1,), FactorSequence((4,)))
    assert problem.q is None and problem.seed_matrix is None
    assert EcrsProblem(1, 3, (1,), FactorSequence((4,)), q=4).q == 4


def test_ers_stage_data_stores_the_trace_row_as_fractions():
    data = ErsStageData(1, (Stage(3, (1,), I1),), [1])
    assert data.trace_row == (Fraction(1),)
    assert type(data.trace_row) is tuple
    assert type(data.trace_row[0]) is Fraction


def test_factor_sequence_stores_a_tuple_and_acts_as_its_factors():
    seq = FactorSequence([3, 5])
    assert seq.factors == (3, 5) and type(seq.factors) is tuple
    assert len(seq) == 2
    assert list(seq) == [3, 5]
    assert [p for p in seq] == [3, 5]
    assert not FactorSequence([])
    assert len(FactorSequence(iter([7, 11, 13]))) == 3


def test_realization_length_is_its_stage_count():
    seq = RealizationSeq((I2, I2, I2), (1, 1, 1))
    assert len(seq) == 3
    assert seq.level_sizes() == (2, 2, 2, 2)


def test_repr_names_each_field():
    assert repr(Stage(3, (1, 0), I2)) \
        == "Stage(p=3, v=(1, 0), b=Matrix([[1, 0], [0, 1]]))"
    assert repr(BParams(3, I1, (1,), 1)) \
        == "BParams(p=3, b=Matrix([[1]]), v=(1,), a=1)"
    assert repr(FactorSequence([3, 5])) == "FactorSequence(factors=(3, 5))"
