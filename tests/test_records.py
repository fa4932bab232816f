"""The immutable record types: construction, frozenness, equality, pickling.

Every public result type is a ``Record``: its fields are its ``__slots__``,
and ==, hash, repr and pickling read them. Records cross the ``--jobs``
process pool, so a pickle round trip must give an equal record.
"""

import pickle
import re
from fractions import Fraction

import pytest

from multiperfect.arithmetic import FactoredInteger, Record
from multiperfect.bounds import BoundReport, Interval
from multiperfect.classify import PerfectionClass, PrimitiveDecomposition
from multiperfect.search import BoundCheck, FoundRecord, SearchParams, SearchReport
from multiperfect.signature import ChainSignature, Reconstruction

SIX = ((2, 1), (3, 1))
UNIT = Interval(Fraction(1), Fraction(2))
PARAMS = SearchParams(Fraction(2), 4, 10**6)

# One fresh record per call, for each record type; True marks the types
# that hold a dict or a list, which stay unhashable.
BUILD = {
    FactoredInteger: (lambda: FactoredInteger(6, SIX), False),
    Interval: (lambda: Interval(Fraction(1, 3), Fraction(5, 2)), False),
    BoundReport: (lambda: BoundReport({1: UNIT}, UNIT, None, None, [("c", True)]), True),
    PerfectionClass: (lambda: PerfectionClass(Fraction(2), True, False), False),
    PrimitiveDecomposition: (
        lambda: PrimitiveDecomposition(
            (FactoredInteger(6, SIX),), (2,), FactoredInteger(5, ((5, 1),)), False
        ),
        False,
    ),
    SearchParams: (lambda: SearchParams(Fraction(3), 6, 10**6, "odd_only", 2), False),
    FoundRecord: (lambda: FoundRecord(FactoredInteger(6, SIX), True), False),
    BoundCheck: (lambda: BoundCheck("count <= bound", 1, "[1, 2]", True), False),
    SearchReport: (
        lambda: SearchReport(PARAMS, (), 12, {"ceiling": 3}, ("p1=3 e1=2",)), True
    ),
    ChainSignature: (lambda: ChainSignature(Fraction(2), 2, (1, 1), (2, 3)), False),
    Reconstruction: (lambda: Reconstruction(None, ((2, 1),), "chain_overran"), False),
}
TYPES = pytest.mark.parametrize("cls", BUILD, ids=lambda cls: cls.__name__)


def test_every_record_type_is_covered():
    assert set(Record.__subclasses__()) == set(BUILD)


@TYPES
def test_fields_are_frozen(cls):
    record = BUILD[cls][0]()
    for name in cls.__slots__:
        with pytest.raises(AttributeError, match=f"field {name!r}"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"field {name!r}"):
            delattr(record, name)
    assert not hasattr(record, "__dict__")  # every field is a slot
    assert record == BUILD[cls][0]()


@TYPES
def test_equal_fields_give_equal_records_and_hashes(cls):
    build, unhashable = BUILD[cls]
    a, b = build(), build()
    assert a is not b and a == b and not a != b
    assert a != tuple(getattr(a, name) for name in cls.__slots__)
    if unhashable:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@TYPES
def test_pickle_round_trip_gives_an_equal_record(cls):
    record = BUILD[cls][0]()
    copy = pickle.loads(pickle.dumps(record))
    assert type(copy) is cls and copy == record


@TYPES
def test_repr_names_every_field(cls):
    record = BUILD[cls][0]()
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in cls.__slots__)
    assert repr(record) == f"{cls.__name__}({fields})"


def test_equality_needs_the_same_type():
    assert FoundRecord(FactoredInteger(6, SIX), True) != FoundRecord(6, True)
    assert Interval(1, 2) != BoundCheck(1, 2, 3, 4)
    assert Interval(1, 2).__eq__((1, 2)) is NotImplemented


def test_keywords_and_trailing_defaults():
    assert SearchParams(max_omega=4, limit=10**6, alpha=Fraction(2)) == PARAMS
    assert SearchParams(Fraction(2), 4, 10**6, worker_count=1) == PARAMS
    assert (PARAMS.parity, PARAMS.worker_count) == ("any", 1)
    rec = Reconstruction(None, ())
    assert (rec.failure, rec.failed_step) == (None, None)


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((Fraction(2), 4), {}),  # limit missing
        ((Fraction(2), 4, 10**6, "any", 1, 0), {}),  # one too many
        ((Fraction(2), 4, 10**6), {"alpha": Fraction(3)}),  # alpha twice
        ((Fraction(2), 4, 10**6), {"workers": 2}),  # no such field
    ],
)
def test_arguments_that_match_no_field_list_are_refused(args, kwargs):
    with pytest.raises(TypeError, match=r"^SearchParams\.__init__\(\) "):
        SearchParams(*args, **kwargs)


# Each __post_init__ check, with the message it has always given.
POST_INIT_FAILURES = [
    (lambda: FactoredInteger(0, ()), "value must be positive, got 0"),
    (lambda: FactoredInteger(12, ((3, 1), (2, 2))), "primes not strictly increasing at 2"),
    (lambda: FactoredInteger(1, ((2, 0),)), "exponent 0 for prime 2 must be >= 1"),
    (lambda: FactoredInteger(4, ((4, 1),)), "listed factor 4 is not prime"),
    (lambda: FactoredInteger(7, SIX), "factor product 6 does not reproduce value 7"),
    (lambda: Interval(Fraction(2), Fraction(1)), "empty interval [2, 1]"),
    (
        lambda: PrimitiveDecomposition(
            (FactoredInteger(6, SIX),), (2,), FactoredInteger(2, ((2, 1),)), False
        ),
        "decomposition pieces are not pairwise coprime",
    ),
    (
        lambda: PrimitiveDecomposition((), (2,), FactoredInteger(6, SIX), False),
        "one multiplier per part required",
    ),
    (lambda: SearchParams(Fraction(1), 4, 10**6), "alpha must exceed 1"),
    (lambda: SearchParams(Fraction(2), 4, 0), "limit must be >= 1"),
    (lambda: SearchParams(Fraction(2), 4, 10, "even"), "unknown parity 'even'"),
    (lambda: SearchParams(Fraction(2), 4, 10, "any", 0), "worker_count must be >= 1"),
    (lambda: SearchParams(Fraction(2), 0, 10), "max_omega must be >= 1"),
    (
        lambda: ChainSignature(Fraction(2), 2, (1,), (2, 3)),
        "one exponent per chain prime required",
    ),
    (lambda: ChainSignature(Fraction(2), 2, (1, 1), (3, 2)), "chain must start at p1"),
    (lambda: ChainSignature(Fraction(2), 2, (1, 1), (2, 2)), "chain primes must be distinct"),
]


@pytest.mark.parametrize("build, message", POST_INIT_FAILURES)
def test_post_init_checks_keep_their_messages(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()
