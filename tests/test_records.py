"""Value semantics of the package's seven record types.

Each is immutable, copies and pickles through its constructor, and keeps
the ``repr``, equality and hashing that callers and error messages see.
"""

import copy
import math
import pickle

import pytest

from revpinsker import (
    ClassParams,
    Distribution,
    ExtremalPair,
    Generator,
    PairReport,
    SearchConfig,
    SearchOutcome,
    kl_generator,
    ternary_extremal,
    validate_distribution,
    verify_membership,
)
from revpinsker.generators import _kl

PARAMS = ClassParams(0.25, 0.5, 2.0)


def records():
    """One instance of each record type, by type name."""
    pair = ternary_extremal(PARAMS)
    return {
        "ClassParams": PARAMS,
        "Distribution": validate_distribution([0.25, 0.75]),
        "Generator": kl_generator(),
        "ExtremalPair": pair,
        "PairReport": verify_membership(pair.P, pair.Q, PARAMS, generators=(kl_generator(),)),
        "SearchConfig": SearchConfig(trials=50, seed=3),
        "SearchOutcome": SearchOutcome(0.5, (pair.P, pair.Q), 0.5, 0.0, 0, ((1, 0.5, 0),)),
    }


RECORDS = records()
#: the types whose fields hold no Distribution, which compares by identity
BY_VALUE = ("ClassParams", "Generator", "PairReport", "SearchConfig")
#: the types that hash; PairReport holds dicts
HASHABLE = ("ClassParams", "Generator", "SearchConfig")
#: one field of each type
A_FIELD = {"ClassParams": "delta", "Distribution": "values", "Generator": "name",
           "ExtremalPair": "P", "PairReport": "passed", "SearchConfig": "seed",
           "SearchOutcome": "gap"}


@pytest.mark.parametrize("name", sorted(RECORDS))
@pytest.mark.parametrize("clone", [
    copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x)),
], ids=["copy", "deepcopy", "pickle"])
def test_round_trip(name, clone):
    record = RECORDS[name]
    twin = clone(record)
    assert type(twin) is type(record)
    assert repr(twin) == repr(record)
    if name in BY_VALUE:
        assert twin == record
    if name in HASHABLE:
        assert hash(twin) == hash(record)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_assignment_raises(name):
    record = RECORDS[name]
    field = A_FIELD[name]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.no_such_field = None


def test_equal_objects_hash_equal():
    assert ClassParams(0.25, 0.5, 2) == PARAMS
    assert hash(ClassParams(0.25, 0.5, 2)) == hash(PARAMS)
    assert ClassParams(0.25, 0.5, 3.0) != PARAMS
    assert SearchConfig() == SearchConfig(6, 1000, 0)
    assert hash(SearchConfig()) == hash(SearchConfig(6, 1000, 0))
    # mp_fn is left out of equality and hashing
    bare = Generator("kl", _kl, 0.0, math.inf)
    assert bare == kl_generator() and hash(bare) == hash(kl_generator())
    assert Generator("kl", _kl, 0.0, 1.0) != kl_generator()
    assert PARAMS != (0.25, 0.5, 2.0)


def test_distribution_compares_by_identity():
    P = validate_distribution([0.25, 0.75])
    Q = Distribution(P.values)
    assert P != Q and P == P
    assert hash(P) != hash(Q)
    assert P.weights is P.weights  # cached on the instance


def test_reprs():
    assert repr(ClassParams(0.25, 0.5, 2)) == "ClassParams(delta=0.25, m=0.5, M=2.0)"
    assert repr(SearchConfig()) == "SearchConfig(support_size=6, trials=1000, seed=0)"
    assert repr(kl_generator()) == (
        f"Generator(name='kl', fn={_kl!r}, f_at_zero=0.0, slope_at_infinity=inf)"
    )
    assert repr(RECORDS["Distribution"]) == "Distribution([0.25, 0.75])"


def test_results_keep_their_fields_in_vars():
    for name in ("ExtremalPair", "PairReport", "SearchOutcome"):
        record = RECORDS[name]
        assert list(vars(record)) == list(record._fields)


def test_constructor_defaults():
    report = PairReport(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, True)
    assert report.divergences == report.bounds == report.gaps == {}
    assert report.divergences is not PairReport(0.0, 1.0, 1.0, 0.0, 0.0, 0.0, True).divergences
    assert SearchOutcome(0.0, (), 0.0, 0.0, 0).history == ()
    assert kl_generator().mp_fn is not None and Generator("g", _kl, 0.0, 1.0).mp_fn is None
    assert ExtremalPair(P=None, Q=None, q=0.0, p=0.0, t=0.0).t == 0.0
