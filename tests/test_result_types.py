"""The result types are plain slotted classes; they keep the semantics of
the frozen and mutable dataclasses they replace: fields, defaults,
equality, hashing, immutability, truthiness and repr."""

import copy
import pickle

import pytest

from starwheel.core import cycle
from starwheel.detect import StarWitness, WheelWitness
from starwheel.ramsey import EXACT, Bound, Goodness, RamseySearch, SearchReport
from starwheel.theorems import CONCLUSION_HOLDS, COUNTEREXAMPLE, FuzzSummary, Verdict

FROZEN = [
    (StarWitness, "center", (0, (1, 2, 3))),
    (WheelWitness, "hub", (0, (1, 2, 3))),
    (Bound, "value", (11, EXACT, "ThExactly")),
    (Goodness, "good", (False, StarWitness(0, (1, 2, 3)))),
    (SearchReport, "n", (4, 6, 11, "arrows-holds", 14, 2.5, None, {2: 2})),
    (Verdict, "status", (COUNTEREXAMPLE, 3, "circumference 3 < 4")),
]
IDS = [cls.__name__ for cls, _, _ in FROZEN]


@pytest.mark.parametrize("cls,first,args", FROZEN, ids=IDS)
def test_frozen_types_reject_assignment(cls, first, args):
    value = cls(*args)
    with pytest.raises(AttributeError):
        setattr(value, first, 0)
    with pytest.raises(AttributeError):
        delattr(value, first)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert getattr(value, first) == args[0]


@pytest.mark.parametrize("cls,first,args", FROZEN, ids=IDS)
def test_frozen_types_compare_and_hash_by_fields(cls, first, args):
    value = cls(*args)
    for twin in (cls(*args), copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert twin is not value and twin == value and hash(twin) == hash(value)
    assert value != cls("other", *args[1:])
    assert value != args


def test_equality_needs_the_same_class():
    assert StarWitness(0, (1, 2, 3)) != WheelWitness(0, (1, 2, 3))
    assert StarWitness(0, (1, 2, 3)) != (0, (1, 2, 3))


def test_search_report_hash_ignores_survivors():
    a = SearchReport(4, 6, 11, "arrows-holds", 14, 2.5, survivors={2: 2})
    b = SearchReport(4, 6, 11, "arrows-holds", 14, 2.5, survivors={2: 3})
    assert a != b and hash(a) == hash(b)
    assert a == SearchReport(4, 6, 11, "arrows-holds", 14, 2.5, None, {2: 2})


def test_mutable_types_assign_and_are_unhashable():
    search = RamseySearch(4, 6, 11, [], None, 0, 1.0)
    search.ramsey_number = None
    assert not search.decided
    assert search == RamseySearch(4, 6, None, [], None, 0, 1.0)
    summary = FuzzSummary()
    summary.graphs += 1
    assert summary == FuzzSummary(graphs=1)
    for value in (search, summary):
        with pytest.raises(TypeError):
            hash(value)


def test_goodness_is_falsy_iff_not_good():
    assert Goodness(True) and Goodness(True).violation is None
    assert not Goodness(False, WheelWitness(0, (1, 2, 3)))
    # the other types have no truth value of their own
    assert all(cls(*args) for cls, _, args in FROZEN if cls is not Goodness)
    assert FuzzSummary() and RamseySearch(4, 6, None, [], None, 0, 0.0)


def test_defaults_are_fresh_per_instance():
    first, second = FuzzSummary(), FuzzSummary()
    first.tallies["dirac"] = {CONCLUSION_HOLDS: 1}
    assert second.tallies == {} and second.counterexample is None
    a = SearchReport(4, 6, 11, "arrows-holds", 0, 0.0)
    a.survivors[2] = 1
    assert SearchReport(4, 6, 11, "arrows-holds", 0, 0.0).survivors == {}
    assert a.witness is None
    assert Verdict(COUNTEREXAMPLE, detail="x").witness is None
    assert Verdict(CONCLUSION_HOLDS).detail == ""


def test_reprs_name_every_field():
    assert repr(WheelWitness(hub=0, rim=(1, 2, 3))) == "WheelWitness(hub=0, rim=(1, 2, 3))"
    assert repr(Goodness(False, StarWitness(0, (1, 2)))) == (
        "Goodness(good=False, violation=StarWitness(center=0, leaves=(1, 2)))"
    )
    assert repr(Bound(11, EXACT, "ThExactly")) == "Bound(value=11, status='exact', source='ThExactly')"
    assert repr(FuzzSummary()) == "FuzzSummary(graphs=0, tallies={}, counterexample=None)"
    assert repr(SearchReport(4, 6, 5, "good-graph-found", 1, 0.5, cycle(5))) == (
        "SearchReport(n=4, m=6, order=5, outcome='good-graph-found', enumerated=1,"
        f" elapsed_ms=0.5, witness={cycle(5)!r}, survivors={{}})"
    )


def test_graphs_and_the_results_that_carry_them_pickle_and_copy():
    from starwheel.ramsey import arrows, compute_ramsey

    report = arrows(10, 4, 6)
    search = compute_ramsey(2, 4)
    assert report.witness is not None and search.extremal is not None
    for value in (cycle(5), report, search):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is type(value) and twin == value
    g = pickle.loads(pickle.dumps(cycle(5)))
    assert g.rows == cycle(5).rows and hash(g) == hash(cycle(5))
    with pytest.raises(AttributeError):
        g.n = 3
    twin = copy.deepcopy(report)
    assert twin.witness == report.witness and twin.survivors == report.survivors
    assert copy.deepcopy(search).extremal == search.extremal
