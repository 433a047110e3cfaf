"""The record contract: every problem and result type is a frozen `core.Record`.

Each sample's repr is pinned as the package printed it when these types
were frozen dataclasses; the golden digest hashes such reprs.
"""

import copy
import pickle

import pytest

import fairflow.oracle
from fairflow import (
    BetaResult,
    Chain,
    CostedResidual,
    CutCertificate,
    DecMinVerdict,
    Digraph,
    ExistenceResult,
    ExtInt,
    FlowProblem,
    FlowViolation,
    InfArc,
    LevelCost,
    NDIteration,
    NDTrace,
    NEG_INF,
    NarrowBox,
    POS_INF,
    PotentialVector,
    ReductionRound,
    ResidualArc,
)
from fairflow.core import Record, replace

GRAPH = Digraph(3, ((0, 1), (1, 2), (2, 0)))
ARC = ResidualArc(0, 1, POS_INF, -2, 1, False)
INF_ARC = InfArc(1, 2, 1, True)
CHAIN = Chain((frozenset({0, 1}), frozenset({1})))
ITERATION = NDIteration(1, frozenset({1, 2}), 3, 2)
TRACE = NDTrace((ITERATION,), 2)
POTENTIAL = PotentialVector(1, ((0,), (-1,), (2,)))

SAMPLES = {
    GRAPH: "Digraph(node_count=3, edges=((0, 1), (1, 2), (2, 0)))",
    FlowProblem(GRAPH, (0, NEG_INF, 1), (2, 3, POS_INF), (-1, 0, 1), frozenset({0, 2}), (1, -2, 0)):
        "FlowProblem(graph=Digraph(node_count=3, edges=((0, 1), (1, 2), (2, 0))), "
        "lower=(0, -inf, 1), upper=(2, 3, +inf), supply=(-1, 0, 1), focus=frozenset({0, 2}), "
        "cost=(1, -2, 0))",
    FlowViolation("bounds", 1, "edge 1: value 4 outside [-inf, 3]"):
        "FlowViolation(kind='bounds', index=1, message='edge 1: value 4 outside [-inf, 3]')",
    ARC: "ResidualArc(tail=0, head=1, capacity=+inf, cost=-2, origin=1, forward=False)",
    CostedResidual(3, (ARC,)):
        "CostedResidual(node_count=3, arcs=(ResidualArc(tail=0, head=1, capacity=+inf, "
        "cost=-2, origin=1, forward=False),))",
    INF_ARC: "InfArc(tail=1, head=2, origin=1, reversed_=True)",
    ExistenceResult(False, (INF_ARC,)):
        "ExistenceResult(exists=False, witness=(InfArc(tail=1, head=2, origin=1, reversed_=True),))",
    CHAIN: "Chain(sets=(frozenset({0, 1}), frozenset({1})))",
    NarrowBox((ExtInt(0), NEG_INF), (ExtInt(1), POS_INF)):
        "NarrowBox(f_star=(0, -inf), g_star=(1, +inf))",
    ReductionRound(
        2, (ExtInt(2),), frozenset({0}), CHAIN, (ExtInt(0),), (ExtInt(2),),
        frozenset({0}), frozenset(), (1,), TRACE,
    ):
        "ReductionRound(beta=2, g_capped=(2,), level_set=frozenset({0}), "
        "chain=Chain(sets=(frozenset({0, 1}), frozenset({1}))), f_prime=(0,), g_prime=(2,), "
        "narrowed=frozenset({0}), focus_next=frozenset(), removed_tight=(1,), "
        "nd_trace=NDTrace(iterations=(NDIteration(mu=1, argmax=frozenset({1, 2}), p_value=3, "
        "b_value=2),), mu_min=2))",
    fairflow.oracle.OracleLimits(3, max_enumerations=7):
        "OracleLimits(max_edges=3, max_box_width=4, max_enumerations=7)",
    CutCertificate(frozenset({1, 2}), 4): "CutCertificate(nodes=frozenset({1, 2}), deficiency=4)",
    ITERATION: "NDIteration(mu=1, argmax=frozenset({1, 2}), p_value=3, b_value=2)",
    TRACE:
        "NDTrace(iterations=(NDIteration(mu=1, argmax=frozenset({1, 2}), p_value=3, b_value=2),), "
        "mu_min=2)",
    BetaResult(None, (ExtInt(1), POS_INF), frozenset(), (0, 2), None):
        "BetaResult(beta=None, clamped_upper=(1, +inf), saturated_level_set=frozenset(), "
        "removed_tight_edges=(0, 2), nd_trace=None)",
    LevelCost((3, 1), (1, -1, 0), (0, 1, -1)):
        "LevelCost(levels=(3, 1), arc_sign=(1, -1, 0), arc_level=(0, 1, -1))",
    POTENTIAL: "PotentialVector(dimension=1, values=((0,), (-1,), (2,)))",
    DecMinVerdict(True, POTENTIAL, None):
        "DecMinVerdict(decmin=True, potential=PotentialVector(dimension=1, "
        "values=((0,), (-1,), (2,))), circuit=None)",
}
RECORDS = list(SAMPLES)


def values(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_has_a_sample():
    package = {cls for cls in Record.__subclasses__() if cls.__module__.startswith("fairflow.")}
    assert {type(r) for r in RECORDS} == package


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestContract:
    def test_repr_is_pinned_and_follows_the_annotations(self, record):
        assert repr(record) == SAMPLES[record]
        assert record._fields == tuple(type(record).__annotations__)
        pairs = ", ".join(f"{name}={value!r}" for name, value in zip(record._fields, values(record)))
        assert repr(record) == f"{type(record).__qualname__}({pairs})"

    def test_equality_and_hash_are_over_the_fields(self, record):
        twin = type(record)(*values(record))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record) == hash(values(record))
        assert type(record)(**dict(zip(record._fields, values(record)))) == record

    def test_another_class_with_equal_fields_is_not_equal(self, record):
        other_cls = type("Other", (Record,), {"__annotations__": dict(type(record).__annotations__)})
        other = other_cls(*values(record))
        assert record.__eq__(other) is NotImplemented
        assert record != other and other != record

    def test_fields_cannot_be_assigned_or_deleted(self, record):
        for name in (*record._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == SAMPLES[record]

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, record, protocol):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert back == record and hash(back) == hash(record) and repr(back) == repr(record)

    def test_copies_compare_equal(self, record):
        assert copy.copy(record) == record
        assert copy.deepcopy(record) == record

    def test_bad_arguments_raise_type_error(self, record):
        cls, names, args = type(record), record._fields, values(record)
        if names[0] not in vars(cls):  # the first field has no default
            with pytest.raises(TypeError, match="missing"):
                cls(**dict(zip(names[1:], args[1:])))
        with pytest.raises(TypeError):
            cls(*args, unexpected=1)
        with pytest.raises(TypeError):
            cls(*args, **{names[0]: args[0]})
        with pytest.raises(TypeError):
            cls(*args, None)
        with pytest.raises(TypeError):
            replace(record, unexpected=1)


def test_class_level_values_are_defaults():
    problem = FlowProblem(GRAPH, (0, 0, 0), (1, 1, 1), (0, 0, 0))
    assert problem.focus == frozenset() and problem.cost is None
    assert fairflow.oracle.OracleLimits() == fairflow.oracle.OracleLimits(10, 4, 10_000_000)


def test_replace_runs_the_validation_again():
    problem = next(r for r in RECORDS if type(r) is FlowProblem)
    assert replace(problem, supply=(0, -1, 1)).supply == (0, -1, 1)
    with pytest.raises(ValueError, match="supply must sum to zero"):
        replace(problem, supply=(0, 1, 1))
    with pytest.raises(ValueError, match="strictly nested"):
        replace(CHAIN, sets=(frozenset({1}), frozenset({1})))


def test_post_init_is_looked_up_at_construction(monkeypatch):
    seen = []
    post_init = FlowProblem.__post_init__

    def counted(problem):
        seen.append(problem.supply)
        post_init(problem)

    monkeypatch.setattr(FlowProblem, "__post_init__", counted)
    problem = FlowProblem(GRAPH, (0, 0, 0), (1, 1, 1), (0, 0, 0))
    problem.with_bounds(upper=(2, 2, 2))
    problem.negated()
    assert len(seen) == 3


def test_container_protocols_are_kept():
    assert len(CHAIN) == 2 and not Chain(())
    assert ExistenceResult(True, None) and not ExistenceResult(False, None)
