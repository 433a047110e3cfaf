import random

import pytest

from fairflow import (
    InfiniteBoundsError,
    LimitExceededError,
    check_flow,
)
from fairflow.oracle import (
    OracleLimits,
    enumerate_flows,
    oracle_beta,
    oracle_decmin,
    oracle_incmax,
    oracle_most_violating,
)
from fairflow.maxflow import hoffman_deficiency

from conftest import build, random_problem


def enumerate_reversed(problem):
    """Independent check: backtracking in reverse edge order."""
    m = problem.edge_count
    lower = [problem.lower[e].finite for e in range(m)]
    upper = [problem.upper[e].finite for e in range(m)]
    out = []
    values = [0] * m

    def fill(pos):
        if pos < 0:
            from fairflow.core import imbalances

            if imbalances(problem.graph, values) == list(problem.supply):
                out.append(tuple(values))
            return
        for z in range(lower[pos], upper[pos] + 1):
            values[pos] = z
            fill(pos - 1)

    fill(m - 1)
    return out


class TestEnumerate:
    def test_forced_single_value(self):
        problem = build(2, [(0, 1)], [0], [2], [-1, 1])
        assert enumerate_flows(problem) == [(1,)]

    def test_diamond_count(self, diamond):
        flows = enumerate_flows(diamond)
        assert len(flows) == 3
        assert flows == sorted(flows)  # lexicographic order
        assert {f[:2] for f in flows} == {(0, 2), (1, 1), (2, 0)}

    def test_infeasible_empty(self):
        problem = build(2, [(0, 1)], [0], [1], [-2, 2])
        assert enumerate_flows(problem) == []

    def test_limits(self):
        wide = build(2, [(0, 1)], [0], [9], [0, 0])
        with pytest.raises(LimitExceededError):
            enumerate_flows(wide)
        many = build(2, [(0, 1)] * 11, [0] * 11, [1] * 11, [0, 0])
        with pytest.raises(LimitExceededError):
            enumerate_flows(many)
        assert enumerate_flows(wide, OracleLimits(max_box_width=9)) != []
        pair = build(2, [(0, 1)] * 2, [0] * 2, [1] * 2, [0, 0])
        with pytest.raises(LimitExceededError, match="4 assignments exceed cap 3"):
            enumerate_flows(pair, OracleLimits(max_enumerations=3))

    def test_infinite_bounds_rejected(self):
        problem = build(2, [(0, 1)], ["-inf"], [1], [0, 0])
        with pytest.raises(InfiniteBoundsError):
            enumerate_flows(problem)

    def test_matches_reverse_order_enumeration(self):
        rng = random.Random(139)
        for _ in range(40):
            problem = random_problem(rng, max_nodes=4, max_edges=5)
            flows = enumerate_flows(problem)
            assert len(set(flows)) == len(flows)
            assert set(flows) == set(enumerate_reversed(problem))
            for flow in flows:
                assert check_flow(problem, flow) is None

    def test_isolated_node_with_supply(self):
        problem = build(3, [(0, 1)], [0], [1], [-1, 0, 1])
        assert enumerate_flows(problem) == []


class TestOracleQueries:
    def test_decmin_asym(self, asym):
        profile, flows = oracle_decmin(asym)
        assert profile == (2, 1)
        assert flows == [(2, 1, 3)]

    def test_decmin_diamond(self, diamond):
        profile, flows = oracle_decmin(diamond)
        assert profile == (1, 1, 1, 1)
        assert flows == [(1, 1, 1, 1)]

    def test_empty_focus_all_flows_attain(self, diamond):
        plain = diamond.with_bounds(focus=())
        profile, flows = oracle_decmin(plain)
        assert profile == ()
        assert len(flows) == 3

    def test_incmax_asym(self, asym):
        profile, flows = oracle_incmax(asym)
        assert profile == (1, 2)
        assert flows == [(2, 1, 3)]

    def test_beta(self, asym, diamond):
        assert oracle_beta(asym) == 2
        assert oracle_beta(diamond) == 1
        assert oracle_beta(diamond.with_bounds(focus=())) is None

    def test_most_violating_matches_solver_semantics(self):
        rng = random.Random(149)
        for _ in range(30):
            problem = random_problem(rng, max_nodes=4, feasible=False)
            nodes, worst = oracle_most_violating(problem)
            assert hoffman_deficiency(problem, nodes) == worst
