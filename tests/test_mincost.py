import random

import pytest

from fairflow import (
    CostedResidual,
    InfeasibleError,
    InternalCertificateFailure,
    NegativeCycleError,
    ResidualArc,
    UnboundedCostError,
    build_costed_residual,
    check_flow,
    find_negative_dicircuit,
    min_cost_mflow,
    residual_potentials,
)
from fairflow.core import replace
from fairflow.extint import ExtInt, POS_INF
from fairflow.oracle import enumerate_flows

from conftest import build, random_problem


def total_cost(problem, values):
    cost = problem.cost or (0,) * problem.edge_count
    return sum(c * z for c, z in zip(cost, values))


def arc(tail, head, cap, cost, origin=0, forward=True):
    return ResidualArc(tail, head, ExtInt(cap), cost, origin, forward)


class TestNegativeDicircuit:
    def test_empty(self):
        assert find_negative_dicircuit(CostedResidual(3, ())) is None

    def test_two_cycle(self):
        residual = CostedResidual(2, (arc(0, 1, 1, 1), arc(1, 0, 1, -2)))
        cycle = find_negative_dicircuit(residual)
        assert cycle is not None
        assert sum(a.cost for a in cycle) == -1

    def test_negative_self_loop(self):
        residual = CostedResidual(1, (arc(0, 0, 1, -1),))
        cycle = find_negative_dicircuit(residual)
        assert cycle is not None and len(cycle) == 1

    def test_detection_matches_exhaustive(self):
        # enumerate all simple cycles by DFS and compare the verdicts
        rng = random.Random(5)
        for _ in range(120):
            n = rng.randint(1, 4)
            m = rng.randint(1, 7)
            arcs = tuple(
                arc(rng.randrange(n), rng.randrange(n), 1, rng.randint(-3, 3), i)
                for i, m_ in enumerate(range(m))
            )
            residual = CostedResidual(n, arcs)
            found = find_negative_dicircuit(residual)
            exists = self._has_negative_cycle(n, arcs)
            assert (found is not None) == exists
            if found is not None:
                assert sum(a.cost for a in found) < 0
                # consecutive arcs chain head to tail and close up
                for first, second in zip(found, found[1:] + found[:1]):
                    assert first.head == second.tail

    @staticmethod
    def _has_negative_cycle(n, arcs):
        def search(path_nodes, node, weight, start):
            for a in arcs:
                if a.tail != node:
                    continue
                if a.head == start and weight + a.cost < 0:
                    return True
                if a.head not in path_nodes and a.head > start:
                    if search(path_nodes | {a.head}, a.head, weight + a.cost, start):
                        return True
            return False

        return any(search({s}, s, 0, s) for s in range(n))


class TestPotentials:
    def test_no_arcs(self):
        assert residual_potentials(CostedResidual(3, ())) == [0, 0, 0]

    def test_single_arc(self):
        residual = CostedResidual(2, (arc(0, 1, 1, 3),))
        assert residual_potentials(residual) == [0, 0]

    def test_raises_on_negative_cycle(self):
        residual = CostedResidual(2, (arc(0, 1, 1, 1), arc(1, 0, 1, -2)))
        with pytest.raises(NegativeCycleError):
            residual_potentials(residual)

    def test_feasibility_random(self):
        rng = random.Random(13)
        checked = 0
        while checked < 40:
            n = rng.randint(2, 5)
            arcs = tuple(
                arc(rng.randrange(n), rng.randrange(n), 1, rng.randint(-2, 4), i)
                for i in range(rng.randint(1, 8))
            )
            residual = CostedResidual(n, arcs)
            try:
                pi = residual_potentials(residual)
            except NegativeCycleError:
                continue
            for a in arcs:
                assert pi[a.head] - pi[a.tail] <= a.cost
            checked += 1


class TestMinCost:
    def test_zero_cost_returns_any_feasible(self, diamond):
        flow = min_cost_mflow(diamond)
        assert check_flow(diamond, flow) is None

    def test_diamond_avoids_priced_edge(self, diamond):
        priced = replace(diamond, cost=(1, 0, 0, 0))
        flow = min_cost_mflow(priced)
        assert flow == (0, 2, 0, 2)
        assert total_cost(priced, flow) == 0

    def test_infeasible(self):
        problem = build(2, [(0, 1)], [0], [1], [-2, 2], cost=[1])
        with pytest.raises(InfeasibleError):
            min_cost_mflow(problem)

    def test_unbounded_guard(self):
        problem = build(
            2, [(0, 1), (1, 0)], [0, 0], ["+inf", "+inf"], [0, 0], cost=[-1, 0]
        )
        with pytest.raises(UnboundedCostError, match="negative cost and upper bound"):
            min_cost_mflow(problem)

    def test_unbounded_guard_on_a_minus_infinite_lower(self):
        problem = build(
            2, [(0, 1), (1, 0)], ["-inf", "-inf"], [0, 0], [0, 0], cost=[0, 1]
        )
        with pytest.raises(UnboundedCostError, match="edge 1 has positive cost and lower"):
            min_cost_mflow(problem)

    def test_all_infinite_negative_circuit_is_an_internal_failure(self, monkeypatch):
        # the cost guard leaves no such circuit, so meeting one is a bug, not bad input
        import fairflow.mincost as mincost

        problem = build(2, [(0, 1), (1, 0)], [0, 0], ["+inf", "+inf"], [0, 0], cost=[0, 0])
        # a search that returns every present arc as its circuit: both arcs are +inf
        def every_arc(n, tails, heads, weights):
            return [0] * n, list(range(len(tails)))

        monkeypatch.setattr(mincost, "bellman_ford", every_arc)
        with pytest.raises(InternalCertificateFailure, match="infinite residual capacity"):
            min_cost_mflow(problem)

    def test_optimal_residual_is_conservative(self):
        rng = random.Random(17)
        for _ in range(50):
            problem = random_problem(rng, feasible=True, costs=True)
            flow = min_cost_mflow(problem)
            assert check_flow(problem, flow) is None
            residual = build_costed_residual(problem, flow)
            assert find_negative_dicircuit(residual) is None

    def test_cost_matches_enumeration(self):
        rng = random.Random(37)
        for _ in range(40):
            problem = random_problem(
                rng, max_nodes=4, max_edges=6, feasible=True, costs=True
            )
            flow = min_cost_mflow(problem)
            best = min(total_cost(problem, z) for z in enumerate_flows(problem))
            assert total_cost(problem, flow) == best

    def test_conservative_residual_implies_optimal(self):
        # the other direction of the optimality criterion
        rng = random.Random(41)
        scanned = 0
        while scanned < 25:
            problem = random_problem(
                rng, max_nodes=4, max_edges=5, feasible=True, costs=True
            )
            flows = enumerate_flows(problem)
            best = min(total_cost(problem, z) for z in flows)
            for z in flows:
                residual = build_costed_residual(problem, z)
                conservative = find_negative_dicircuit(residual) is None
                assert conservative == (total_cost(problem, z) == best)
            scanned += 1


def test_residual_arcs_present_iff_capacity(diamond):
    residual = build_costed_residual(diamond, (0, 2, 0, 2))
    kinds = {(a.origin, a.forward) for a in residual.arcs}
    assert (0, True) in kinds and (0, False) not in kinds  # at lower bound
    assert (1, True) not in kinds and (1, False) in kinds  # at upper bound


def descending_cycle(n, closing_weight):
    """Arcs k+1 -> k of weight -1, then 0 -> n-1 closing the cycle.

    Node ids fall along the path, so a pass in id order moves labels one
    arc forward: node 0 reaches -(n-1) in pass n-1, and the closing arc
    lowers node n-1 only in pass n.
    """
    tails = [k + 1 for k in range(n - 1)] + [0]
    heads = [k for k in range(n - 1)] + [n - 1]
    weights = [-1] * (n - 1) + [closing_weight]
    return tails, heads, weights


class TestSearchPasses:
    def test_cycle_closed_in_the_last_pass(self, monkeypatch):
        import fairflow._bf as bf

        n = 60
        tails, heads, weights = descending_cycle(n, n - 2)  # total weight -1
        checks = []
        walk = bf._predecessor_cycle

        def counted(pred, arc_tails):
            checks.append(1)
            return walk(pred, arc_tails)

        monkeypatch.setattr(bf, "_predecessor_cycle", counted)
        _, cycle = bf.bellman_ford(n, tails, heads, weights)
        assert len(checks) == n
        assert sorted(cycle) == list(range(n))
        for first, second in zip(cycle, cycle[1:] + cycle[:1]):
            assert heads[first] == tails[second]

    def test_zero_cycle_gives_distances_after_n_passes(self):
        from fairflow._bf import bellman_ford

        n = 60
        dist, cycle = bellman_ford(n, *descending_cycle(n, n - 1))  # total weight 0
        assert cycle is None
        assert dist == [-(n - 1 - k) for k in range(n - 1)] + [0]

    def test_only_negative_cycle_at_the_end_of_a_long_path(self):
        n = 60
        tails, heads, weights = descending_cycle(n, n - 2)
        arcs = tuple(
            arc(t, h, 1, w, i) for i, (t, h, w) in enumerate(zip(tails, heads, weights))
        )
        cycle = find_negative_dicircuit(CostedResidual(n, arcs))
        assert cycle is not None and len(cycle) == n
        assert sum(a.cost for a in cycle) == -1

    def test_missing_cycle_is_an_internal_failure(self, monkeypatch):
        import fairflow._bf as bf
        from fairflow import InternalCertificateFailure

        monkeypatch.setattr(bf, "_predecessor_cycle", lambda pred, tails: None)
        with pytest.raises(InternalCertificateFailure):
            bf.bellman_ford(2, [0, 1], [1, 0], [1, -2])
