"""Differential and metamorphic checks beyond the oracle's 10-edge cap.

networkx is a test-only dependency: the module is skipped without it.
Instances have 50 to 400 edges, so they exercise the max-flow engine,
its finite stand-in for +inf and the reduction loop at sizes the
enumeration oracle cannot reach.
"""

import random

import pytest

from fairflow import (
    POS_INF,
    CutCertificate,
    Digraph,
    ExtInt,
    FlowProblem,
    NEG_INF,
    check_flow,
    decmin_flow,
    find_feasible_mflow,
    focus_profile,
    hoffman_deficiency,
    max_flow,
    narrow_box,
)
from fairflow.core import imbalances

nx = pytest.importorskip("networkx")

SIZES = (50, 100, 200, 400)


def random_edges(rng, n, m):
    return tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))


def random_problem(rng, n, m, focus_share, inf_share):
    """A feasible instance: supplies are the imbalances of a point in the box.

    Non-focus edges get a +inf upper or a -inf lower bound with
    probability inf_share each.
    """
    edges = random_edges(rng, n, m)
    lower = [rng.randint(-3, 3) for _ in range(m)]
    upper = [lo + rng.randint(0, 6) for lo in lower]
    point = [rng.randint(lower[e], upper[e]) for e in range(m)]
    focus = frozenset(e for e in range(m) if rng.random() < focus_share)
    lo = [ExtInt(b) for b in lower]
    hi = [ExtInt(b) for b in upper]
    for e in range(m):
        if e not in focus and rng.random() < inf_share:
            hi[e] = POS_INF
        if e not in focus and rng.random() < inf_share:
            lo[e] = NEG_INF
    graph = Digraph(n, edges)
    supply = tuple(imbalances(graph, point))
    return FlowProblem(graph, tuple(lo), tuple(hi), supply, focus)


# -- (a) max flow value and min cut ------------------------------------------


def test_max_flow_matches_networkx():
    rng = random.Random(101)
    outcomes = set()
    for m in SIZES:
        for inf_share in (0.0, 0.1, 0.4):
            n = rng.randint(m // 8, m // 3)
            edges = random_edges(rng, n, m)
            caps = [
                POS_INF if rng.random() < inf_share else rng.randint(0, 20)
                for _ in range(m)
            ]
            reference = nx.DiGraph()
            reference.add_nodes_from(range(n))
            for (u, v), cap in zip(edges, caps):
                if u == v:
                    continue
                if not reference.has_edge(u, v):
                    reference.add_edge(u, v, capacity=0)
                data = reference.edges[u, v]
                if cap == POS_INF or "capacity" not in data:
                    data.pop("capacity", None)  # networkx: no capacity is +inf
                else:
                    data["capacity"] += cap
            value, flow, cut = max_flow(Digraph(n, edges), caps, 0, n - 1)
            try:
                expected = nx.maximum_flow_value(reference, 0, n - 1)
            except nx.NetworkXUnbounded:
                outcomes.add("unbounded")
                assert value == POS_INF
                assert n - 1 in cut
                assert flow == (0,) * m
                continue
            outcomes.add("bounded")
            assert value == expected
            assert 0 in cut and n - 1 not in cut
            crossing = [
                caps[e] for e, (u, v) in enumerate(edges) if u in cut and v not in cut
            ]
            assert POS_INF not in crossing
            assert sum(crossing) == value
            assert all(0 <= flow[e] <= caps[e] for e in range(m))
            net = imbalances(Digraph(n, edges), flow)
            assert net[n - 1] == value and net[0] == -value
            assert all(net[v] == 0 for v in range(1, n - 1))
    assert outcomes == {"bounded", "unbounded"}


# -- (b) feasibility verdicts --------------------------------------------------


def networkx_feasible(problem):
    """Feasibility by networkx min-cost flow after shifting the bounds.

    An edge with a finite lower bound l carries l + y with 0 <= y <=
    upper - l; one with lower -inf and a finite upper u carries u - y on
    the reversed edge; one with both bounds infinite becomes two
    uncapacitated opposite edges.  Missing capacity means +inf.
    """
    reference = nx.MultiDiGraph()
    demand = list(problem.supply)

    def fix(u, v, amount):
        demand[v] -= amount
        demand[u] += amount

    for e, (u, v) in enumerate(problem.graph.edges):
        lo, hi = problem.lower[e], problem.upper[e]
        if u == v:
            continue
        if lo.is_finite and hi.is_finite:
            fix(u, v, lo.finite)
            reference.add_edge(u, v, capacity=hi.finite - lo.finite)
        elif lo.is_finite:
            fix(u, v, lo.finite)
            reference.add_edge(u, v)
        elif hi.is_finite:
            fix(u, v, hi.finite)
            reference.add_edge(v, u)
        else:
            reference.add_edge(u, v)
            reference.add_edge(v, u)
    for node, d in enumerate(demand):
        reference.add_node(node, demand=d)
    try:
        nx.network_simplex(reference)
    except nx.NetworkXUnfeasible:
        return False
    return True


def test_feasibility_verdict_matches_networkx():
    rng = random.Random(202)
    verdicts = set()
    for m in SIZES:
        for inf_share, heavy in ((0, 0), (0.1, 0), (0.3, 0), (0.5, 0), (0.1, 10**4)):
            n = rng.randint(m // 8, m // 3)
            problem = random_problem(rng, n, m, 0.5, inf_share)
            upper = list(problem.upper)
            supply = list(problem.supply)
            if heavy:
                # one unbounded edge must carry nearly all of the demand
                e = next(e for e, (u, v) in enumerate(problem.graph.edges) if u != v)
                u, v = problem.graph.edges[e]
                upper[e] = POS_INF
                supply[u] -= heavy
                supply[v] += heavy
            if rng.random() < 0.6:
                a, b = rng.sample(range(n), 2)
                shift = rng.randint(1, 60)
                supply[a] -= shift
                supply[b] += shift
            problem = FlowProblem(
                problem.graph, problem.lower, tuple(upper), tuple(supply)
            )
            outcome = find_feasible_mflow(problem)
            feasible = not isinstance(outcome, CutCertificate)
            verdicts.add(feasible)
            assert feasible == networkx_feasible(problem)
            if feasible:
                assert check_flow(problem, outcome) is None
            else:
                assert outcome.deficiency > 0
                assert hoffman_deficiency(problem, outcome.nodes) == outcome.deficiency
    assert verdicts == {True, False}


# -- (c) invariance under edge permutation --------------------------------------


def permuted(problem, order):
    """The same problem with new edge i being old edge order[i]."""
    return FlowProblem(
        Digraph(problem.node_count, tuple(problem.graph.edges[e] for e in order)),
        tuple(problem.lower[e] for e in order),
        tuple(problem.upper[e] for e in order),
        problem.supply,
        frozenset(i for i, e in enumerate(order) if e in problem.focus),
    )


def test_box_and_profile_invariant_under_edge_permutation():
    rng = random.Random(303)
    for m, focus_share in ((50, 1.0), (60, 0.5), (80, 1.0), (100, 0.3)):
        n = rng.randint(m // 5, m // 3)
        problem = random_problem(rng, n, m, focus_share, 0.1)
        order = list(range(m))
        rng.shuffle(order)
        shuffled = permuted(problem, order)
        box, _ = narrow_box(problem)
        shuffled_box, _ = narrow_box(shuffled)
        assert shuffled_box.f_star == tuple(box.f_star[e] for e in order)
        assert shuffled_box.g_star == tuple(box.g_star[e] for e in order)
        assert focus_profile(problem, decmin_flow(problem)) == focus_profile(
            shuffled, decmin_flow(shuffled)
        )
