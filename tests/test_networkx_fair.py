"""Fair flows checked against an exponential-weights oracle solved by networkx.

With K = |F| + 1 and base the smallest focus lower bound, a feasible
flow is F-dec-min iff it minimizes sum over e in F of K^(z_e - base): at
the first position where two sorted focus profiles differ, the larger
value's term exceeds |F| terms of the next value down.  That objective
is separable convex, so expanding each focus edge into unit arcs of
marginal weight (K - 1) * K^(l + k - base) turns it into a min-cost
flow, which networkx's network simplex solves exactly on Python ints.
Scaling the fairness term by M = 1 + 2 * sum |c_e| * (u_e - l_e) makes
the cheapest fair flow the oracle's optimum.

networkx is a test-only dependency: the module is skipped without it.
Instances have 20 to 100 nodes, 50 to 400 edges, boxes 3 or 20 wide and
costs in [-10, 10].
"""

import random

import pytest

from fairflow import (
    Digraph,
    ExtInt,
    FlowProblem,
    cheapest_decmin_flow,
    check_flow,
    decmin_flow,
    narrow_box,
)
from fairflow.core import imbalances

nx = pytest.importorskip("networkx")

CASES = [
    (seed, n, m, width)
    for seed, (n, m) in enumerate(
        [(20, 50), (30, 80), (40, 120), (50, 150), (60, 120), (60, 200), (100, 400)]
    )
    for width in (3, 20)
]


def fair_instance(rng, n, m, max_width):
    """A feasible costed instance without self-loops; supplies come from a
    point of the box.  About two thirds of the edges are in focus."""
    edges = tuple(tuple(rng.sample(range(n), 2)) for _ in range(m))
    lower = [rng.randint(-5, 5) for _ in range(m)]
    upper = [lo + rng.randint(0, max_width) for lo in lower]
    point = [rng.randint(lower[e], upper[e]) for e in range(m)]
    graph = Digraph(n, edges)
    return FlowProblem(
        graph,
        tuple(ExtInt(b) for b in lower),
        tuple(ExtInt(b) for b in upper),
        tuple(imbalances(graph, point)),
        frozenset(e for e in range(m) if rng.random() < 0.67),
        tuple(rng.randint(-10, 10) for _ in range(m)),
    )


def fair_objective(problem, values):
    base = min(problem.lower[e].finite for e in problem.focus)
    k = len(problem.focus) + 1
    return sum(k ** (values[e] - base) for e in problem.focus)


def total_cost(problem, values):
    return sum(c * z for c, z in zip(problem.cost, values))


def oracle_flow(problem):
    """The cheapest fair flow, by network simplex on the unit-arc expansion."""
    lower = [b.finite for b in problem.lower]
    upper = [b.finite for b in problem.upper]
    base = min(lower[e] for e in problem.focus)
    k = len(problem.focus) + 1
    scale = 1 + 2 * sum(
        abs(c) * (upper[e] - lower[e]) for e, c in enumerate(problem.cost)
    )
    graph = nx.MultiDiGraph()
    demand = list(problem.supply)
    arcs = []  # (u, v, key, edge id)
    for e, (u, v) in enumerate(problem.graph.edges):
        demand[v] -= lower[e]
        demand[u] += lower[e]
        c = problem.cost[e]
        if e in problem.focus:
            for step in range(upper[e] - lower[e]):
                weight = scale * (k - 1) * k ** (lower[e] + step - base) + c
                arcs.append((u, v, graph.add_edge(u, v, capacity=1, weight=weight), e))
        elif upper[e] > lower[e]:
            key = graph.add_edge(u, v, capacity=upper[e] - lower[e], weight=c)
            arcs.append((u, v, key, e))
    for v in range(problem.node_count):
        graph.add_node(v, demand=demand[v])
    _, flow = nx.network_simplex(graph)
    values = list(lower)
    for u, v, key, e in arcs:
        values[e] += flow[u][v][key]
    return tuple(values)


@pytest.mark.parametrize("seed,n,m,width", CASES)
def test_fair_flows_match_the_exponential_oracle(seed, n, m, width):
    problem = fair_instance(random.Random(f"fair:{seed}:{width}"), n, m, width)
    oracle = oracle_flow(problem)
    assert check_flow(problem, oracle) is None
    fair = fair_objective(problem, oracle)

    assert fair_objective(problem, decmin_flow(problem)) == fair

    box, _ = narrow_box(problem)
    assert all(
        box.f_star[e] <= z <= box.g_star[e] for e, z in enumerate(oracle)
    )

    cheapest = cheapest_decmin_flow(problem)
    assert fair_objective(problem, cheapest) == fair
    assert total_cost(problem, cheapest) == total_cost(problem, oracle)
