"""Min-cost flows and negative-cycle searches checked against networkx.

networkx is a test-only dependency: the module is skipped without it.
Min-cost instances have 50 to 400 edges, costs in [-10, 10] and boxes
up to 1000 wide; the negative-cycle searches run on multigraphs with 20
to 100 nodes and up to 400 arcs.  A wide-box family of five-node gadgets
makes first-found canceling run one search per unit of width; it is
checked at widths up to 100.
"""

import random

import pytest

from fairflow import (
    POS_INF,
    CostedResidual,
    Digraph,
    ExtInt,
    FlowProblem,
    ResidualArc,
    build_costed_residual,
    check_flow,
    find_negative_dicircuit,
    min_cost_mflow,
    residual_potentials,
)
from fairflow import mincost
from fairflow.core import imbalances

nx = pytest.importorskip("networkx")

SIZES = (50, 100, 200, 400)


def costed_problem(rng, n, m, max_width, inf_share):
    """A feasible costed instance: supplies are the imbalances of a point in the box.

    Edges with a nonnegative cost get a +inf upper bound with
    probability inf_share, so the minimum stays bounded.
    """
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    cost = [rng.randint(-10, 10) for _ in range(m)]
    lower = [rng.randint(-50, 50) for _ in range(m)]
    upper = [lo + rng.randint(0, max_width) for lo in lower]
    point = [rng.randint(lower[e], upper[e]) for e in range(m)]
    hi = [
        POS_INF if cost[e] >= 0 and rng.random() < inf_share else ExtInt(upper[e])
        for e in range(m)
    ]
    graph = Digraph(n, edges)
    supply = tuple(imbalances(graph, point))
    return FlowProblem(graph, tuple(lower), tuple(hi), supply, frozenset(), tuple(cost))


def networkx_min_cost(problem):
    """Optimal cost by network simplex, after shifting every lower bound to 0.

    Self-loops carry no flow across nodes, so they are priced directly:
    at their upper bound when the cost is negative, else at their lower.
    """
    graph = nx.MultiDiGraph()
    demand = list(problem.supply)
    total = 0
    for e, (u, v) in enumerate(problem.graph.edges):
        lo, hi, c = problem.lower[e].finite, problem.upper[e], problem.cost[e]
        total += c * lo
        if u == v:
            if c < 0:
                total += c * (hi.finite - lo)
            continue
        demand[v] -= lo
        demand[u] += lo
        attrs = {"weight": c}
        if hi.is_finite:
            attrs["capacity"] = hi.finite - lo
        graph.add_edge(u, v, **attrs)
    for v in range(problem.node_count):
        graph.add_node(v, demand=demand[v])
    cost, _ = nx.network_simplex(graph)
    return total + cost


def total_cost(problem, values):
    return sum(c * z for c, z in zip(problem.cost, values))


def collapsed(n, arcs):
    """networkx digraph of (tail, head, weight) arcs, parallel arcs at their minimum."""
    graph = nx.DiGraph()
    graph.add_nodes_from(range(n))
    for tail, head, weight in arcs:
        if not graph.has_edge(tail, head) or weight < graph[tail][head]["weight"]:
            graph.add_edge(tail, head, weight=weight)
    return graph


def test_min_cost_matches_network_simplex():
    rng = random.Random(211)
    for m in SIZES:
        for max_width, inf_share in ((20, 0.0), (1000, 0.0), (1000, 0.2)):
            n = rng.randint(m // 8, m // 3)
            problem = costed_problem(rng, n, m, max_width, inf_share)
            flow = min_cost_mflow(problem)
            assert check_flow(problem, flow) is None
            assert total_cost(problem, flow) == networkx_min_cost(problem)


def wide_box_family(rng, width, copies=3):
    """Disjoint gadgets on which first-found canceling moves one unit per circuit.

    Each gadget sends width units from s to t.  The start flow takes the
    two-arc route s->c->t (cost p + q), which Dinic's first phase finds
    before the three-arc route s->a->b->t (cost r) or any route through
    the unit-wide bridge b->c (cost w).  Costs are drawn with
    w < p and r < w + q, and q >= 1.  Then both circuits through the
    bridge are negative: A = s->a->b->c->s (w - p), and
    B = c->b->t->c (r - w - q).  Bellman-Ford meets A or B before the
    direct circuit s->a->b->t->c->s (r - q - p), which would move every
    unit at once.  A and B alternate, one unit each, so the searches
    number 2 * copies * width + 1.
    """
    edges, upper, cost, supply = [], [], [], []
    for k in range(copies):
        s, a, b, t, c = range(5 * k, 5 * k + 5)
        p, q = rng.randint(1, 9), rng.randint(1, 9)
        w = rng.randint(0, p - 1)
        r = rng.randint(0, w + q - 1)
        edges += [(b, c), (c, t), (s, c), (b, t), (s, a), (a, b)]
        upper += [1] + [width] * 5
        cost += [w, q, p, r, 0, 0]
        supply += [-width, 0, 0, width, 0]
    return FlowProblem(
        Digraph(5 * copies, tuple(edges)),
        (ExtInt(0),) * len(edges),
        tuple(ExtInt(b) for b in upper),
        tuple(supply),
        frozenset(),
        tuple(cost),
    )


def negative_cycle_searches(problem):
    """min_cost_mflow's flow and the number of negative-circuit searches it ran.

    Each search is one call of the Bellman-Ford that mincost imports.
    """
    calls = []
    search = mincost.bellman_ford

    def counted(*args):
        calls.append(None)
        return search(*args)

    mincost.bellman_ford = counted
    try:
        return min_cost_mflow(problem), len(calls)
    finally:
        mincost.bellman_ford = search


@pytest.mark.parametrize("width", (1, 10, 100))
@pytest.mark.parametrize("seed", range(3))
def test_wide_box_family_matches_network_simplex(seed, width):
    problem = wide_box_family(random.Random(f"wide:{seed}"), width)
    flow, searches = negative_cycle_searches(problem)
    assert check_flow(problem, flow) is None
    assert total_cost(problem, flow) == networkx_min_cost(problem)
    # first-found canceling reaches this bound; a better rule may only go below it,
    # but every run ends with one search that finds no circuit
    assert 1 <= searches <= 2 * 3 * width + 1


def test_optimal_potentials_match_networkx_distances():
    # residual_potentials are shortest distances from a zero-weight root
    rng = random.Random(223)
    for m in SIZES:
        n = rng.randint(m // 8, m // 3)
        problem = costed_problem(rng, n, m, 1000, 0.1)
        flow = min_cost_mflow(problem)
        residual = build_costed_residual(problem, flow)
        reference = collapsed(
            n, [(a.tail, a.head, a.cost) for a in residual.arcs if a.tail != a.head]
        )
        root = n
        reference.add_edges_from((root, v, {"weight": 0}) for v in range(n))
        dist = nx.single_source_bellman_ford_path_length(reference, root)
        assert residual_potentials(residual) == [dist[v] for v in range(n)]


def test_negative_cycle_verdicts_match_networkx():
    rng = random.Random(227)
    verdicts = set()
    for _ in range(60):
        n = rng.randint(20, 100)
        m = rng.randint(n, 400)
        # weights in [-10, 10] shifted by the bias; 8 gives both verdicts evenly
        bias = rng.choice((0, 7, 8, 9))
        arcs = tuple(
            ResidualArc(
                rng.randrange(n), rng.randrange(n), 1, rng.randint(-10, 10) + bias, i, True
            )
            for i in range(m)
        )
        cycle = find_negative_dicircuit(CostedResidual(n, arcs))
        expected = nx.negative_edge_cycle(
            collapsed(n, [(a.tail, a.head, a.cost) for a in arcs])
        )
        assert (cycle is not None) == expected
        verdicts.add(expected)
        if cycle is not None:
            assert sum(a.cost for a in cycle) < 0
            for first, second in zip(cycle, cycle[1:] + cycle[:1]):
                assert first.head == second.tail
            assert len({a.tail for a in cycle}) == len(cycle)
    assert verdicts == {True, False}
