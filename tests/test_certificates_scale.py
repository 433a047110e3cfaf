"""Fairness certificates beyond the enumeration corpus.

Instances have 50 to 400 edges.  A fair flow must come with a potential
that passes the arc-by-arc check, and an unfair one with circuits, from
both the scalarized search and the potential construction, that improve
its profile when applied.  The (O4) window, which pins a cap-level edge
entering two or more chain members at beta, is checked the same way.
"""

import random

from fairflow import (
    Digraph,
    FlowProblem,
    apply_dicircuit,
    build_level_cost,
    check_flow,
    decmin_compare,
    decmin_flow,
    find_improving_dicircuit,
    focus_profile,
    is_decmin,
    min_cost_mflow,
    narrow_box,
    potential_is_feasible,
    require_feasible,
)
from fairflow.core import imbalances

SIZES = (60, 100, 150, 200)


def focused_problem(rng, m, focus_share, max_width):
    """A feasible instance: supplies are the imbalances of a point in the box."""
    n = rng.randint(m // 6, m // 3)
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    lower = [rng.randint(-5, 5) for _ in range(m)]
    upper = [lo + rng.randint(0, max_width) for lo in lower]
    point = [rng.randint(lower[e], upper[e]) for e in range(m)]
    focus = frozenset(e for e in range(m) if rng.random() < focus_share)
    graph = Digraph(n, edges)
    supply = tuple(imbalances(graph, point))
    return FlowProblem(graph, tuple(lower), tuple(upper), supply, focus)


def improves(problem, flow, circuit):
    shifted = apply_dicircuit(flow, circuit)
    return check_flow(problem, shifted) is None and (
        decmin_compare(focus_profile(problem, shifted), focus_profile(problem, flow))
        == -1
    )


def test_certificates_at_scale():
    rng = random.Random(229)
    refuted = 0
    for m in SIZES:
        for focus_share, max_width in ((0.3, 6), (1.0, 20)):
            problem = focused_problem(rng, m, focus_share, max_width)
            fair = decmin_flow(problem)
            verdict = is_decmin(problem, fair)
            assert verdict.decmin
            aux, cost = build_level_cost(problem, fair)
            assert potential_is_feasible(aux, cost, verdict.potential)
            assert find_improving_dicircuit(aux, cost) is None

            start = require_feasible(problem)
            if focus_profile(problem, start) == focus_profile(problem, fair):
                continue
            verdict = is_decmin(problem, start)
            assert not verdict.decmin
            assert improves(problem, start, verdict.circuit)
            circuit = find_improving_dicircuit(*build_level_cost(problem, start))
            assert circuit is not None and improves(problem, start, circuit)
            refuted += 1
    assert refuted >= len(SIZES)


def test_edges_entering_two_chain_members_are_pinned_at_beta():
    """(O4): no fair flow lowers a cap-level edge that enters two or more members."""
    pinned = 0
    for m in (50, 100, 200, 400):
        problem = focused_problem(random.Random(f"O4:{m}"), m, 1.0, 20)
        box, rounds = narrow_box(problem)
        for rnd in rounds:
            if rnd.chain is None:  # a terminal round, where every focus edge turned tight
                continue
            depth = rnd.chain.depth(problem.node_count)
            for e in sorted(rnd.level_set):
                u, v = problem.graph.edges[e]
                if depth[v] - depth[u] < 2:
                    continue
                pinned += 1
                assert rnd.f_prime[e] == rnd.g_prime[e] == rnd.beta
                # the cheapest box flow with a unit price on e holds e as low as the box allows
                price = tuple(int(d == e) for d in range(m))
                boxed = FlowProblem(
                    problem.graph, box.f_star, box.g_star, problem.supply, problem.focus, price
                )
                assert is_decmin(problem, min_cost_mflow(boxed)).decmin
    assert pinned >= 1
