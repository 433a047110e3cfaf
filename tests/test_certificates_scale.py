"""Fairness certificates beyond the enumeration corpus.

Instances have 60 to 200 edges.  A fair flow must come with a potential
that passes the arc-by-arc check, and an unfair one with circuits, from
both the scalarized search and the potential construction, that improve
its profile when applied.
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
