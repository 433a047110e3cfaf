"""Warm starts change how a cut or a cap is found, never what is found.

Instances have 50 to 400 edges, beyond the brute-force oracle's reach;
the reference is the same call started cold.
"""

import random

import pytest

from fairflow import (
    Digraph,
    ExtInt,
    FlowProblem,
    NEG_INF,
    POS_INF,
    compute_beta,
    decmin_flow,
    min_cost_mflow,
    narrow_box,
    nd_cut_subroutine,
    require_feasible,
)
from fairflow.core import imbalances, replace

SIZES = (50, 100, 200, 400)


def scale_problem(rng, m, focus_share, width, inf_share=0.0, feasible=True):
    """An instance with m edges on m/6 to m/3 nodes.

    feasible=True takes the supplies from a point of the box; otherwise
    they are random.  Non-focus edges get a +inf upper or a -inf lower
    bound with probability inf_share each.
    """
    n = rng.randint(m // 6, m // 3)
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    lower = [rng.randint(-5, 5) for _ in range(m)]
    upper = [lo + rng.randint(0, width) for lo in lower]
    focus = frozenset(e for e in range(m) if rng.random() < focus_share)
    graph = Digraph(n, edges)
    if feasible:
        supply = imbalances(graph, [rng.randint(lower[e], upper[e]) for e in range(m)])
    else:
        supply = [rng.randint(-width, width) for _ in range(n)]
        supply[-1] -= sum(supply)
    lo = [ExtInt(b) for b in lower]
    hi = [ExtInt(b) for b in upper]
    for e in range(m):
        if e not in focus and rng.random() < inf_share:
            hi[e] = POS_INF
        if e not in focus and rng.random() < inf_share:
            lo[e] = NEG_INF
    return FlowProblem(graph, tuple(lo), tuple(hi), tuple(supply), focus)


def random_start(rng, problem, spread):
    """One int per edge, often outside the edge's bounds."""
    start = []
    for lo, hi in zip(problem.lower, problem.upper):
        centre = lo.finite if lo.is_finite else hi.finite if hi.is_finite else 0
        start.append(centre + rng.randint(-spread, spread))
    return start


def test_nd_cut_subroutine_is_start_independent():
    rng = random.Random(811)
    nonempty = 0
    for m in SIZES:
        for feasible in (True, False):
            problem = scale_problem(rng, m, 0.5, 10, inf_share=0.2, feasible=feasible)
            g_prime = [
                hi if not lo.is_finite or rng.random() < 0.5 else lo + rng.randint(0, 4)
                for lo, hi in zip(problem.lower, problem.upper)
            ]
            level = {e for e in range(m) if rng.random() < 0.3}
            for mu in (0, 1, 3):
                cold = nd_cut_subroutine(problem, level, g_prime, mu)
                nonempty += bool(cold[0])
                for spread in (0, 3, 50, 10**6):
                    start = random_start(rng, problem, spread)
                    warm = nd_cut_subroutine(problem, level, g_prime, mu, start=start)
                    assert warm == cold, (m, feasible, mu, spread)
    assert nonempty > 0


def round_states(problem):
    """The problem each reduction round starts from."""
    states = [problem]
    for round_ in narrow_box(problem)[1][:-1]:
        states.append(problem.with_bounds(round_.f_prime, round_.g_prime, round_.focus_next))
    return states


def mu_probes(result):
    """Newton probes past mu = 0: the ones that start warm."""
    iterations = result.nd_trace.iterations if result.nd_trace is not None else ()
    return sum(1 for it in iterations if it.mu > 0)


def test_compute_beta_with_a_flow_matches_the_cold_start():
    rng = random.Random(823)
    probes = 0
    for m in SIZES:
        for focus_share, width in ((0.3, 6), (1.0, 20), (1.0, 100)):
            problem = scale_problem(rng, m, focus_share, width, inf_share=0.1)
            # an infinite bound takes cost 0, so every min-cost query is bounded
            costs = tuple(
                rng.randint(-10, 10) if lo.is_finite and hi.is_finite else 0
                for lo, hi in zip(problem.lower, problem.upper)
            )
            fair = decmin_flow(problem)
            cold = compute_beta(problem)
            probes += mu_probes(cold)
            cheapest = min_cost_mflow(replace(problem, cost=costs))
            for flow in (require_feasible(problem), cheapest, fair):
                assert compute_beta(problem, flow=flow) == cold
            if width == 100 and m <= 100:
                # later rounds of wide boxes probe past mu = 0; a fair flow
                # lies in the narrow box, inside every round's bounds
                for state in round_states(problem)[1:]:
                    cold = compute_beta(state)
                    probes += mu_probes(cold)
                    assert compute_beta(state, flow=fair) == cold
    assert probes > 0


def test_compute_beta_rejects_a_flow_that_is_not_feasible():
    rng = random.Random(829)
    for m in SIZES[:2]:
        problem = scale_problem(rng, m, 1.0, 6)
        flow = list(require_feasible(problem))
        e = rng.randrange(m)
        above = flow[:e] + [problem.upper[e].finite + 1] + flow[e + 1:]
        # one more unit on an edge below its upper bound that is not a
        # loop: the bounds hold, conservation fails at both ends
        e = next(
            e
            for e, (u, v) in enumerate(problem.graph.edges)
            if u != v and flow[e] < problem.upper[e]
        )
        unbalanced = flow[:e] + [flow[e] + 1] + flow[e + 1:]
        for bad, text in (
            (above, "outside"),
            (unbalanced, "net inflow"),
            (flow[:-1], "one value per edge"),
            (flow + [0], "one value per edge"),
        ):
            with pytest.raises(ValueError, match=text) as caught:
                compute_beta(problem, flow=bad)
            assert type(caught.value) is ValueError
