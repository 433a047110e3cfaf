"""Warm starts change how a cap is found, never what is found.

Instances have 50 to 400 edges, beyond the brute-force oracle's reach;
the reference is the same call started cold.  A flow given to
compute_beta starts its first cascade drop, so the result from every
given flow is compared with the call without one.  compute_beta's
Newton probes continue one network, so each is compared with a cold
nd_cut_subroutine call.  The upper-minimizer's starts are checked in
tests/test_upper_min.py.
"""

import random

import pytest

from fairflow import (
    Digraph,
    ExtInt,
    FlowProblem,
    NDIteration,
    NEG_INF,
    POS_INF,
    apply_dicircuit,
    build_costed_residual,
    check_flow,
    compute_beta,
    decmin,
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


def moved(rng, problem, flow, circuits=3):
    """flow moved one unit around each of up to ``circuits`` random residual
    circuits; every move keeps the flow feasible."""
    for _ in range(circuits):
        arcs = build_costed_residual(problem, flow).arcs
        out = [[] for _ in range(problem.node_count)]
        for arc in arcs:
            out[arc.tail].append(arc)
        # a random walk until it closes a circuit or meets a dead end
        u = rng.randrange(problem.node_count)
        seen, walk = {u: 0}, []
        while out[u]:
            arc = rng.choice(out[u])
            walk.append(arc)
            u = arc.head
            if u in seen:
                flow = apply_dicircuit(flow, walk[seen[u]:])
                break
            seen[u] = len(walk)
    return flow


def assert_same_result(problem, cold, flow):
    """compute_beta from ``flow`` equals the cold call, and its flow is
    feasible under the clamped bounds."""
    assert check_flow(problem, flow) is None
    result = compute_beta(problem, flow=flow)
    assert result == cold
    assert check_flow(problem.with_bounds(upper=result.clamped_upper), result.flow) is None


def test_compute_beta_with_a_flow_matches_the_cold_start(monkeypatch):
    rng = random.Random(823)
    # a second generator for the moves leaves the instances as they were
    moves = random.Random(827)
    probes = starts = 0
    for m in SIZES:
        for focus_share, width in ((0.3, 6), (1.0, 20), (1.0, 100)):
            problem = scale_problem(rng, m, focus_share, width, inf_share=0.1)
            # an infinite bound takes cost 0, so every min-cost query is bounded
            costs = tuple(
                rng.randint(-10, 10) if lo.is_finite and hi.is_finite else 0
                for lo, hi in zip(problem.lower, problem.upper)
            )
            # record the flow narrow_box passes each round: the input's,
            # then the last round's upper-minimizer flow
            passed = []

            def recording(state, flow):
                passed.append((state, flow))
                return compute_beta(state, flow=flow)

            monkeypatch.setattr(decmin, "compute_beta", recording)
            fair = decmin_flow(problem)
            monkeypatch.undo()
            cold = compute_beta(problem)
            probes += mu_probes(cold)
            cheapest = min_cost_mflow(replace(problem, cost=costs))
            flows = [require_feasible(problem), cheapest, fair]
            for flow in flows + [moved(moves, problem, flow) for flow in flows]:
                assert_same_result(problem, cold, flow)
                starts += 1
            if m > 200:
                continue  # the 400-edge rounds would double the test's time
            for state, flow in passed:
                cold = compute_beta(state)
                probes += mu_probes(cold)
                for start in (flow, moved(moves, state, flow)):
                    assert_same_result(state, cold, start)
                    starts += 1
            if width == 100 and m <= 100:
                # later rounds of wide boxes probe past mu = 0; a fair flow
                # lies in the narrow box, inside every round's bounds
                for state in round_states(problem)[1:]:
                    cold = compute_beta(state)
                    probes += mu_probes(cold)
                    assert compute_beta(state, flow=fair) == cold
    assert probes > 0 and starts > 250


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


def cold_iteration(problem, result, mu):
    """The NDIteration a cold probe at mu gives, on the failed drop's bounds:
    the cap's level edges at beta - mu_min, every other edge at its clamped upper."""
    level = result.saturated_level_set
    cap = ExtInt(result.beta - result.nd_trace.mu_min)
    g_prime = [cap if e in level else u for e, u in enumerate(result.clamped_upper)]
    nodes, value = nd_cut_subroutine(problem, level, g_prime, mu)
    ends = [problem.graph.edges[e] for e in level]
    b = sum(1 for u, v in ends if v in nodes and u not in nodes)
    return NDIteration(mu, nodes, mu * b - value, b)


def test_newton_probes_match_cold_probes_and_leave_a_feasible_flow():
    rng = random.Random(839)
    probes = terminal = 0
    for m in SIZES:
        for focus_share, width in ((0.3, 6), (1.0, 20), (1.0, 100)):
            problem = scale_problem(rng, m, focus_share, width, inf_share=0.1)
            states = round_states(problem) if m <= 200 else [problem]
            for state in states:
                result = compute_beta(state)
                clamped = state.with_bounds(upper=result.clamped_upper)
                assert check_flow(clamped, result.flow) is None
                if result.beta is None:
                    terminal += 1
                    continue
                trace = result.nd_trace
                for it in trace.iterations:
                    assert cold_iteration(state, result, it.mu) == it
                    probes += it.mu > 0
                # the last probe, at mu_min, finds no deficiency
                last = cold_iteration(state, result, trace.mu_min)
                assert last.p_value <= last.mu * last.b_value
    assert probes > 0 and terminal > 0
