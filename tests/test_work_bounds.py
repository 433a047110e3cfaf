"""The work bounds of the README's scope notes, counted on real runs.

The fair-flow path is strongly polynomial: narrow_box runs at most n - 1
rounds with a chain plus at most one terminal round, and at most |F| in
all, each compute_beta makes at most 2|F| cascade drops and at most |L|
Newton iterations and builds no validated FlowProblem (its drops run
on plain upper lists), and each upper-minimizer run, started from
compute_beta's flow, makes no max flow and at most
(saturated at start - count) + 1 Bellman-Ford searches, as each
canceled circuit lowers the count by at least one.  Drops can pass
|F|: an accepted drop either merges the top upper value into the next
one or makes an edge tight, and each kind can happen up to |F| times.
The counts must not grow with the box width, so the instances here are
all-focus with widths 10^3 and 10^12 on the same graphs: a
pseudo-polynomial regression would run millions of times past the
bounds.

The first cascade drop of each compute_beta starts from the flow it
was given, so its network routes at most the sum over the level edges
of (flow_e - beta1)+ units, not the whole demand of the lower bounds.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from fairflow import Digraph, ExtInt, FlowProblem, decmin, maxflow, mincost, narrow_box, newton
from fairflow.core import imbalances
from fairflow.jsonio import parse_problem


def wide_problem(seed, width):
    """All-focus, finite and feasible; n <= 25, m <= 80; the graph depends on the seed only."""
    rng = random.Random(f"work-bounds:{seed}")
    n = rng.randint(3, 25)
    m = rng.randint(n, 80)
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    # fractions of the width, so both widths share the shape of their boxes
    lower = [int(rng.random() * width) for _ in range(m)]
    upper = [lo + int(rng.random() * width) for lo in lower]
    point = [lo + int(rng.random() * (hi - lo + 1)) for lo, hi in zip(lower, upper)]
    graph = Digraph(n, edges)
    return FlowProblem(
        graph,
        tuple(map(ExtInt, lower)),
        tuple(map(ExtInt, upper)),
        tuple(imbalances(graph, point)),
        frozenset(range(m)),
    )


def counted_narrow_box(monkeypatch, problem):
    """narrow_box's rounds, with (drops, validated problems built, |F|) per
    compute_beta and (max flows, searches, saturated at start, count) per
    upper-minimizer run."""
    drops, built, flows, searches, betas, minimizers = [0], [0], [0], [0], [], []

    def counting(counter, function):
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return function(*args, **kwargs)

        return wrapper

    def measured(counters, record, size, function):
        def wrapper(problem, *args, **kwargs):
            for counter in counters:
                counter[0] = 0
            result = function(problem, *args, **kwargs)
            record.append((*[counter[0] for counter in counters], size(problem)))
            return result

        return wrapper

    def minimizer(problem, level, start):
        flows[0] = searches[0] = 0
        flow, chain, count = solve(problem, level, start)
        saturated = sum(1 for e in level if start[e] == problem.upper[e])
        minimizers.append((flows[0], searches[0], saturated, count))
        return flow, chain, count

    # compute_beta solves each drop through this binding
    monkeypatch.setattr(
        newton, "_feasibility_network", counting(drops, newton._feasibility_network)
    )
    # every validated FlowProblem construction runs this
    monkeypatch.setattr(FlowProblem, "__post_init__", counting(built, FlowProblem.__post_init__))
    monkeypatch.setattr(maxflow._Residual, "max_flow", counting(flows, maxflow._Residual.max_flow))
    # the cycle-canceling engine searches through this binding
    monkeypatch.setattr(mincost, "bellman_ford", counting(searches, mincost.bellman_ford))
    monkeypatch.setattr(
        decmin, "compute_beta",
        measured((drops, built), betas, lambda p: len(p.focus), decmin.compute_beta),
    )
    solve = decmin.solve_upper_minimizer
    monkeypatch.setattr(decmin, "solve_upper_minimizer", minimizer)
    _, rounds = narrow_box(problem)
    return rounds, betas, minimizers


@pytest.mark.parametrize("width", (10**3, 10**12))
def test_work_stays_within_the_stated_bounds(monkeypatch, width):
    total_rounds = total_drops = total_cancels = 0
    for seed in range(18):
        problem = wide_problem(seed, width)
        rounds, betas, minimizers = counted_narrow_box(monkeypatch, problem)
        monkeypatch.undo()
        assert len(rounds) <= min(len(problem.focus), problem.node_count)
        assert sum(1 for rnd in rounds if rnd.chain is not None) <= problem.node_count - 1
        assert sum(1 for rnd in rounds if rnd.chain is None) <= 1
        assert len(betas) == len(rounds) and minimizers
        for drops, built, focus_size in betas:
            assert drops <= 2 * focus_size
            assert built == 0  # the drops run on plain upper lists, not problems
            total_drops += drops
        for rnd in rounds:
            if rnd.nd_trace is not None:
                assert len(rnd.nd_trace.iterations) <= len(rnd.level_set)
        for max_flows, searches, saturated, count in minimizers:
            assert max_flows == 0  # the start is compute_beta's feasible flow
            assert 1 <= searches <= saturated - count + 1
            total_cancels += searches - 1
        total_rounds += len(rounds)
    # the counts are not vacuous: the family runs many rounds, drops and
    # cancellations at either width
    assert total_rounds >= 100 and total_drops > 0 and total_cancels > 0


def ladder_documents(seed):
    """The benchmark's decmin-ladder problem documents for ``seed``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate("decmin-ladder", seed)["documents"]


def test_first_cascade_network_routes_only_the_clamped_excess(monkeypatch):
    """Each compute_beta's first drop network has demand at most the sum over
    its level edges (those whose upper it lowers) of (flow_e - beta1)+."""
    firsts, pending = [], []  # pending: the flow of a call whose first drop is to come
    solve_drop, compute = newton._feasibility_network, decmin.compute_beta

    def first_drop(problem, upper, *args):
        net, base, nodes, deficiency = solve_drop(problem, upper, *args)
        if pending:
            flow, n, m = pending.pop(), problem.node_count, problem.edge_count
            # the sink arcs follow the edges' arcs; their capacities sum to the demand
            demand = sum(net.cap[a] for a in range(2 * m, len(net.cap), 2) if net.head[a] == n + 1)
            excess = sum(
                max(0, flow[e] - h) for e, (h, old) in enumerate(zip(upper, problem._hi)) if h != old
            )
            firsts.append((demand, excess))
        return net, base, nodes, deficiency

    def recording(problem, flow):
        # a call whose focus is all tight makes no drop, so replace, not append
        pending[:] = [flow]
        return compute(problem, flow=flow)

    monkeypatch.setattr(newton, "_feasibility_network", first_drop)
    monkeypatch.setattr(decmin, "compute_beta", recording)
    for document in ladder_documents(0):
        narrow_box(parse_problem(document))
    for demand, excess in firsts:
        assert demand <= excess
    # cold, the same networks route 186.2M units
    assert len(firsts) > 150 and sum(demand for demand, _ in firsts) < 2_000_000
    assert any(demand == 0 for demand, _ in firsts)
