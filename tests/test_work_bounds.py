"""The work bounds of the README's scope notes, counted on real runs.

The fair-flow path is strongly polynomial: narrow_box runs at most n - 1
rounds with a chain plus at most one terminal round, and at most |F| in
all, each compute_beta makes at most 2|F| cascade drops and at most |L|
Newton iterations, and each upper-minimizer run takes at most n
primal-dual phases, one max flow each.  Drops can pass |F|: an accepted
drop either merges the top upper value into the next one or makes an
edge tight, and each kind can happen up to |F| times.  The counts must
not grow with the box width, so the instances here are all-focus with
widths 10^3 and 10^12 on the same graphs: a pseudo-polynomial
regression would run millions of times past the bounds.
"""

import random

import pytest

from fairflow import Digraph, ExtInt, FlowProblem, decmin, maxflow, narrow_box, newton
from fairflow.core import imbalances


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
    """narrow_box's rounds, with (drops, |F|) per compute_beta and
    (max flows, n) per upper-minimizer run."""
    drops, phases, betas, minimizers = [0], [0], [], []

    def counting(counter, function):
        def wrapper(*args, **kwargs):
            counter[0] += 1
            return function(*args, **kwargs)

        return wrapper

    def measured(counter, record, size, function):
        def wrapper(problem, *args, **kwargs):
            counter[0] = 0
            result = function(problem, *args, **kwargs)
            record.append((counter[0], size(problem)))
            return result

        return wrapper

    # compute_beta solves each drop through this binding
    monkeypatch.setattr(
        newton, "_feasibility_network", counting(drops, newton._feasibility_network)
    )
    monkeypatch.setattr(maxflow._Residual, "max_flow", counting(phases, maxflow._Residual.max_flow))
    monkeypatch.setattr(
        decmin, "compute_beta",
        measured(drops, betas, lambda p: len(p.focus), decmin.compute_beta),
    )
    monkeypatch.setattr(
        decmin, "solve_upper_minimizer",
        measured(phases, minimizers, lambda p: p.node_count, decmin.solve_upper_minimizer),
    )
    _, rounds = narrow_box(problem)
    return rounds, betas, minimizers


@pytest.mark.parametrize("width", (10**3, 10**12))
def test_work_stays_within_the_stated_bounds(monkeypatch, width):
    total_rounds = total_drops = 0
    for seed in range(18):
        problem = wide_problem(seed, width)
        rounds, betas, minimizers = counted_narrow_box(monkeypatch, problem)
        monkeypatch.undo()
        assert len(rounds) <= min(len(problem.focus), problem.node_count)
        assert sum(1 for rnd in rounds if rnd.chain is not None) <= problem.node_count - 1
        assert sum(1 for rnd in rounds if rnd.chain is None) <= 1
        assert len(betas) == len(rounds) and minimizers
        for drops, focus_size in betas:
            assert drops <= 2 * focus_size
            total_drops += drops
        for rnd in rounds:
            if rnd.nd_trace is not None:
                assert len(rnd.nd_trace.iterations) <= len(rnd.level_set)
        for max_flows, n in minimizers:
            assert 1 <= max_flows <= n
        total_rounds += len(rounds)
    # the counts are not vacuous: the family runs many rounds and drops at either width
    assert total_rounds >= 100 and total_drops > 0
