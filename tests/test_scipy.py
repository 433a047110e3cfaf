"""Caps, deficiencies and cheapest costs beyond the oracles' reach, by scipy.

The cascade's state after accepted drops down to level t has a closed
form: u(t) = min(g_e, max(t, f_e)) on the round's focus edges, g_e
elsewhere.  So each round's beta must leave the problem feasible under
u(beta) and infeasible under u(beta - 1).  Feasibility is decided by
scipy.sparse.csgraph.maximum_flow on the lower-bound reduction, a max
flow that shares no code with the package; what it leaves unrouted is
the largest Hoffman deficiency.  The cheapest fair flow's cost is the
optimum of the linear program over the narrow box, and each round's
saturated count the optimum of the upper-minimizer's extended 0/1
program over the round's clamped bounds, both solved by HiGHS.
"""

import random

import pytest

from fairflow import (
    cheapest_decmin_flow,
    decmin,
    decmin_flow,
    find_feasible_mflow,
    most_violating_set,
    narrow_box,
)
from fairflow.core import replace

from test_warm_start import scale_problem

np = pytest.importorskip("numpy")
sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")
optimize = pytest.importorskip("scipy.optimize")


def shortfall(problem, upper):
    """The demand scipy's max flow leaves unrouted under the lower bounds and ``upper``.

    Lower-bound reduction: x = lower + y with 0 <= y <= upper - lower,
    and each node v still needs net inflow need(v) = supply(v) - in_lower(v)
    + out_lower(v) of y.  A super-source feeds the nodes with need < 0, the
    nodes with need > 0 feed a super-sink, and a flow is feasible exactly
    when the max flow meets every need: when the shortfall is 0.
    """
    n = problem.node_count
    need = list(problem.supply)
    tails, heads, caps = [], [], []
    for (u, v), lo, hi in zip(problem.graph.edges, problem.lower, upper):
        need[v] -= lo.finite
        need[u] += lo.finite
        if u != v and hi > lo:  # a loop never changes a node's need
            tails.append(u)
            heads.append(v)
            caps.append((hi - lo).finite)
    for v, r in enumerate(need):
        if r:
            tails.append(v if r > 0 else n)
            heads.append(n + 1 if r > 0 else v)
            caps.append(abs(r))
    if sum(caps) >= 2**31:  # so that parallel arcs, which csr_matrix sums, fit too
        raise ValueError("capacities must fit scipy's int32")
    graph = sparse.csr_matrix(
        (np.array(caps, dtype=np.int32), (tails, heads)), shape=(n + 2, n + 2)
    )
    value = csgraph.maximum_flow(graph, n, n + 1, method="dinic").flow_value
    return sum(r for r in need if r > 0) - value


def capped(problem, t):
    """u(t): min(g_e, max(t, f_e)) on the focus edges, g_e elsewhere."""
    return [
        min(hi, max(lo, t)) if e in problem.focus else hi
        for e, (lo, hi) in enumerate(zip(problem.lower, problem.upper))
    ]


def test_shortfall_is_the_largest_deficiency():
    rng = random.Random(857)
    verdicts = set()
    for feasible in (True, False):
        for _ in range(4):
            problem = scale_problem(rng, 100, 0.5, 10**5, feasible=feasible)
            missing = shortfall(problem, problem.upper)
            assert missing == most_violating_set(problem).deficiency
            verdict = isinstance(find_feasible_mflow(problem), tuple)  # a flow, not a cut
            assert (missing == 0) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_every_round_cap_is_minimal_at_width_1e5():
    rng = random.Random(853)
    checked = 0
    for m in (100, 200):
        problem = scale_problem(rng, m, 1.0, 10**5)
        state = problem  # finite bounds: narrow_box starts from the problem itself
        for rnd in narrow_box(problem)[1]:
            if rnd.beta is not None:
                assert shortfall(state, capped(state, rnd.beta)) == 0
                assert shortfall(state, capped(state, rnd.beta - 1)) > 0
                checked += 1
            state = state.with_bounds(rnd.f_prime, rnd.g_prime, rnd.focus_next)
    assert checked >= 60


def box_optimum(problem, box):
    """HiGHS's optimum of cost . x over the flows of the box, or None.

    Conservation in - out = supply per node, f* <= x <= g*: the matrix
    is a network matrix, so the optimum is attained at an integral flow.
    None unless HiGHS reports an optimum (status 0).
    """
    n, m = problem.node_count, problem.edge_count
    rows, cols, signs = [], [], []
    for e, (u, v) in enumerate(problem.graph.edges):
        rows += [v, u]
        cols += [e, e]
        signs += [1, -1]  # a loop's two entries sum to 0
    matrix = sparse.csr_matrix((signs, (rows, cols)), shape=(n, m))
    bounds = [(lo.finite, hi.finite) for lo, hi in zip(box.f_star, box.g_star)]
    result = optimize.linprog(
        problem.cost, A_eq=matrix, b_eq=problem.supply, bounds=bounds, method="highs"
    )
    return result.fun if result.status == 0 else None


def test_cheapest_fair_cost_is_the_box_optimum_at_width_1000():
    rng = random.Random(859)
    checked = undercut = 0
    for m in (200, 200, 300, 300):
        problem = scale_problem(rng, m, 0.05, 1000)
        problem = replace(problem, cost=tuple(rng.randint(-10, 10) for _ in range(m)))
        box, _ = narrow_box(problem)
        optimum = box_optimum(problem, box)
        cost = sum(c * x for c, x in zip(problem.cost, cheapest_decmin_flow(problem)))
        if optimum is None or abs(cost) >= 2**53:
            continue
        assert round(optimum) == cost
        checked += 1
        # the check is not vacuous: a fair flow that ignores the costs is dearer
        undercut += sum(c * x for c, x in zip(problem.cost, decmin_flow(problem))) > cost
    assert checked == 4 and undercut > 0


def fewest_saturated(problem, level):
    """HiGHS's optimum of the upper-minimizer's extended program, or None.

    The edges, with upper - 1 on the level edges, then a [0, 1] copy of
    each level edge costing one, everything else zero; conservation
    in - out = supply per node.  The matrix is a network matrix, so the
    optimum, the fewest level edges at their upper bound, is integral.
    None unless HiGHS reports an optimum (status 0).
    """
    n, copied = problem.node_count, sorted(level)
    ends = problem.graph.edges + tuple(problem.graph.edges[e] for e in copied)
    rows, cols, signs = [], [], []
    for j, (u, v) in enumerate(ends):
        rows += [v, u]
        cols += [j, j]
        signs += [1, -1]
    matrix = sparse.csr_matrix((signs, (rows, cols)), shape=(n, len(ends)))
    bounds = [
        (lo.finite, hi.finite - (e in level))
        for e, (lo, hi) in enumerate(zip(problem.lower, problem.upper))
    ] + [(0, 1)] * len(copied)
    cost = [0] * problem.edge_count + [1] * len(copied)
    result = optimize.linprog(
        cost, A_eq=matrix, b_eq=problem.supply, bounds=bounds, method="highs"
    )
    return result.fun if result.status == 0 else None


def test_every_round_count_is_the_extended_optimum_at_width_1e5(monkeypatch):
    rng = random.Random(863)
    problem = scale_problem(rng, 200, 1.0, 10**5)
    calls, solve = [], decmin.solve_upper_minimizer

    def recorded(state, level, start):
        flow, chain, count = solve(state, level, start)
        saturated = sum(1 for e in level if start[e] == state.upper[e])
        calls.append((state, level, count, saturated))
        return flow, chain, count

    monkeypatch.setattr(decmin, "solve_upper_minimizer", recorded)
    narrow_box(problem)
    checked = canceled = 0
    for state, level, count, saturated in calls:
        optimum = fewest_saturated(state, level)
        if optimum is None:
            continue
        assert round(optimum) == count
        checked += 1
        # the check is not vacuous: the round's start saturates more than the count
        canceled += saturated > count
    assert checked == len(calls) >= 30 and canceled > 0
