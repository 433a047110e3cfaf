"""Caps and deficiencies at widths beyond the oracles' reach, by scipy's max flow.

The cascade's state after accepted drops down to level t has a closed
form: u(t) = min(g_e, max(t, f_e)) on the round's focus edges, g_e
elsewhere.  So each round's beta must leave the problem feasible under
u(beta) and infeasible under u(beta - 1).  Feasibility is decided by
scipy.sparse.csgraph.maximum_flow on the lower-bound reduction, a max
flow that shares no code with the package; what it leaves unrouted is
the largest Hoffman deficiency.
"""

import random

import pytest

from fairflow import find_feasible_mflow, most_violating_set, narrow_box

from test_warm_start import scale_problem

np = pytest.importorskip("numpy")
sparse = pytest.importorskip("scipy.sparse")
csgraph = pytest.importorskip("scipy.sparse.csgraph")


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
