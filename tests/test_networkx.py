"""Differential and metamorphic checks beyond the oracle's 10-edge cap.

networkx is a test-only dependency: the module is skipped without it.
Instances have 50 to 1000 edges, so they exercise the max-flow engine,
its finite stand-in for +inf and the reduction loop at sizes the
enumeration oracle cannot reach.
"""

import random

import pytest

from fairflow import (
    POS_INF,
    CutCertificate,
    Digraph,
    ExtInt,
    FlowProblem,
    NEG_INF,
    check_flow,
    compute_beta,
    decmin_flow,
    exists_decmin,
    find_feasible_mflow,
    focus_profile,
    hoffman_deficiency,
    incmax_flow,
    max_flow,
    most_violating_set,
    narrow_box,
    solve_upper_minimizer,
)
from fairflow.core import imbalances

nx = pytest.importorskip("networkx")

SIZES = (50, 100, 200, 400)


def random_edges(rng, n, m):
    return tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))


def random_problem(rng, n, m, focus_share, inf_share, width=6):
    """A feasible instance: supplies are the imbalances of a point in the box.

    Boxes are up to width wide.  Non-focus edges get a +inf upper or a
    -inf lower bound with probability inf_share each.
    """
    edges = random_edges(rng, n, m)
    lower = [rng.randint(-3, 3) for _ in range(m)]
    upper = [lo + rng.randint(0, width) for lo in lower]
    point = [rng.randint(lower[e], upper[e]) for e in range(m)]
    focus = frozenset(e for e in range(m) if rng.random() < focus_share)
    lo = [ExtInt(b) for b in lower]
    hi = [ExtInt(b) for b in upper]
    for e in range(m):
        if e not in focus and rng.random() < inf_share:
            hi[e] = POS_INF
        if e not in focus and rng.random() < inf_share:
            lo[e] = NEG_INF
    graph = Digraph(n, edges)
    supply = tuple(imbalances(graph, point))
    return FlowProblem(graph, tuple(lo), tuple(hi), supply, focus)


# -- (a) max flow value and min cut ------------------------------------------


def layered_edges(rng, layers, width):
    """Unit-capacity layers between source 0 and sink n - 1.

    Each node has one arc into the next layer, two inside its layer, one
    back into the layer before and one into a leaf (a node without
    out-arcs).  Forward arcs collide, so the flow has to detour sideways
    and backwards on ever longer paths, phase after phase, and the leaves
    are dead ends in every level graph.
    """
    layer = [[1 + k * width + i for i in range(width)] for k in range(layers)]
    leaves = [1 + layers * width + i for i in range(width)]
    sink = leaves[-1] + 1
    edges = [(0, v) for v in layer[0]] + [(u, sink) for u in layer[-1]]
    for k in range(layers):
        for u in layer[k]:
            if k + 1 < layers:
                edges.append((u, rng.choice(layer[k + 1])))
            edges += [(u, rng.choice(layer[k])), (u, rng.choice(layer[k]))]
            if k:
                edges.append((u, rng.choice(layer[k - 1])))
            edges.append((u, rng.choice(leaves)))
    return sink + 1, tuple(edges)


def max_flow_cases(rng):
    """(n, edges, capacities): random graphs with +inf capacities, layered
    unit graphs, and graphs made of parallel and antiparallel arc bundles."""
    for m in SIZES:
        for inf_share in (0.0, 0.1, 0.4):
            n = rng.randint(m // 8, m // 3)
            edges = random_edges(rng, n, m)
            caps = [
                POS_INF if rng.random() < inf_share else rng.randint(0, 20)
                for _ in range(m)
            ]
            yield n, edges, caps
    for layers, width in ((4, 6), (8, 5), (12, 8), (20, 10)):
        n, edges = layered_edges(rng, layers, width)
        yield n, edges, [1] * len(edges)
    for n, pairs in ((12, 30), (30, 100), (60, 150)):
        edges = []
        for u, v in random_edges(rng, n, pairs):
            edges += [(u, v), (v, u)] + [(u, v)] * rng.randint(0, 2)
        caps = [
            POS_INF if rng.random() < 0.05 else rng.randint(0, 6) for _ in edges
        ]
        yield n, tuple(edges), caps


def residual_reach(reference, flow, source):
    """Nodes reachable from source in the residual of a networkx flow."""
    reach, stack = {source}, [source]
    while stack:
        u = stack.pop()
        forward = (
            v for v, data in reference.succ[u].items()
            if flow[u][v] < data.get("capacity", float("inf"))
        )
        backward = (v for v in reference.pred[u] if flow[v][u] > 0)
        for v in (*forward, *backward):
            if v not in reach:
                reach.add(v)
                stack.append(v)
    return reach


def test_max_flow_matches_networkx():
    rng = random.Random(101)
    outcomes = set()
    for n, edges, caps in max_flow_cases(rng):
        m = len(edges)
        reference = nx.DiGraph()
        reference.add_nodes_from(range(n))
        for (u, v), cap in zip(edges, caps):
            if u == v:
                continue
            if not reference.has_edge(u, v):
                reference.add_edge(u, v, capacity=0)
            data = reference.edges[u, v]
            if cap == POS_INF or "capacity" not in data:
                data.pop("capacity", None)  # networkx: no capacity is +inf
            else:
                data["capacity"] += cap
        value, flow, cut = max_flow(Digraph(n, edges), caps, 0, n - 1)
        try:
            expected, expected_flow = nx.maximum_flow(reference, 0, n - 1)
        except nx.NetworkXUnbounded:
            outcomes.add("unbounded")
            assert value == POS_INF
            assert n - 1 in cut
            assert flow == (0,) * m
            continue
        outcomes.add("bounded")
        assert value == expected
        assert 0 in cut and n - 1 not in cut
        crossing = [
            caps[e] for e, (u, v) in enumerate(edges) if u in cut and v not in cut
        ]
        assert POS_INF not in crossing
        assert sum(crossing) == value
        # the smallest source side of a minimum cut, which any max flow's
        # residual reaches
        assert cut == residual_reach(reference, expected_flow, 0)
        assert all(0 <= flow[e] <= caps[e] for e in range(m))
        net = imbalances(Digraph(n, edges), flow)
        assert net[n - 1] == value and net[0] == -value
        assert all(net[v] == 0 for v in range(1, n - 1))
    assert outcomes == {"bounded", "unbounded"}


# -- (b) feasibility verdicts --------------------------------------------------


def shifted_network(problem, level=frozenset()):
    """The problem as a networkx graph with node demands, bounds shifted to 0.

    An edge with a finite lower bound l carries l + y with 0 <= y <=
    upper - l; one with lower -inf and a finite upper u carries u - y on
    the reversed edge; one with both bounds infinite becomes two
    uncapacitated opposite edges.  Missing capacity means +inf.  A level
    edge instead carries l + y + x, with 0 <= y <= upper - 1 - l at
    weight 0 and a parallel unit arc x at weight 1, so a min-cost flow
    costs the fewest saturated level edges.  Self-loops are left out.
    """
    reference = nx.MultiDiGraph()
    demand = list(problem.supply)

    def fix(u, v, amount):
        demand[v] -= amount
        demand[u] += amount

    for e, (u, v) in enumerate(problem.graph.edges):
        lo, hi = problem.lower[e], problem.upper[e]
        if u == v:
            continue
        if e in level:
            fix(u, v, lo.finite)
            reference.add_edge(u, v, capacity=hi.finite - 1 - lo.finite, weight=0)
            reference.add_edge(u, v, capacity=1, weight=1)
        elif lo.is_finite and hi.is_finite:
            fix(u, v, lo.finite)
            reference.add_edge(u, v, capacity=hi.finite - lo.finite)
        elif lo.is_finite:
            fix(u, v, lo.finite)
            reference.add_edge(u, v)
        elif hi.is_finite:
            fix(u, v, hi.finite)
            reference.add_edge(v, u)
        else:
            reference.add_edge(u, v)
            reference.add_edge(v, u)
    for node, d in enumerate(demand):
        reference.add_node(node, demand=d)
    return reference


def networkx_feasible(problem):
    """Feasibility by networkx min-cost flow on the shifted network."""
    try:
        nx.network_simplex(shifted_network(problem))
    except nx.NetworkXUnfeasible:
        return False
    return True


def test_feasibility_verdict_matches_networkx():
    rng = random.Random(202)
    verdicts = set()
    for m in SIZES:
        for inf_share, heavy in ((0, 0), (0.1, 0), (0.3, 0), (0.5, 0), (0.1, 10**4)):
            n = rng.randint(m // 8, m // 3)
            problem = random_problem(rng, n, m, 0.5, inf_share)
            upper = list(problem.upper)
            supply = list(problem.supply)
            if heavy:
                # one unbounded edge must carry nearly all of the demand
                e = next(e for e, (u, v) in enumerate(problem.graph.edges) if u != v)
                u, v = problem.graph.edges[e]
                upper[e] = POS_INF
                supply[u] -= heavy
                supply[v] += heavy
            if rng.random() < 0.6:
                a, b = rng.sample(range(n), 2)
                shift = rng.randint(1, 60)
                supply[a] -= shift
                supply[b] += shift
            problem = FlowProblem(
                problem.graph, problem.lower, tuple(upper), tuple(supply)
            )
            outcome = find_feasible_mflow(problem)
            feasible = not isinstance(outcome, CutCertificate)
            verdicts.add(feasible)
            assert feasible == networkx_feasible(problem)
            if feasible:
                assert check_flow(problem, outcome) is None
            else:
                assert outcome.deficiency > 0
                assert hoffman_deficiency(problem, outcome.nodes) == outcome.deficiency
    assert verdicts == {True, False}


def test_hoffman_deficiency_matches_networkx_min_cut():
    # the largest deficiency is D minus the minimum cut of the network
    # with super terminals fed by the excesses of a point of the bounds
    rng = random.Random(212)
    positive = 0
    for m in SIZES:
        for inf_share in (0.0, 0.1, 0.3):
            n = rng.randint(m // 8, m // 3)
            problem = random_problem(rng, n, m, 0.5, inf_share)
            supply = list(problem.supply)
            a, b = rng.sample(range(n), 2)
            shift = rng.choice((0, rng.randint(1, 60)))
            supply[a] -= shift
            supply[b] += shift
            problem = FlowProblem(problem.graph, problem.lower, problem.upper, tuple(supply))
            reference = nx.DiGraph()
            reference.add_nodes_from(("s", "t", *range(n)))

            def add(u, v, cap):  # None is +inf; parallel capacities add up
                if not reference.has_edge(u, v):
                    reference.add_edge(u, v, capacity=0)
                data = reference.edges[u, v]
                if cap is None or "capacity" not in data:
                    data.pop("capacity", None)
                else:
                    data["capacity"] += cap

            excess = list(supply)
            for e, (u, v) in enumerate(problem.graph.edges):
                lo, hi = problem.lower[e], problem.upper[e]
                point = min(max(ExtInt(0), lo), hi).finite  # 0 clamped into the bounds
                excess[v] -= point
                excess[u] += point
                if u != v:
                    add(u, v, (hi - point).finite if hi.is_finite else None)
                    add(v, u, (point - lo).finite if lo.is_finite else None)
            demand = sum(r for r in excess if r > 0)
            for v, r in enumerate(excess):
                if r > 0:
                    add(v, "t", r)
                elif r < 0:
                    add("s", v, -r)
            cut, _ = nx.minimum_cut(reference, "s", "t")
            certificate = most_violating_set(problem)
            assert certificate.deficiency == demand - cut
            assert hoffman_deficiency(problem, certificate.nodes) == certificate.deficiency
            positive += certificate.deficiency > 0
    assert 0 < positive < 3 * len(SIZES)


def test_upper_minimizer_count_matches_network_simplex():
    rng = random.Random(606)
    counts = []
    for m in SIZES:
        for focus_share, inf_share in ((0.5, 0.0), (1.0, 0.1), (0.5, 0.3)):
            n = rng.randint(m // 8, m // 3)
            problem = random_problem(rng, n, m, focus_share, inf_share)
            # the cap of a reduction round leaves saturated level edges to count
            beta = compute_beta(problem)
            problem = problem.with_bounds(upper=beta.clamped_upper)
            for level in (beta.saturated_level_set, problem.focus - set(beta.removed_tight_edges)):
                _, _, count = solve_upper_minimizer(problem, level)
                cost, _ = nx.network_simplex(shifted_network(problem, level))
                assert count == cost
                counts.append(count)
    assert min(counts) == 0 < max(counts)


# -- (c) metamorphic invariances ----------------------------------------------


def permuted(problem, order):
    """The same problem with new edge i being old edge order[i]."""
    return FlowProblem(
        Digraph(problem.node_count, tuple(problem.graph.edges[e] for e in order)),
        tuple(problem.lower[e] for e in order),
        tuple(problem.upper[e] for e in order),
        problem.supply,
        frozenset(i for i, e in enumerate(order) if e in problem.focus),
    )


def test_box_and_profile_invariant_under_edge_permutation():
    rng = random.Random(303)
    for m, focus_share in ((50, 1.0), (60, 0.5), (80, 1.0), (100, 0.3)):
        n = rng.randint(m // 5, m // 3)
        problem = random_problem(rng, n, m, focus_share, 0.1)
        order = list(range(m))
        rng.shuffle(order)
        shuffled = permuted(problem, order)
        box, _ = narrow_box(problem)
        shuffled_box, _ = narrow_box(shuffled)
        assert shuffled_box.f_star == tuple(box.f_star[e] for e in order)
        assert shuffled_box.g_star == tuple(box.g_star[e] for e in order)
        assert focus_profile(problem, decmin_flow(problem)) == focus_profile(
            shuffled, decmin_flow(shuffled)
        )


def relabelled(problem, label):
    """The same problem with node v renamed label[v]."""
    supply = [0] * problem.node_count
    for v, s in enumerate(problem.supply):
        supply[label[v]] = s
    edges = tuple((label[u], label[v]) for u, v in problem.graph.edges)
    return FlowProblem(
        Digraph(problem.node_count, edges),
        problem.lower,
        problem.upper,
        tuple(supply),
        problem.focus,
    )


def with_fixed_edges(rng, problem, count):
    """The problem plus count non-focus edges held at one value each, and
    those values.

    Each new edge has lower == upper, and the supplies absorb what it
    carries, so the flows of the original edges stay exactly the same.
    """
    n = problem.node_count
    extra = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(count))
    held = [rng.randint(-5, 5) for _ in range(count)]
    shift = imbalances(Digraph(n, extra), held)
    return FlowProblem(
        Digraph(n, problem.graph.edges + extra),
        problem.lower + tuple(ExtInt(z) for z in held),
        problem.upper + tuple(ExtInt(z) for z in held),
        tuple(s + d for s, d in zip(problem.supply, shift)),
        problem.focus,
    ), held


@pytest.mark.parametrize("m", SIZES)
def test_box_and_profile_invariant_under_node_relabelling(m):
    rng = random.Random(f"relabel:{m}")
    problem = random_problem(rng, rng.randint(m // 5, m // 3), m, 0.6, 0.1)
    label = list(range(problem.node_count))
    rng.shuffle(label)
    renamed = relabelled(problem, label)
    assert narrow_box(renamed)[0] == narrow_box(problem)[0]
    assert focus_profile(renamed, decmin_flow(renamed)) == focus_profile(
        problem, decmin_flow(problem)
    )


@pytest.mark.parametrize("m", SIZES)
def test_box_and_profile_invariant_under_fixed_non_focus_edges(m):
    rng = random.Random(f"fixed:{m}")
    problem = random_problem(rng, rng.randint(m // 5, m // 3), m, 0.6, 0.1)
    extended, held = with_fixed_edges(rng, problem, m // 4)
    box, _ = narrow_box(problem)
    extended_box, _ = narrow_box(extended)
    assert extended_box.f_star == box.f_star + tuple(ExtInt(z) for z in held)
    assert extended_box.g_star == box.g_star + tuple(ExtInt(z) for z in held)
    assert focus_profile(extended, decmin_flow(extended)) == focus_profile(
        problem, decmin_flow(problem)
    )


@pytest.mark.parametrize("m", SIZES)
def test_incmax_of_the_mirror_is_the_negated_decmin(m):
    rng = random.Random(f"mirror:{m}")
    problem = random_problem(rng, rng.randint(m // 5, m // 3), m, 0.6, 0.1)
    assert incmax_flow(problem.negated()) == tuple(-z for z in decmin_flow(problem))


# -- (d) the smallest feasible cap ----------------------------------------------


def check_beta(problem):
    """Check compute_beta on a feasible problem; return its mu > 0 iterations.

    beta is relative to the state compute_beta reaches: its clamped
    bounds, with the edges that went tight on the way out of the focus.
    """
    result = compute_beta(problem)
    if result.beta is None:
        return 0
    beta, upper = result.beta, result.clamped_upper
    focus = problem.focus - set(result.removed_tight_edges)

    def clamped(cap):
        return problem.with_bounds(
            upper=[min(g, ExtInt(cap)) if e in focus else g for e, g in enumerate(upper)]
        )

    assert networkx_feasible(clamped(beta))
    below = clamped(beta - 1)
    assert any(below.lower[e] > below.upper[e] for e in focus) or (
        not networkx_feasible(below)
    )
    if result.nd_trace is None:
        return 0
    level = result.saturated_level_set
    g_prime = [
        ExtInt(beta - result.nd_trace.mu_min) if e in level else g
        for e, g in enumerate(upper)
    ]
    dropped = problem.with_bounds(upper=g_prime)
    for it in result.nd_trace.iterations:
        assert hoffman_deficiency(dropped, it.argmax) == it.p_value
        assert it.b_value == len(level.intersection(problem.graph.entering(it.argmax)))
    return sum(1 for it in result.nd_trace.iterations if it.mu > 0)


def test_compute_beta_against_networkx_feasibility():
    rng = random.Random(404)
    for m in SIZES:
        for focus_share in (0.3, 1.0):
            n = rng.randint(m // 8, m // 3)
            check_beta(random_problem(rng, n, m, focus_share, 0.2))
    # probes past mu = 0 show up in later rounds of wide boxes, so
    # also check compute_beta on every state the reduction loop reaches
    later = 0
    for m in (50, 100):
        problem = random_problem(rng, m // 3, m, 1.0, 0.0, width=100)
        state = problem
        for round_ in narrow_box(problem)[1]:
            later += check_beta(state)
            state = problem.with_bounds(round_.f_prime, round_.g_prime, round_.focus_next)
    assert later > 0


# -- existence of a fair flow under infinite bounds -----------------------------


def test_exists_decmin_against_networkx_reachability():
    rng = random.Random(505)
    verdicts = set()
    for _ in range(40):
        n = rng.randint(20, 100)
        m = rng.randint(n, 400)
        edges = random_edges(rng, n, m - 2) + tuple((v, v) for v in rng.sample(range(n), 2))
        inf_share = rng.choice((0.02, 0.05, 0.1, 0.3))
        focus = frozenset(e for e in range(m) if rng.random() < 0.5)
        lower = tuple(NEG_INF if rng.random() < inf_share else ExtInt(0) for _ in range(m))
        upper = tuple(POS_INF if rng.random() < inf_share else ExtInt(5) for _ in range(m))
        problem = FlowProblem(Digraph(n, edges), lower, upper, (0,) * n, focus)
        unbounded = nx.DiGraph()
        unbounded.add_nodes_from(range(n))
        for e, (u, v) in enumerate(edges):
            if lower[e] == NEG_INF:
                unbounded.add_edge(u, v)
            if e not in focus and upper[e] == POS_INF:
                unbounded.add_edge(v, u)
        closing = [
            e
            for e, (u, v) in enumerate(edges)
            if e in focus and lower[e] == NEG_INF and nx.has_path(unbounded, v, u)
        ]
        result = exists_decmin(problem)
        verdicts.add(result.exists)
        assert result.exists == (not closing)
        if result.exists:
            assert result.witness is None
            continue
        first = result.witness[0]
        assert (first.origin, first.reversed_) == (closing[0], False)
        for arc, nxt in zip(result.witness, result.witness[1:] + result.witness[:1]):
            u, v = edges[arc.origin]
            if arc.reversed_:
                assert arc.origin not in focus and upper[arc.origin] == POS_INF
                assert (arc.tail, arc.head) == (v, u)
            else:
                assert lower[arc.origin] == NEG_INF
                assert (arc.tail, arc.head) == (u, v)
            assert arc.head == nxt.tail
        u, v = edges[first.origin]
        assert len(result.witness) == 1 + nx.shortest_path_length(unbounded, v, u)
    assert verdicts == {True, False}
