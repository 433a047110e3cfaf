"""Flows saturating as few designated edges as possible, with dual chains.

Given a subset L of edges with finite, non-tight bounds, find a feasible
flow minimizing the number of L-edges sitting at their upper bound,
together with a nested chain of node sets certifying the minimum:

    min #saturated = in_L(chain) - sum(in_upper(Vi) - out_lower(Vi) - supply(Vi))

One min-cost flow with 0/1 costs gives both.  The extended program keeps
the original edges, with upper - 1 on L, and appends a [0, 1] parallel
copy of each L-edge in id order; copies cost one and everything else
zero.  The copy flow counts the saturated edges, and folding it back
onto the originals gives the flow.

The primal-dual method (Ahuja, Magnanti & Orlin, Network Flows, 1993,
section 9.8) solves it on maxflow's network of the extended program,
from a start clamped into its bounds with the copies at zero, so every
reduced cost c + pi(tail) - pi(head) is >= 0 at pi = 0.  Each phase
routes what it can over the arcs of reduced cost zero by one Dinic max
flow, then raises pi on the nodes it did not reach by the least reduced
cost leaving the reached set; reduced costs stay >= 0.  Unit costs keep
pi below n, so a feasible problem takes at most n phases of O(n^2 m)
each: strongly polynomial.

Shortest distances from a zero root over the final residual are the
pointwise-largest optimal dual <= 0, which is the same for every
optimal flow and so for every start.  Compressed to consecutive integer
levels from zero, they cut out the chain: its members are the upper
level sets of the positive levels.

Every output is verified against the five saturation criteria (O1)-(O5)
before being returned; a failure raises InternalCertificateFailure and
always indicates a bug, never a property of the input.  The criteria
are one window per edge (_chain_window): verify_O1_O5 checks flows
against it, and apply_round_bounds returns it as a reduction round's
rewritten bounds.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ._bf import bellman_ford
from .core import FlowProblem, FlowValues, _edge_ids
from .errors import InternalCertificateFailure
from .extint import ExtInt
from .maxflow import _start, _super_network, hoffman_deficiency, require_feasible


@dataclass(frozen=True)
class Chain:
    """Strictly nested node sets V1 > V2 > ... > Vq (possibly none)."""

    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        for i, s in enumerate(self.sets):
            if not s:
                raise ValueError("chain members must be non-empty")
            if i > 0 and not s < self.sets[i - 1]:
                raise ValueError("chain members must be strictly nested")

    def __len__(self) -> int:
        return len(self.sets)

    def depth(self, node_count: int) -> dict[int, int]:
        """Per node of range(node_count), how many members hold it."""
        depth = dict.fromkeys(range(node_count), 0)  # KeyError on other nodes
        for member in self.sets:
            for v in member:
                depth[v] += 1
        return depth


# -- optimality criteria ----------------------------------------------------


def _chain_window(
    problem: FlowProblem, level: frozenset[int], chain: Chain
) -> tuple[tuple[ExtInt, ...], tuple[ExtInt, ...], tuple[str | None, ...]]:
    """Per edge, the window [lower, upper] the chain leaves, and its criterion.

    (O1) an edge leaving any member gets [lower, lower];
    (O2) a non-counted edge entering one gets [upper, upper];
    (O3) a counted edge entering exactly one gets [upper-1, upper];
    (O4) a counted edge entering two or more gets [upper, upper];
    (O5) a counted edge crossing nothing gets [lower, upper-1];
    every other edge keeps its bounds, with criterion None.

    Exactly one case applies: by nesting, an edge u->v enters
    depth[v] - depth[u] members (Chain.depth) when that is positive,
    and leaves some member exactly when it is negative.
    """
    lower = list(problem.lower)
    upper = list(problem.upper)
    criteria: list[str | None] = [None] * problem.edge_count
    depth = chain.depth(problem.node_count)
    for e, (u, v) in enumerate(problem.graph.edges):
        # lower[e] and upper[e] still hold the problem's bounds here
        entered = depth[v] - depth[u]
        if entered < 0:
            criteria[e], upper[e] = "O1", lower[e]
        elif e not in level:
            if entered:
                criteria[e], lower[e] = "O2", upper[e]
        elif entered == 1:
            criteria[e], lower[e] = "O3", upper[e] - 1
        elif entered:
            criteria[e], lower[e] = "O4", upper[e]
        else:
            criteria[e], upper[e] = "O5", upper[e] - 1
    return tuple(lower), tuple(upper), tuple(criteria)


def verify_O1_O5(
    problem: FlowProblem, level_edges: Iterable[int], values: Sequence[int], chain: Chain
) -> list[str]:
    """Check the five saturation-optimality criteria; empty list means pass.

    Each edge with a criterion must lie in the window _chain_window
    gives it; one message per edge outside, starting with the label of
    the criterion it violates.
    """
    level = _edge_ids(level_edges, problem.edge_count, "level edge id")
    lower, upper, criteria = _chain_window(problem, level, chain)
    return [
        f"{label}: edge {e} has value {values[e]}, outside [{lower[e]}, {upper[e]}]"
        for e, label in enumerate(criteria)
        if label is not None and not lower[e] <= values[e] <= upper[e]
    ]


def apply_round_bounds(
    problem: FlowProblem, beta: int, level_set: Iterable[int], chain: Chain
) -> tuple[tuple[ExtInt, ...], tuple[ExtInt, ...], frozenset[int]]:
    """Rewrite a reduction round's bounds from the chain geometry.

    Every cap-level edge must sit at beta.  (f', g') are the windows of
    the criteria (O1)-(O5), _chain_window: a cap-level edge entering
    two or more chain members is pinned at beta, entering one narrowed
    to [beta-1, beta], crossing nothing capped at beta-1; any other
    edge entering a member is pinned at its upper bound, and any edge
    leaving one at its lower bound.  Returns (f', g', narrowed), where
    narrowed holds the cap-level edges entering a member, collected in
    edge-id order.
    """
    level_set = _edge_ids(level_set, problem.edge_count, "level edge id")
    for e in sorted(level_set):
        if problem.upper[e] != beta:
            raise InternalCertificateFailure(f"cap-level edge {e} must sit at beta {beta}")
    f_prime, g_prime, criteria = _chain_window(problem, level_set, chain)
    narrowed = frozenset(e for e, c in enumerate(criteria) if c in ("O3", "O4"))
    return f_prime, g_prime, narrowed


def chain_dual_value(
    problem: FlowProblem, level_edges: Iterable[int], chain: Chain
) -> int:
    """Dual objective: entered L-edges minus the chain's slack terms."""
    depth = chain.depth(problem.node_count)
    level = _edge_ids(level_edges, problem.edge_count, "level edge id")
    edges = [problem.graph.edges[e] for e in level]
    entered = sum(1 for u, v in edges if depth[v] > depth[u])
    # a member's slack in_upper - out_lower - supply is minus its deficiency
    return entered + sum(hoffman_deficiency(problem, m).finite for m in chain.sets)


def solve_upper_minimizer(
    problem: FlowProblem, level_edges: Iterable[int], start: Sequence[int] | None = None
) -> tuple[FlowValues, Chain, int]:
    """Feasible flow saturating as few ``level_edges`` as possible.

    Level edge ids must be ints (TypeError) in range(edge_count), each
    with finite, non-tight bounds (ValueError).  ``start`` is None or
    one int per edge (ValueError, TypeError), where the phases start;
    a start near the answer leaves little to route.  Returns (flow,
    chain, saturated_count) from the primal-dual phases, at most n
    (module docstring); the chain and count are the same for every
    start.  Before returning it re-checks complementary slackness of the
    compressed potentials on the final residual, the criteria (O1)-(O5),
    that every chain member is a proper subset with a finite boundary
    term, and that the chain's dual value equals the count.  Raises
    InfeasibleError, with require_feasible's certificate, when the
    problem has no feasible flow at all.
    """
    level = _edge_ids(level_edges, problem.edge_count, "level edge id")
    copied = sorted(level)
    for e in copied:
        if not (problem.lower[e].is_finite and problem.upper[e].is_finite):
            raise ValueError(f"edge {e} needs finite bounds to be counted")
        if problem.lower[e] == problem.upper[e]:
            raise ValueError(f"edge {e} is tight; remove it from the count set")
    n, m, k, edges = problem.node_count, problem.edge_count, len(copied), problem.graph.edges
    start = _start(start, m)
    upper = tuple(hi - 1 if e in level else hi for e, hi in enumerate(problem.upper))
    net, base, demand = _super_network(
        n, edges + tuple(edges[e] for e in copied), problem.supply,
        problem.lower + (ExtInt(0),) * k, upper + (ExtInt(1),) * k,
        None if start is None else start + (0,) * k,
    )
    arcs, head, res = range(2 * (m + k)), net.head, net.res  # the real arcs
    tail = [head[a ^ 1] for a in arcs]
    cost = [0] * (2 * m) + [1, -1] * k
    pi = [0] * n  # the super-terminal arcs are always admissible
    routed = 0
    while True:
        hidden = [(a, res[a]) for a in arcs if res[a] and cost[a] + pi[tail[a]] != pi[head[a]]]
        for a, _ in hidden:
            res[a] = 0
        value, reached = net.max_flow(n, n + 1)
        for a, r in hidden:
            res[a] = r
        routed += value
        if routed == demand:
            break
        leaving = [cost[a] + pi[tail[a]] - pi[head[a]]
                   for a in arcs if res[a] and reached[tail[a]] >= 0 > reached[head[a]]]
        if not leaving:  # no feasible flow: raise require_feasible's certificate
            require_feasible(problem)
            raise InternalCertificateFailure("the phases stalled on a feasible problem")
        delta = min(leaving)
        if delta <= 0:
            raise InternalCertificateFailure(f"a phase left reduced cost {delta} uncrossed")
        for v in range(n):
            if reached[v] < 0:
                pi[v] += delta
    flow = [b + net.pushed(2 * e) for e, b in enumerate(base)]
    copy_flow = dict(zip(copied, flow[m:]))
    count = sum(flow[m:])
    values = tuple(z + copy_flow.get(e, 0) for e, z in enumerate(flow[:m]))
    present = [a for a in arcs if res[a]]
    potentials, cycle = bellman_ford(
        n, [tail[a] for a in present], [head[a] for a in present], [cost[a] for a in present]
    )
    if cycle is not None:
        raise InternalCertificateFailure("the final residual has a negative cycle")
    rank = {p: i for i, p in enumerate(sorted(set(potentials)))}
    y = [rank[p] for p in potentials]
    # compressing keeps the sign of each difference and never enlarges it
    if any(y[head[a]] - y[tail[a]] > cost[a] for a in present):
        raise InternalCertificateFailure("residual potentials violate complementary slackness")
    levels = range(1, max(y) + 1)
    chain = Chain(tuple(frozenset(v for v, yv in enumerate(y) if yv >= i) for i in levels))
    problems = verify_O1_O5(problem, level, values, chain)
    if problems:
        raise InternalCertificateFailure("saturation criteria failed: " + "; ".join(problems))
    for member in chain.sets:
        if len(member) >= problem.node_count:
            raise InternalCertificateFailure("chain member is not a proper subset")
        if not hoffman_deficiency(problem, member).is_finite:
            raise InternalCertificateFailure("chain member has an infinite boundary term")
    if chain_dual_value(problem, level, chain) != count:
        raise InternalCertificateFailure("dual chain value does not match count")
    return values, chain, count
