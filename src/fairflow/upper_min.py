"""Flows saturating as few designated edges as possible, with dual chains.

Given a subset L of edges with finite, non-tight bounds, find a feasible
flow minimizing the number of L-edges sitting at their upper bound,
together with a nested chain of node sets certifying the minimum:

    min #saturated = in_L(chain) - sum(in_upper(Vi) - out_lower(Vi) - supply(Vi))

One min-cost flow gives both.  The extended problem keeps the original
edges, with upper - 1 on L, and appends a [0, 1] parallel copy of each
L-edge in id order; copies cost one and everything else zero.  The copy
flow counts the saturated edges, and folding it back onto the originals
gives the flow.  Shortest-path potentials of the optimal residual,
compressed to consecutive integer levels from zero, cut out the chain:
its members are the upper level sets of the positive levels.

Every output is verified against the five saturation criteria (O1)-(O5)
before being returned; a failure raises InternalCertificateFailure and
always indicates a bug, never a property of the input.  The criteria
are one window per edge (_chain_window): verify_O1_O5 checks flows
against it, and apply_round_bounds returns it as a reduction round's
rewritten bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Digraph, FlowProblem, FlowValues, _edge_ids, build_costed_residual
from .errors import InternalCertificateFailure
from .extint import ExtInt
from .maxflow import hoffman_deficiency
from .mincost import min_cost_mflow, residual_potentials


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


def _slackness_holds(extended: FlowProblem, values: Sequence[int], y: Sequence[int]) -> bool:
    """Complementary slackness of (values, y) for a costed program.

    It holds by construction for the extended program: residual
    potentials give y(v) - y(u) <= c on an edge u->v below its upper
    bound and >= c on one above its lower bound, and with costs c in
    {0, 1} the compression to consecutive levels, which keeps each
    difference's sign and never enlarges it, preserves both.  This
    re-checks it.
    """
    cost = extended.cost or (0,) * extended.edge_count
    for e, (u, v) in enumerate(extended.graph.edges):
        dy = y[v] - y[u]
        if dy < cost[e] and values[e] != extended.lower[e]:
            return False
        if dy > cost[e] and values[e] != extended.upper[e]:
            return False
    return True


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
    problem: FlowProblem, level_edges: Iterable[int]
) -> tuple[FlowValues, Chain, int]:
    """Feasible flow saturating as few ``level_edges`` as possible.

    Level edge ids must be ints (TypeError) in range(edge_count), each
    with finite, non-tight bounds (ValueError).  Returns (flow, chain,
    saturated_count) from the min-cost flow of the extended problem
    (module docstring).  Before returning it re-checks complementary
    slackness of the compressed potentials, the criteria (O1)-(O5),
    that every chain member is a proper subset with a finite boundary
    term, and that the chain's dual value equals the count.  Raises
    InfeasibleError when the problem has no feasible flow at all.
    """
    level = _edge_ids(level_edges, problem.edge_count, "level edge id")
    copied = sorted(level)
    for e in copied:
        if not (problem.lower[e].is_finite and problem.upper[e].is_finite):
            raise ValueError(f"edge {e} needs finite bounds to be counted")
        if problem.lower[e] == problem.upper[e]:
            raise ValueError(f"edge {e} is tight; remove it from the count set")
    m, k, edges = problem.edge_count, len(copied), problem.graph.edges
    extended = FlowProblem(
        graph=Digraph(problem.node_count, edges + tuple(edges[e] for e in copied)),
        lower=problem.lower + (ExtInt(0),) * k,
        upper=tuple(hi - 1 if e in level else hi for e, hi in enumerate(problem.upper))
        + (ExtInt(1),) * k,
        supply=problem.supply,
        cost=(0,) * m + (1,) * k,
    )
    extended_values = min_cost_mflow(extended)
    copy_flow = dict(zip(copied, extended_values[m:]))
    count = sum(copy_flow.values())
    values = tuple(z + copy_flow.get(e, 0) for e, z in enumerate(extended_values[:m]))
    # NegativeCycleError here would mean the min-cost flow is not optimal
    potentials = residual_potentials(build_costed_residual(extended, extended_values))
    rank = {p: i for i, p in enumerate(sorted(set(potentials)))}
    y = [rank[p] for p in potentials]
    if not _slackness_holds(extended, extended_values, y):
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
