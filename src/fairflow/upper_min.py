"""Flows saturating as few designated edges as possible, with dual chains.

Given a subset L of edges with finite, non-tight bounds, find a feasible
flow minimizing the number of L-edges sitting at their upper bound,
together with a nested chain of node sets certifying the minimum:

    min #saturated = in_L(chain) - sum(in_upper(Vi) - out_lower(Vi) - supply(Vi))

The construction adds a unit-capacity parallel copy of every L-edge,
lowers the original's upper bound by one, prices copies at one and
everything else at zero, and solves a min-cost flow.  The copy flow
counts the saturated edges; shortest-path potentials of the optimal
residual, compressed to consecutive integer levels, cut out the chain.

Every output is verified against the five saturation criteria (O1)-(O5)
before being returned; a failure raises InternalCertificateFailure and
always indicates a bug, never a property of the input.  The criteria
are one window per edge (_chain_window), which reduction rounds reuse
as their rewritten bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Digraph, FlowProblem, FlowValues, build_costed_residual
from .errors import InternalCertificateFailure
from .extint import ExtInt, as_extint
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


@dataclass(frozen=True)
class ParallelCopyProblem:
    """The unit-copy construction for counting saturated edges.

    extended is the base problem plus one parallel copy per L-edge:
    originals keep their lower bound and get upper-1 on L, copies are
    [0, 1] edges costing 1 while everything else costs 0.  copy_pairs
    maps each L-edge id to its copy's edge id in the extended graph.
    """

    base: FlowProblem
    level_edges: frozenset[int]
    extended: FlowProblem
    copy_pairs: tuple[tuple[int, int], ...]

    def pull_back(self, extended_values: Sequence[int]) -> FlowValues:
        """Fold copy flow back onto the originals."""
        values = list(extended_values[: self.base.edge_count])
        for orig, copy in self.copy_pairs:
            values[orig] += extended_values[copy]
        return tuple(values)


def build_parallel_copy(problem: FlowProblem, level_edges: Iterable[int]) -> ParallelCopyProblem:
    level = frozenset(level_edges)
    for e in sorted(level):
        if not (problem.lower[e].is_finite and problem.upper[e].is_finite):
            raise ValueError(f"edge {e} needs finite bounds to be counted")
        if problem.lower[e] == problem.upper[e]:
            raise ValueError(f"edge {e} is tight; remove it from the count set")
    edges = list(problem.graph.edges)
    lower = list(problem.lower)
    upper = [
        problem.upper[e] - 1 if e in level else problem.upper[e]
        for e in range(problem.edge_count)
    ]
    cost = [0] * problem.edge_count
    pairs = []
    for e in sorted(level):
        copy_id = len(edges)
        edges.append(problem.graph.edges[e])
        lower.append(as_extint(0))
        upper.append(as_extint(1))
        cost.append(1)
        pairs.append((e, copy_id))
    extended = FlowProblem(
        graph=Digraph(problem.node_count, tuple(edges)),
        lower=tuple(lower),
        upper=tuple(upper),
        supply=problem.supply,
        focus=frozenset(),
        cost=tuple(cost),
    )
    return ParallelCopyProblem(problem, level, extended, tuple(pairs))


# -- dual extraction -------------------------------------------------------


def _compress_levels(values: Sequence[int]) -> list[int]:
    """Monotone map onto 0..q keeping the distinct-value structure."""
    rank = {v: i for i, v in enumerate(sorted(set(values)))}
    return [rank[v] for v in values]


def _slackness_holds(extended: FlowProblem, values: Sequence[int], y: Sequence[int]) -> bool:
    """Complementary slackness of (values, y) for the extended program."""
    cost = extended.cost or (0,) * extended.edge_count
    for e, (u, v) in enumerate(extended.graph.edges):
        dy = y[v] - y[u]
        if dy < cost[e] and values[e] != extended.lower[e]:
            return False
        if dy > cost[e] and values[e] != extended.upper[e]:
            return False
    return True


def extract_chain_from_duals(
    pcp: ParallelCopyProblem, extended_values: Sequence[int]
) -> Chain:
    """Optimal dual chain from the residual of an optimal extended flow.

    Potentials are shortest distances in the costed residual (raises
    NegativeCycleError when the flow is not optimal), compressed to
    consecutive levels from zero; the chain collects the upper level
    sets of every positive level (none for an all-zero potential).

    Complementary slackness holds by construction: residual potentials
    give y(v) - y(u) <= c on an edge u->v below its upper bound and
    >= c on one above its lower bound, and with costs c in {0, 1} the
    compression, which keeps each difference's sign and never enlarges
    it, preserves both.  _slackness_holds re-checks this.
    """
    residual = build_costed_residual(pcp.extended, extended_values)
    y = _compress_levels(residual_potentials(residual))
    if not _slackness_holds(pcp.extended, extended_values, y):
        raise InternalCertificateFailure(
            "residual potentials violate complementary slackness"
        )
    return Chain(
        tuple(
            frozenset(v for v in range(pcp.base.node_count) if y[v] >= i)
            for i in range(1, max(y) + 1)
        )
    )


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
    problem: FlowProblem,
    level_edges: Iterable[int],
    values: Sequence[int],
    chain: Chain,
) -> list[str]:
    """Check the five saturation-optimality criteria; empty list means pass.

    Each edge with a criterion must lie in the window _chain_window
    gives it; one message per edge outside, starting with the label of
    the criterion it violates.
    """
    lower, upper, criteria = _chain_window(problem, frozenset(level_edges), chain)
    return [
        f"{label}: edge {e} has value {values[e]}, outside [{lower[e]}, {upper[e]}]"
        for e, label in enumerate(criteria)
        if label is not None and not lower[e] <= values[e] <= upper[e]
    ]


def chain_dual_value(
    problem: FlowProblem, level_edges: Iterable[int], chain: Chain
) -> int:
    """Dual objective: entered L-edges minus the chain's slack terms."""
    depth = chain.depth(problem.node_count)
    edges = [problem.graph.edges[e] for e in frozenset(level_edges)]
    entered = sum(1 for u, v in edges if depth[v] > depth[u])
    # a member's slack in_upper - out_lower - supply is minus its deficiency
    return entered + sum(hoffman_deficiency(problem, m).finite for m in chain.sets)


def solve_upper_minimizer(
    problem: FlowProblem, level_edges: Iterable[int]
) -> tuple[FlowValues, Chain, int]:
    """Feasible flow saturating as few ``level_edges`` as possible.

    Returns (flow, chain, saturated_count); the chain certifies the
    count through the criteria (O1)-(O5) and the min-max equality, both
    of which are re-verified before returning.  Raises InfeasibleError
    when the problem has no feasible flow at all.
    """
    pcp = build_parallel_copy(problem, level_edges)
    extended_values = min_cost_mflow(pcp.extended)
    count = sum(extended_values[copy] for _, copy in pcp.copy_pairs)
    values = pcp.pull_back(extended_values)
    chain = extract_chain_from_duals(pcp, extended_values)
    problems = verify_O1_O5(problem, pcp.level_edges, values, chain)
    if problems:
        raise InternalCertificateFailure(
            "saturation criteria failed: " + "; ".join(problems)
        )
    for member in chain.sets:
        if len(member) >= problem.node_count:
            raise InternalCertificateFailure("chain member is not a proper subset")
        if not hoffman_deficiency(problem, member).is_finite:
            raise InternalCertificateFailure("chain member has an infinite boundary term")
    if chain_dual_value(problem, pcp.level_edges, chain) != count:
        raise InternalCertificateFailure("dual chain value does not match count")
    return values, chain, count
