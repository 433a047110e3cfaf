"""Brute-force ground truth for desk-size instances.

Everything here enumerates: all integral feasible flows by depth-first
assignment in edge-id order with conservation pruning, all node subsets
for cut questions.  The results are the reference values the solver
modules are tested against.  Hard caps keep accidental blowups loud
instead of slow.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from itertools import combinations

from .core import FlowProblem, FlowValues, focus_profile
from .errors import InfiniteBoundsError, LimitExceededError
from .extint import ExtInt
from .maxflow import hoffman_deficiency


@dataclass(frozen=True)
class OracleLimits:
    max_edges: int = 10
    max_box_width: int = 4
    max_enumerations: int = 10_000_000


def enumerate_flows(
    problem: FlowProblem, limits: OracleLimits = OracleLimits()
) -> list[FlowValues]:
    """All integral feasible flows, in lexicographic edge-value order.

    Requires finite bounds everywhere.  Aborts with LimitExceededError
    when the instance is over the caps.
    """
    m = problem.edge_count
    if m > limits.max_edges:
        raise LimitExceededError(f"{m} edges exceeds cap {limits.max_edges}")
    total = 1
    for e in range(m):
        lo, hi = problem.lower[e], problem.upper[e]
        if not (lo.is_finite and hi.is_finite):
            raise InfiniteBoundsError(f"edge {e} has an infinite bound")
        width = hi.finite - lo.finite
        if width > limits.max_box_width:
            raise LimitExceededError(
                f"edge {e} box width {width} exceeds cap {limits.max_box_width}"
            )
        total *= width + 1
    if total > limits.max_enumerations:
        raise LimitExceededError(
            f"{total} assignments exceed cap {limits.max_enumerations}"
        )

    # Node v can be conservation-checked once its last incident edge is set.
    last_touch = [-1] * problem.node_count
    for e, (u, v) in enumerate(problem.graph.edges):
        last_touch[u] = max(last_touch[u], e)
        last_touch[v] = max(last_touch[v], e)
    check_after: list[list[int]] = [[] for _ in range(m)]
    for v, last in enumerate(last_touch):
        if last == -1:
            if problem.supply[v] != 0:
                return []
        else:
            check_after[last].append(v)

    lower = [problem.lower[e].finite for e in range(m)]
    upper = [problem.upper[e].finite for e in range(m)]
    flows: list[FlowValues] = []
    values = [0] * m
    net = [0] * problem.node_count

    def assign(e: int) -> None:
        if e == m:
            flows.append(tuple(values))
            return
        u, v = problem.graph.edges[e]
        for z in range(lower[e], upper[e] + 1):
            values[e] = z
            net[v] += z
            net[u] -= z
            if all(net[w] == problem.supply[w] for w in check_after[e]):
                assign(e + 1)
            net[v] -= z
            net[u] += z

    assign(0)
    return flows


def _smallest(flows: Iterable[FlowValues], key: Callable[[FlowValues], object]):
    """The smallest key and every flow attaining it, in order; (None, []) if none."""
    best = None
    attaining: list[FlowValues] = []
    for flow in flows:
        value = key(flow)
        if best is None or value < best:
            best = value
            attaining = [flow]
        elif value == best:
            attaining.append(flow)
    return best, attaining


def oracle_decmin(
    problem: FlowProblem, limits: OracleLimits = OracleLimits()
) -> tuple[tuple[int, ...], list[FlowValues]]:
    """The fairest focus profile and every flow attaining it.

    The profile is empty (and every feasible flow attains it) when the
    focus set is empty; the flow list is empty when the problem is
    infeasible.
    """
    best, attaining = _smallest(
        enumerate_flows(problem, limits), lambda flow: focus_profile(problem, flow)
    )
    return (best if best is not None else ()), attaining


def oracle_incmax(
    problem: FlowProblem, limits: OracleLimits = OracleLimits()
) -> tuple[tuple[int, ...], list[FlowValues]]:
    """Largest sorted-increasing focus profile and its flows."""
    # negating every component reverses the lexicographic order
    best, attaining = _smallest(
        enumerate_flows(problem, limits),
        lambda flow: tuple(-z for z in sorted(flow[e] for e in problem.focus)),
    )
    return (tuple(-z for z in best) if best is not None else ()), attaining


def oracle_beta(
    problem: FlowProblem, limits: OracleLimits = OracleLimits()
) -> int | None:
    """Smallest achievable maximum focus value; None when undefined."""
    if not problem.focus:
        return None
    return _smallest(
        enumerate_flows(problem, limits),
        lambda flow: max(flow[e] for e in problem.focus),
    )[0]


def oracle_min_saturated(
    problem: FlowProblem,
    level_edges: Iterable[int],
    limits: OracleLimits = OracleLimits(),
) -> int | None:
    """Fewest upper-bound-saturated edges of a set over feasible flows."""
    level = sorted(level_edges)
    return _smallest(
        enumerate_flows(problem, limits),
        lambda flow: sum(1 for e in level if flow[e] == problem.upper[e]),
    )[0]


def oracle_cheapest_decmin(
    problem: FlowProblem, limits: OracleLimits = OracleLimits()
) -> tuple[int, FlowValues] | None:
    """Cheapest flow among the fairest ones; None when infeasible."""
    cost = problem.cost or (0,) * problem.edge_count
    _, flows = oracle_decmin(problem, limits)
    price, cheapest = _smallest(flows, lambda flow: sum(c * z for c, z in zip(cost, flow)))
    return None if price is None else (price, cheapest[0])


def oracle_most_violating(problem: FlowProblem) -> tuple[frozenset[int], ExtInt]:
    """Exhaustive maximizer of the Hoffman deficiency over all node sets."""
    best_set: frozenset[int] = frozenset()
    best: ExtInt = hoffman_deficiency(problem, best_set)
    for size in range(1, problem.node_count + 1):
        for nodes in combinations(range(problem.node_count), size):
            deficiency = hoffman_deficiency(problem, nodes)
            if deficiency > best:
                best = deficiency
                best_set = frozenset(nodes)
    return best_set, best
