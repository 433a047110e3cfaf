"""Directed multigraph, modular-flow problems, and the fairness order.

A flow problem is a digraph with integer (possibly infinite) bound
functions on the edges, an integer supply on the nodes summing to zero,
and a designated focus subset of edges on which flows are compared.  A
flow z is feasible when lower <= z <= upper on every edge and the net
inflow at every node equals its supply.  Flows are ranked on the focus
set by the decreasing-minimality order: sort the focus values in
decreasing order and compare lexicographically; smaller is fairer.

Everything here is immutable; all operations are pure functions.  Edges
are iterated in input (id) order and nodes in id order throughout, so
results are deterministic even when optima are not unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .extint import ExtInt, NEG_INF, POS_INF, as_extint

#: Edge-indexed integer flow values.
FlowValues = tuple[int, ...]


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph with dense 0-based edge ids.

    Parallel edges and self-loops are permitted and keep distinct ids.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.node_count <= 0:
            raise ValueError("node_count must be positive")
        object.__setattr__(
            self, "edges", tuple((int(u), int(v)) for u, v in self.edges)
        )
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge {eid} endpoints ({u}, {v}) out of range")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def entering(self, nodes: Iterable[int]) -> list[int]:
        """Edge ids with head inside ``nodes`` and tail outside."""
        inside = set(nodes)
        return [e for e, (u, v) in enumerate(self.edges) if v in inside and u not in inside]

    def leaving(self, nodes: Iterable[int]) -> list[int]:
        """Edge ids with tail inside ``nodes`` and head outside."""
        inside = set(nodes)
        return [e for e, (u, v) in enumerate(self.edges) if u in inside and v not in inside]


@dataclass(frozen=True)
class FlowProblem:
    """A bounded modular-flow instance.

    Fields:
        graph: the underlying digraph.
        lower: per-edge lower bounds (int or -inf).
        upper: per-edge upper bounds (int or +inf).
        supply: per-node required net inflow; must sum to zero.
        focus: edge ids on which flows are compared for fairness.
        cost: optional per-edge integer costs.
    """

    graph: Digraph
    lower: tuple[ExtInt, ...]
    upper: tuple[ExtInt, ...]
    supply: tuple[int, ...]
    focus: frozenset[int] = field(default_factory=frozenset)
    cost: tuple[int, ...] | None = None

    def __post_init__(self):
        m = self.graph.edge_count
        lower = tuple(as_extint(b) for b in self.lower)
        upper = tuple(as_extint(b) for b in self.upper)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "supply", tuple(int(s) for s in self.supply))
        object.__setattr__(self, "focus", frozenset(self.focus))
        if self.cost is not None:
            object.__setattr__(self, "cost", tuple(int(c) for c in self.cost))
            if len(self.cost) != m:
                raise ValueError("cost must have one entry per edge")
        if len(lower) != m or len(upper) != m:
            raise ValueError("bounds must have one entry per edge")
        if len(self.supply) != self.graph.node_count:
            raise ValueError("supply must have one entry per node")
        for e in range(m):
            if lower[e] == POS_INF:
                raise ValueError(f"lower bound of edge {e} cannot be +inf")
            if upper[e] == NEG_INF:
                raise ValueError(f"upper bound of edge {e} cannot be -inf")
            if lower[e] > upper[e]:
                raise ValueError(f"edge {e} has lower > upper")
        if sum(self.supply) != 0:
            raise ValueError("supply must sum to zero")
        for e in self.focus:
            if not (0 <= e < m):
                raise ValueError(f"focus edge id {e} out of range")

    # -- convenience views ---------------------------------------------

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    def finite_on_focus(self) -> bool:
        return all(
            self.lower[e].is_finite and self.upper[e].is_finite for e in self.focus
        )

    def tight_edges(self, within: Iterable[int] | None = None) -> list[int]:
        """Edge ids with lower == upper, optionally restricted to a subset."""
        pool = range(self.edge_count) if within is None else sorted(within)
        return [e for e in pool if self.lower[e] == self.upper[e]]

    # -- derived problems ----------------------------------------------

    def with_bounds(self, lower=None, upper=None) -> "FlowProblem":
        return replace(
            self,
            lower=tuple(lower) if lower is not None else self.lower,
            upper=tuple(upper) if upper is not None else self.upper,
        )

    def with_focus(self, focus: Iterable[int]) -> "FlowProblem":
        return replace(self, focus=frozenset(focus))

    def negated(self) -> "FlowProblem":
        """The mirror problem: z is feasible here iff -z is feasible there."""
        return replace(
            self,
            lower=tuple(-b for b in self.upper),
            upper=tuple(-b for b in self.lower),
            supply=tuple(-s for s in self.supply),
            cost=None if self.cost is None else tuple(-c for c in self.cost),
        )


# -- boundary functionals ----------------------------------------------


def boundary_sums(
    problem: FlowProblem, values: Sequence, nodes: Iterable[int]
) -> tuple[ExtInt, ExtInt]:
    """Sum an edge function over the boundary of a node set.

    Returns (inflow, outflow): the sums of ``values`` over the edges
    entering and leaving ``nodes``.  Self-loops and internal edges never
    cross the boundary.  Raises InfinityClashError if a sum would add
    -inf to +inf.
    """
    inside = set(nodes)
    inflow = as_extint(0)
    outflow = as_extint(0)
    for e, (u, v) in enumerate(problem.graph.edges):
        if v in inside and u not in inside:
            inflow = inflow + values[e]
        elif u in inside and v not in inside:
            outflow = outflow + values[e]
    return inflow, outflow


def supply_sum(problem: FlowProblem, nodes: Iterable[int]) -> int:
    return sum(problem.supply[v] for v in nodes)


def _deficiency(problem: FlowProblem, lower, upper, nodes: Iterable[int]) -> ExtInt:
    """supply(Z) - upper(entering Z) + lower(leaving Z); -inf if one is infinite."""
    inside = set(nodes)
    total = sum(problem.supply[v] for v in inside)
    for e, (u, v) in enumerate(problem.graph.edges):
        if v in inside and u not in inside:
            if not upper[e].is_finite:
                return NEG_INF
            total -= upper[e].finite
        elif u in inside and v not in inside:
            if not lower[e].is_finite:
                return NEG_INF
            total += lower[e].finite
    return ExtInt(total)


def imbalances(graph: Digraph, values: Sequence[int]) -> list[int]:
    """Net inflow (in minus out) per node under integer edge values."""
    net = [0] * graph.node_count
    for e, (u, v) in enumerate(graph.edges):
        net[v] += values[e]
        net[u] -= values[e]
    return net


# -- feasibility checking ----------------------------------------------


@dataclass(frozen=True)
class FlowViolation:
    """First constraint violated by a flow candidate."""

    kind: str  # "bounds" | "conservation"
    index: int  # edge id for bounds, node id for conservation
    message: str


def check_flow(problem: FlowProblem, values: Sequence[int]) -> FlowViolation | None:
    """Return None when feasible, else the first violation found.

    Bounds are checked in edge-id order, then conservation in node-id
    order.
    """
    if len(values) != problem.edge_count:
        raise ValueError("flow must have one value per edge")
    for e in range(problem.edge_count):
        z = values[e]
        if not (problem.lower[e] <= z <= problem.upper[e]):
            return FlowViolation(
                "bounds",
                e,
                f"edge {e}: value {z} outside "
                f"[{problem.lower[e]}, {problem.upper[e]}]",
            )
    net = imbalances(problem.graph, values)
    for v in range(problem.node_count):
        if net[v] != problem.supply[v]:
            return FlowViolation(
                "conservation",
                v,
                f"node {v}: net inflow {net[v]} != supply {problem.supply[v]}",
            )
    return None


def is_feasible(problem: FlowProblem, values: Sequence[int]) -> bool:
    return check_flow(problem, values) is None


# -- residual digraph ------------------------------------------------------


def _edge_residual_arcs(problem: FlowProblem, values: Sequence[int], e: int) -> list:
    """Residual arcs (tail, head, capacity, origin, forward) of edge e.

    Forward (the edge can grow) before backward (it can shrink).  Finite
    capacities are plain ints, unbounded ones +inf.
    """
    u, v = problem.graph.edges[e]
    z, lo, hi = values[e], problem.lower[e], problem.upper[e]
    arcs = []
    if not hi.is_finite:
        arcs.append((u, v, POS_INF, e, True))
    elif z < hi.finite:
        arcs.append((u, v, hi.finite - z, e, True))
    if not lo.is_finite:
        arcs.append((v, u, POS_INF, e, False))
    elif z > lo.finite:
        arcs.append((v, u, z - lo.finite, e, False))
    return arcs


def _residual_arcs(problem: FlowProblem, values: Sequence[int]):
    """Residual arcs of a flow in edge-id order, as in _edge_residual_arcs."""
    for e in range(problem.edge_count):
        yield from _edge_residual_arcs(problem, values, e)


@dataclass(frozen=True)
class AuxArc:
    """One residual arc: forward if the edge can grow, backward if it can shrink."""

    tail: int
    head: int
    forward: bool
    origin: int


@dataclass(frozen=True)
class AuxDigraph:
    """Residual digraph of a feasible flow.

    Arcs appear in edge-id order, forward before backward per edge.
    focus_forward / focus_backward hold arc indices whose origin edge
    lies in the problem's focus set.
    """

    node_count: int
    arcs: tuple[AuxArc, ...]
    focus_forward: frozenset[int]
    focus_backward: frozenset[int]


def build_aux_digraph(problem: FlowProblem, values: Sequence[int]) -> AuxDigraph:
    arcs = tuple(
        AuxArc(tail, head, forward, e)
        for tail, head, _, e, forward in _residual_arcs(problem, values)
    )
    in_focus = [i for i, arc in enumerate(arcs) if arc.origin in problem.focus]
    return AuxDigraph(
        problem.node_count,
        arcs,
        frozenset(i for i in in_focus if arcs[i].forward),
        frozenset(i for i in in_focus if not arcs[i].forward),
    )


# -- the fairness (dec-min) order ----------------------------------------


def decmin_compare(a: Sequence[int], b: Sequence[int]) -> int:
    """Compare two value multisets in the decreasing-minimality order.

    Returns -1 when ``a`` is decreasingly smaller (fairer), 0 when the
    sorted profiles coincide, +1 otherwise.  The multisets must have
    equal size.
    """
    if len(a) != len(b):
        raise ValueError("decmin_compare requires equal-size multisets")
    pa = tuple(sorted(a, reverse=True))
    pb = tuple(sorted(b, reverse=True))
    if pa < pb:
        return -1
    if pa > pb:
        return 1
    return 0


def focus_profile(problem: FlowProblem, values: Sequence[int]) -> tuple[int, ...]:
    """Focus restriction of a flow, sorted decreasingly."""
    return tuple(sorted((values[e] for e in problem.focus), reverse=True))
