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

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field, replace

from .extint import ExtInt, NEG_INF, POS_INF, as_extint

#: Edge-indexed integer flow values.
FlowValues = tuple[int, ...]


def _int(value, field: str) -> int:
    """The value, required to be an int (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{field} must be an int, got {value!r}")
    return value


def _ints(values: Iterable, field: str) -> tuple[int, ...]:
    """The values as a tuple, each required to be an int (bools rejected)."""
    values = tuple(values)
    if set(map(type, values)) - {int}:  # plain ints skip the loop
        for i, x in enumerate(values):
            _int(x, f"{field}[{i}]")
    return values


def _edge_ids(ids: Iterable, edge_count: int, field: str) -> frozenset[int]:
    """The ids as a set, each required to be an int (bools rejected) in range(edge_count)."""
    ids = tuple(ids)  # checked before a set can merge 0.0 or True into an int
    for e in ids:
        if _int(e, field) not in range(edge_count):
            raise ValueError(f"{field} {e!r} out of range")
    return frozenset(ids)


@dataclass(frozen=True)
class Digraph:
    """Directed multigraph with dense 0-based edge ids.

    Parallel edges and self-loops are permitted and keep distinct ids.
    """

    node_count: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if _int(self.node_count, "node_count") <= 0:
            raise ValueError("node_count must be positive")
        edges = tuple((u, v) for u, v in self.edges)
        _ints((u for u, _ in edges), "edge tails")
        _ints((v for _, v in edges), "edge heads")
        object.__setattr__(self, "edges", edges)
        for eid, (u, v) in enumerate(edges):
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
        object.__setattr__(self, "supply", _ints(self.supply, "supply"))
        object.__setattr__(self, "focus", frozenset(self.focus))
        # checked in place: a set rebuilt from a tuple may iterate in another order
        _ints(self.focus, "focus")
        if self.cost is not None:
            object.__setattr__(self, "cost", _ints(self.cost, "cost"))
            if len(self.cost) != m:
                raise ValueError("cost must have one entry per edge")
        if len(lower) != m or len(upper) != m:
            raise ValueError("bounds must have one entry per edge")
        if len(self.supply) != self.graph.node_count:
            raise ValueError("supply must have one entry per node")
        for e, (lo, hi) in enumerate(zip(lower, upper)):
            # a +inf lower or -inf upper exceeds the other bound or equals it
            if lo > hi or (not lo.is_finite and lo == hi):
                raise ValueError(f"edge {e} has invalid bounds [{lo}, {hi}]")
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

    # -- derived problems ----------------------------------------------

    def with_bounds(self, lower=None, upper=None, focus=None) -> "FlowProblem":
        """The problem with the given bounds and focus; None keeps the field."""
        return replace(
            self,
            lower=tuple(lower) if lower is not None else self.lower,
            upper=tuple(upper) if upper is not None else self.upper,
            focus=frozenset(focus) if focus is not None else self.focus,
        )

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

    Values are ints, one per edge (TypeError, ValueError otherwise).
    Bounds are checked in edge-id order, then conservation in node-id
    order, all in O(m) on plain ints.
    """
    if len(values) != problem.edge_count:
        raise ValueError("flow must have one value per edge")
    values = _ints(values, "flow")
    # plain ints: a lower bound is an int or -inf, an upper an int or +inf
    for e, (z, lo, hi) in enumerate(zip(values, problem.lower, problem.upper)):
        if (lo.is_finite and z < lo.finite) or (hi.is_finite and z > hi.finite):
            return FlowViolation("bounds", e, f"edge {e}: value {z} outside [{lo}, {hi}]")
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


@dataclass(frozen=True)
class ResidualArc:
    """One arc of the residual digraph of a flow.

    Forward arcs (the edge can grow, value below upper) carry the edge
    cost; backward arcs (it can shrink, value above lower) carry the
    negated cost.  Present iff capacity > 0.  The capacity is a plain
    int, or +inf on an unbounded arc.
    """

    tail: int
    head: int
    capacity: int | ExtInt
    cost: int
    origin: int
    forward: bool


@dataclass(frozen=True)
class CostedResidual:
    """Residual digraph of a flow: arcs in edge-id order, forward before backward."""

    node_count: int
    arcs: tuple[ResidualArc, ...]


def _edge_residual_arcs(
    problem: FlowProblem, values: Sequence[int], cost: Sequence[int], e: int
) -> list[ResidualArc]:
    """Residual arcs of edge e, forward before backward."""
    u, v = problem.graph.edges[e]
    z, lo, hi = values[e], problem.lower[e], problem.upper[e]
    arcs = []
    if not hi.is_finite:
        arcs.append(ResidualArc(u, v, POS_INF, cost[e], e, True))
    elif z < hi.finite:
        arcs.append(ResidualArc(u, v, hi.finite - z, cost[e], e, True))
    if not lo.is_finite:
        arcs.append(ResidualArc(v, u, POS_INF, -cost[e], e, False))
    elif z > lo.finite:
        arcs.append(ResidualArc(v, u, z - lo.finite, -cost[e], e, False))
    return arcs


def build_costed_residual(problem: FlowProblem, values: Sequence[int]) -> CostedResidual:
    """Residual digraph of a feasible flow with signed costs.

    Costs are ``problem.cost``, or zero when the problem has none.
    """
    cost = problem.cost or (0,) * problem.edge_count
    arcs = []
    for e in range(problem.edge_count):
        arcs += _edge_residual_arcs(problem, values, cost, e)
    return CostedResidual(problem.node_count, tuple(arcs))


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
