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
from operator import attrgetter

from .extint import ExtInt, NEG_INF, POS_INF, as_extint, plain

#: Edge-indexed integer flow values.
FlowValues = tuple[int, ...]


class Record:
    """Immutable record: its fields are the subclass's own annotations, in order.

    Construction binds them like a signature whose defaults are the
    class-level values, then calls ``self.__post_init__()``, which may
    normalise fields with ``object.__setattr__``.  ``==`` (same class
    only) and ``hash`` use the tuple of fields; the repr is ``Name(f=v, ...)``.
    """

    def __init_subclass__(cls):
        cls._fields = names = tuple(cls.__annotations__)
        get = attrgetter(*names)  # one name gives the value, not a 1-tuple
        cls._values = get if len(names) > 1 else staticmethod(lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        names = self._fields
        if kwargs or len(args) != len(names):
            bound = dict(zip(names, args), **kwargs)
            if len(bound) != len(args) + len(kwargs) or not bound.keys() <= set(names):
                raise TypeError(f"{type(self).__name__}(): extra, repeated or unknown arguments")
            try:
                args = [bound[n] if n in bound else type(self).__dict__[n] for n in names]
            except KeyError as missing:
                raise TypeError(f"{type(self).__name__}() missing argument {missing}") from None
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __repr__(self) -> str:
        pairs = map("{}={!r}".format, self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(pairs)})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of a frozen record")

    __delattr__ = __setattr__


def replace(record: Record, **changes) -> Record:
    """A copy of the record with some fields changed, validated again."""
    values = [changes.pop(n, v) for n, v in zip(record._fields, record._values(record))]
    return type(record)(*values, **changes)  # a name left over is an unknown argument


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


def _ids(ids: Iterable, count: int, field: str) -> frozenset[int]:
    """The ids as a set, each required to be an int (bools rejected) in range(count)."""
    ids = tuple(ids)  # checked before a set can merge 0.0 or True into an int
    for i in ids:
        if _int(i, field) not in range(count):
            raise ValueError(f"{field} {i!r} out of range")
    return frozenset(ids)


class Digraph(Record):
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


class FlowProblem(Record):
    """A bounded modular-flow instance.

    Fields:
        graph: the underlying digraph.
        lower: per-edge lower bounds (int or -inf).
        upper: per-edge upper bounds (int or +inf).
        supply: per-node required net inflow; must sum to zero.
        focus: edge ids on which flows are compared for fairness.
        cost: optional per-edge integer costs.

    The bounds are ExtInt.  __post_init__ builds their plain-int views
    ``_lo`` and ``_hi`` once (extint.plain); its checks and the inner
    loops that read this problem's bounds run on them.
    """

    graph: Digraph
    lower: tuple[ExtInt, ...]
    upper: tuple[ExtInt, ...]
    supply: tuple[int, ...]
    focus: frozenset[int] = frozenset()
    cost: tuple[int, ...] | None = None

    def __post_init__(self):
        m = self.graph.edge_count
        lower = tuple([b if type(b) is ExtInt else as_extint(b) for b in self.lower])
        upper = tuple([b if type(b) is ExtInt else as_extint(b) for b in self.upper])
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_lo", plain(lower))
        object.__setattr__(self, "_hi", plain(upper))
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
        self._check_bounds()
        if sum(self.supply) != 0:
            raise ValueError("supply must sum to zero")
        for e in self.focus:
            if not (0 <= e < m):
                raise ValueError(f"focus edge id {e} out of range")

    def _check_bounds(self) -> None:
        f, g = self.lower, self.upper
        for e, (lo, hi) in enumerate(zip(self._lo, self._hi)):
            # an infinite lower must be -inf and an infinite upper +inf
            if (f[e] == POS_INF or g[e] == NEG_INF) if lo is None or hi is None else lo > hi:
                raise ValueError(f"edge {e} has invalid bounds [{f[e]}, {g[e]}]")

    # -- convenience views ---------------------------------------------

    @property
    def node_count(self) -> int:
        return self.graph.node_count

    @property
    def edge_count(self) -> int:
        return self.graph.edge_count

    def finite_on_focus(self) -> bool:
        return all(
            self._lo[e] is not None and self._hi[e] is not None for e in self.focus
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


def _rebounded(problem: FlowProblem, lower, upper, focus, lo=None) -> FlowProblem:
    """The problem under new ExtInt bounds (lower's plain view lo if known) and focus.

    Checks only the bound pairs (a solver bug still fails); graph, supply, cost are problem's.
    """
    derived = object.__new__(FlowProblem)
    views = (plain(lower) if lo is None else lo, plain(upper))
    values = (problem.graph, lower, upper, problem.supply, frozenset(focus), problem.cost, *views)
    for name, value in zip((*FlowProblem._fields, "_lo", "_hi"), values):
        object.__setattr__(derived, name, value)
    derived._check_bounds()
    return derived


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
    """supply(Z) - upper(entering Z) + lower(leaving Z); -inf if one is infinite.

    The bounds are plain views (extint.plain).
    """
    inside = set(nodes)
    total = sum(problem.supply[v] for v in inside)
    for e, (u, v) in enumerate(problem.graph.edges):
        if v in inside and u not in inside:
            if upper[e] is None:
                return NEG_INF
            total -= upper[e]
        elif u in inside and v not in inside:
            if lower[e] is None:
                return NEG_INF
            total += lower[e]
    return ExtInt(total)


def imbalances(graph: Digraph, values: Sequence[int]) -> list[int]:
    """Net inflow (in minus out) per node under integer edge values."""
    net = [0] * graph.node_count
    for e, (u, v) in enumerate(graph.edges):
        net[v] += values[e]
        net[u] -= values[e]
    return net


# -- feasibility checking ----------------------------------------------


class FlowViolation(Record):
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
    for e, (z, lo, hi) in enumerate(zip(values, problem._lo, problem._hi)):
        if (lo is not None and z < lo) or (hi is not None and z > hi):
            bounds = f"[{problem.lower[e]}, {problem.upper[e]}]"
            return FlowViolation("bounds", e, f"edge {e}: value {z} outside {bounds}")
    net = imbalances(problem.graph, values)
    for v in range(problem.node_count):
        if net[v] != problem.supply[v]:
            return FlowViolation(
                "conservation",
                v,
                f"node {v}: net inflow {net[v]} != supply {problem.supply[v]}",
            )
    return None


# -- residual digraph ------------------------------------------------------


class ResidualArc(Record):
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


class CostedResidual(Record):
    """Residual digraph of a flow: arcs in edge-id order, forward before backward."""

    node_count: int
    arcs: tuple[ResidualArc, ...]


def build_costed_residual(problem: FlowProblem, values: Sequence[int]) -> CostedResidual:
    """Residual digraph of a feasible flow with signed costs.

    Costs are ``problem.cost``, or zero when the problem has none.
    """
    cost = problem.cost or (0,) * problem.edge_count
    arcs = []
    for e, (u, v) in enumerate(problem.graph.edges):
        z, lo, hi = values[e], problem._lo[e], problem._hi[e]
        if hi is None or z < hi:
            arcs.append(ResidualArc(u, v, POS_INF if hi is None else hi - z, cost[e], e, True))
        if lo is None or z > lo:
            arcs.append(ResidualArc(v, u, POS_INF if lo is None else z - lo, -cost[e], e, False))
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
