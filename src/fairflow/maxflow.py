"""Max-flow primitive, Hoffman feasibility, and the parametric cut subroutine.

The engine is plain shortest-augmenting-path (BFS) max flow.  On top of
it sit three reductions:

* find_feasible_mflow: find an integral feasible flow for a bounded
  modular-flow problem, or a node set certifying infeasibility.
* most_violating_set: the node set maximizing the Hoffman deficiency
  supply(Z) - in_upper(Z) + out_lower(Z), feasible or not.
* nd_cut_subroutine: minimize mu*in_L(Z) + in_g'(Z) - out_f(Z) - supply(Z)
  over node sets, the oracle the ratio-maximization driver needs.

All three return deterministic answers: the cut side is always the
source-reachable set of the final residual network.

Residual capacities are plain ints.  Each network replaces +inf by a
finite surrogate B = 1 + (total capacity of its super-source arcs).
That is exact: every source arc is finite, so every augmenting path has
a bottleneck of at most that total, which is below B.  A surrogate arc
therefore never saturates, residual positivity is the same at every
step as with +inf, and the paths, the flow value and the returned cut
set are the same step for step.  The public max_flow, whose source
edges may be infinite, first looks for an all-infinite source-sink path
and otherwise uses B = 1 + (sum of the finite capacities).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import Digraph, FlowProblem, FlowValues, _deficiency
from .errors import InfeasibleError
from .extint import ExtInt, POS_INF, as_extint


@dataclass(frozen=True)
class CutCertificate:
    """A node set with its Hoffman deficiency.

    deficiency = supply(Z) - in_upper(Z) + out_lower(Z); positive values
    certify that no feasible flow exists.
    """

    nodes: frozenset[int]
    deficiency: int


def hoffman_deficiency(problem: FlowProblem, nodes: Iterable[int]) -> ExtInt:
    """supply(Z) - in_upper(Z) + out_lower(Z) for a node set Z."""
    return _deficiency(problem, problem.lower, problem.upper, nodes)


class _Residual:
    """Mutable residual network with plain-int capacities.

    Arcs are stored in pairs: arc i and its reverse i^1.  While arcs are
    added, None stands for +inf; resolve() then swaps in the surrogate.
    """

    def __init__(self, node_count: int):
        self.head: list[int] = []
        self.cap: list[int | None] = []
        self.res: list[int] = []
        self.adj: list[list[int]] = [[] for _ in range(node_count)]

    def add_pair(self, tail: int, head: int, capacity, reverse=0) -> None:
        """Add arc tail->head and its reverse head->tail."""
        self.adj[tail].append(len(self.head))
        self.adj[head].append(len(self.head) + 1)
        self.head += (head, tail)
        self.cap += (capacity, reverse)

    def resolve(self, infinity: int) -> None:
        """Give every +inf arc the finite capacity ``infinity``; start at zero flow."""
        self.cap = [infinity if c is None else c for c in self.cap]
        self.res = list(self.cap)

    def pushed(self, aid: int) -> int:
        """Net flow pushed along arc aid."""
        return self.cap[aid] - self.res[aid]

    def search(self, source: int, sink: int = -1, least: int = 1) -> dict[int, int]:
        """Breadth-first search over arcs with residual >= least.

        Maps each node reached to the arc it came by (-1 at the source);
        stops once the sink is dequeued.
        """
        head, res, adj = self.head, self.res, self.adj
        prev = {source: -1}
        queue = [source]
        for u in queue:  # also visits the nodes appended below
            if u == sink:
                break
            for aid in adj[u]:
                v = head[aid]
                if v not in prev and res[aid] >= least:
                    prev[v] = aid
                    queue.append(v)
        return prev

    def max_flow(self, source: int, sink: int) -> tuple[int, set[int]]:
        """Run augmenting paths to exhaustion; return (value, reachable set)."""
        head, res = self.head, self.res
        total = 0
        while True:
            prev = self.search(source, sink)
            if sink not in prev:
                return total, set(prev)
            path = []
            v = sink
            while v != source:
                aid = prev[v]
                path.append(aid)
                v = head[aid ^ 1]
            delta = min(res[aid] for aid in path)
            for aid in path:
                res[aid] -= delta
                res[aid ^ 1] += delta
            total += delta


def max_flow(
    graph: Digraph, capacities: Sequence, source: int, sink: int
) -> tuple[ExtInt, FlowValues, frozenset[int]]:
    """Integral max flow from source to sink under edge capacities.

    Capacities may be ints or ExtInt (+inf allowed) and must be >= 0.
    Returns (value, flow per edge, min-cut source side).  The cut is the
    source-reachable set of the final residual network; its capacity
    equals the flow value.  When an all-infinite source-sink path exists
    the value is +inf, no flow is pushed, and the set holds the nodes
    reachable from the source along infinite edges (sink included).
    """
    if source == sink:
        raise ValueError("source and sink must differ")
    caps = [as_extint(cap) for cap in capacities]
    for e, cap in enumerate(caps):
        if cap < 0:
            raise ValueError(f"edge {e} has negative capacity {cap}")
    net = _Residual(graph.node_count)
    for (u, v), cap in zip(graph.edges, caps):
        net.add_pair(u, v, cap.finite if cap.is_finite else None)
    infinity = 1 + sum(c for c in net.cap if c is not None)
    net.resolve(infinity)
    along_infinite = net.search(source, least=infinity)
    if sink in along_infinite:
        return POS_INF, (0,) * graph.edge_count, frozenset(along_infinite)
    value, reach = net.max_flow(source, sink)
    flow = tuple(net.pushed(2 * e) for e in range(graph.edge_count))
    return ExtInt(value), flow, frozenset(reach)


# -- Hoffman feasibility -------------------------------------------------


def _feasibility_network(problem: FlowProblem):
    """Super-source/super-sink network whose max flow decides feasibility.

    Returns (net, source, sink, demand_total, base).  Edge e starts at a
    finite point base[e] of its bounds; arc 2e may raise it to its upper
    bound and the reverse arc 2e+1 may lower it to its lower bound.
    """
    n = problem.node_count
    source, sink = n, n + 1
    net = _Residual(n + 2)
    base = []
    excess = list(problem.supply)
    for e, (u, v) in enumerate(problem.graph.edges):
        lo, hi = problem.lower[e], problem.upper[e]
        b = lo.finite if lo.is_finite else min(0, hi.finite) if hi.is_finite else 0
        base.append(b)
        excess[v] -= b
        excess[u] += b
        up = hi.finite - b if hi.is_finite else None
        down = b - lo.finite if lo.is_finite else None
        net.add_pair(u, v, up, down)
    demand_total = 0
    for v, r in enumerate(excess):
        if r > 0:
            net.add_pair(v, sink, r)
            demand_total += r
        elif r < 0:
            net.add_pair(source, v, -r)
    net.resolve(demand_total + 1)
    return net, source, sink, demand_total, base


def find_feasible_mflow(problem: FlowProblem) -> FlowValues | CutCertificate:
    """Find an integral feasible flow, or a positively violated node set.

    Exactly one of the two outcomes is returned: a flow passing
    check_flow, or a CutCertificate with deficiency > 0.
    """
    net, source, sink, demand_total, base = _feasibility_network(problem)
    value, reach = net.max_flow(source, sink)
    if value == demand_total:
        return tuple(base[e] + net.pushed(2 * e) for e in range(len(base)))
    violating = frozenset(range(problem.node_count)) - reach
    deficiency = hoffman_deficiency(problem, violating)
    return CutCertificate(violating, deficiency.finite)


def most_violating_set(problem: FlowProblem) -> CutCertificate:
    """The node set maximizing the Hoffman deficiency.

    The maximum is always >= 0 (the empty set has deficiency 0); it is
    > 0 exactly when no feasible flow exists.  Ties are resolved by the
    complement of the source-reachable min-cut side.
    """
    net, source, sink, _, _ = _feasibility_network(problem)
    _, reach = net.max_flow(source, sink)
    nodes = frozenset(range(problem.node_count)) - reach
    deficiency = hoffman_deficiency(problem, nodes)
    return CutCertificate(nodes, deficiency.finite)


def require_feasible(problem: FlowProblem) -> FlowValues:
    """find_feasible_mflow, raising InfeasibleError on a certificate."""
    outcome = find_feasible_mflow(problem)
    if isinstance(outcome, CutCertificate):
        raise InfeasibleError(
            f"no feasible flow: set {sorted(outcome.nodes)} has "
            f"deficiency {outcome.deficiency}",
            certificate=outcome,
        )
    return outcome


# -- parametric cut subroutine --------------------------------------------


def nd_cut_subroutine(
    problem: FlowProblem,
    level_edges: Iterable[int],
    g_prime: Sequence,
    mu: int,
) -> tuple[frozenset[int], int]:
    """Minimize mu*in_L(Z) + in_g'(Z) - out_f(Z) - supply(Z) over node sets.

    Requires mu >= 0 and g' >= lower.  The empty set scores 0, so the
    minimum is always <= 0.  Infinite-capacity terms make the offending
    sets infinitely bad and are simply never selected.

    The objective is an s-t cut function in disguise: each edge
    contributes a capacitated arc plus node charges, and the node
    charges become source/sink arcs.  The returned set is the sink side
    of the minimum cut (complement of the source-reachable set).
    """
    if mu < 0:
        raise ValueError("mu must be non-negative")
    g_prime = [as_extint(g) for g in g_prime]
    for e, g in enumerate(g_prime):
        if g < problem.lower[e]:
            raise ValueError(f"g_prime must dominate lower (edge {e})")
    level = set(level_edges)
    n = problem.node_count
    source, sink = n, n + 1
    net = _Residual(n + 2)
    # charge[v] accumulates the linear node terms of the objective
    charge = [-s for s in problem.supply]
    for e, (u, v) in enumerate(problem.graph.edges):
        lo, g = problem.lower[e], g_prime[e]
        w = g.finite + (mu if e in level else 0) if g.is_finite else None
        if lo.is_finite:
            net.add_pair(u, v, None if w is None else w - lo.finite)
            charge[v] += lo.finite
            charge[u] -= lo.finite
        elif w is not None:
            # lower = -inf: leaving Z is forbidden, entering costs w
            net.add_pair(v, u, None)
            charge[v] += w
            charge[u] -= w
        else:
            # lower = -inf and weight = +inf: crossing either way is forbidden
            net.add_pair(u, v, None)
            net.add_pair(v, u, None)
    shift = 0
    for v in range(n):
        if charge[v] > 0:
            net.add_pair(source, v, charge[v])
        elif charge[v] < 0:
            net.add_pair(v, sink, -charge[v])
            shift += -charge[v]
    net.resolve(1 + sum(c for c in charge if c > 0))
    value, reach = net.max_flow(source, sink)
    nodes = frozenset(range(n)) - reach
    return nodes, value - shift
