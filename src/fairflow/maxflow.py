"""Max-flow primitive, Hoffman feasibility, and the parametric cut subroutine.

The engine is Dinic's blocking-flow algorithm (Dinitz 1970): each phase
labels the nodes by breadth-first distance from the source and saturates
every shortest augmenting path, so a solve takes at most n - 1 phases of
O(nm) each, O(n^2 m) in all, strongly polynomial.  Besides max_flow, one
network serves three reductions: the feasibility network of a problem's
graph and supplies under its own lower bounds and a given upper vector.

* find_feasible_mflow: an integral feasible flow, or a node set
  certifying infeasibility.
* most_violating_set: the node set maximizing the Hoffman deficiency
  supply(Z) - in_upper(Z) + out_lower(Z), feasible or not.
* nd_cut_subroutine: minimize mu*in_L(Z) + in_g'(Z) - out_f(Z) - supply(Z),
  minus the deficiency under the bounds (lower, g' + mu on L): the
  Newton probe answered cold, the tests' reference.  newton continues
  one network instead (below); nothing in the package calls it.

upper_min.solve_upper_minimizer runs its primal-dual phases on this
network too, one max_flow each over the arcs of zero reduced cost; all
phases together route at most D, so the surrogate below stays exact.

Why one network answers all three.  Edge e starts at a finite point b
of its bounds: a caller's start value clamped into the bounds, or else
the lower bound, min(0, upper) or 0, whichever is finite first.  Node
excesses supply - in_b + out_b become sink arcs (positive, summing to
D) or source arcs (negative).  The cut with sink side Z then has
capacity D - supply(Z) + in_upper(Z) - out_lower(Z) = D - deficiency(Z).
A cut through an infinite arc costs more than D, so it is never
minimal.  After any max flow the source-reachable set is the smallest
source side of a minimum cut, so its complement is the union of all
deficiency maximizers, whichever maximum flow the engine finds.  Its
deficiency is therefore D - value, read off the flow value rather than
recounted over the boundary.  None of this depends on b: every start
gives the same minimizing sets, source-reachable set and D - value.
Only the flow found, and how many augmenting paths it takes, change.
A start that is already nearly feasible leaves a small D to route.
Raising an upper bound raises only arc 2e, upper - b, and keeps D and
the flow pushed so far: newton's probes continue a max flow that way.

Residual capacities are plain ints, and networks are built from plain
bound views (extint.plain, None for an infinity), so ExtInt stays in
the arguments and results.  Each network replaces +inf by a
finite surrogate B = 1 + (total capacity of its super-source arcs).
That is exact: every source arc is finite, so every augmenting path has
a bottleneck of at most that total, which is below B, and every arc
carries at most the flow value.  A surrogate arc therefore never
saturates, residual positivity is the same at every step as with +inf,
and the levels, the paths, the flow value and the returned cut set are
the same step for step.  The public max_flow, whose source edges may
be infinite, first looks for an all-infinite source-sink path and
otherwise uses B = 1 + (sum of the finite capacities).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .core import Digraph, FlowProblem, FlowValues, Record, _deficiency, _edge_ids, _int, _ints
from .errors import InfeasibleError
from .extint import ExtInt, NEG_INF, POS_INF, as_extint, plain


class CutCertificate(Record):
    """A node set with its Hoffman deficiency.

    deficiency = supply(Z) - in_upper(Z) + out_lower(Z); positive values
    certify that no feasible flow exists.
    """

    nodes: frozenset[int]
    deficiency: int


def hoffman_deficiency(problem: FlowProblem, nodes: Iterable[int]) -> ExtInt:
    """supply(Z) - in_upper(Z) + out_lower(Z) for a node set Z."""
    return _deficiency(problem, problem._lo, problem._hi, nodes)


class _Residual:
    """Mutable residual network with plain-int capacities.

    Arcs are stored in pairs: arc i and its reverse i^1.  The network
    starts at zero flow, with every +inf (None) capacity replaced by the
    finite surrogate ``infinity`` (module docstring).
    """

    def __init__(self, node_count: int, ends: Sequence, capacity: Sequence,
                 reverse: Sequence, infinity: int):
        """Per (tail, head) in ends, arc tail->head and its reverse head->tail."""
        self.adj: list[list[int]] = [[] for _ in range(node_count)]
        for aid, (tail, head) in enumerate(ends):
            self.adj[tail].append(2 * aid)
            self.adj[head].append(2 * aid + 1)
        self.head = [node for tail, head in ends for node in (head, tail)]
        pairs = zip(capacity, reverse)
        self.cap = [infinity if c is None else c for pair in pairs for c in pair]
        self.res = list(self.cap)

    def values(self, base: Sequence[int]) -> list[int]:
        """Per edge e, base[e] plus the net flow pushed along arc 2e."""
        return [b + c - r for b, c, r in zip(base, self.cap[::2], self.res[::2])]

    def levels(self, source: int, sink: int = -1, least: int = 1) -> list[int]:
        """Breadth-first distance from the source over arcs with residual >= least.

        Unreached nodes get -1.  The search stops once the sink is
        labelled; otherwise the labelled nodes are the whole
        source-reachable set.
        """
        head, res, adj = self.head, self.res, self.adj
        level = [-1] * len(adj)
        level[source] = 0
        queue = [source]
        for u in queue:  # also visits the nodes appended below
            d = level[u] + 1
            for aid in adj[u]:
                if res[aid] >= least:
                    v = head[aid]
                    if level[v] < 0:
                        level[v] = d
                        if v == sink:
                            return level
                        queue.append(v)
        return level

    def max_flow(self, source: int, sink: int) -> tuple[int, list[int]]:
        """Dinic's algorithm; return (value, levels of the final search).

        Each phase labels the nodes by distance from the source and then
        saturates every shortest path by depth-first search, keeping one
        current arc per node and dropping dead ends from the level graph.
        The nodes with a final level >= 0 are the source-reachable set of
        the final residual.
        """
        head, res, adj = self.head, self.res, self.adj
        total = 0
        while True:
            level = self.levels(source, sink)
            if level[sink] < 0:
                return total, level
            current = [0] * len(adj)
            path: list[int] = []  # arcs from the source to u
            u = source
            while True:
                if u == sink:
                    delta = min([res[aid] for aid in path])
                    for aid in path:
                        res[aid] -= delta
                        res[aid ^ 1] += delta
                    total += delta
                    # go back to the tail of the first saturated arc
                    for i, aid in enumerate(path):
                        if not res[aid]:
                            break
                    del path[i:]
                    u = head[aid ^ 1]
                    continue
                arcs, i, want = adj[u], current[u], level[u] + 1
                end = len(arcs)
                while i < end:
                    aid = arcs[i]
                    if res[aid] and level[head[aid]] == want:
                        break
                    i += 1
                current[u] = i
                if i < end:
                    path.append(aid)
                    u = head[aid]
                elif path:  # dead end: leave the level graph
                    level[u] = -1
                    u = head[path.pop() ^ 1]
                else:  # the source is a dead end: the flow is blocking
                    break


def max_flow(
    graph: Digraph, capacities: Sequence, source: int, sink: int
) -> tuple[ExtInt, FlowValues, frozenset[int]]:
    """Integral max flow from source to sink under edge capacities.

    One capacity per edge; capacities may be ints or ExtInt (+inf
    allowed) and must be >= 0.  Source and sink are distinct nodes.
    Returns (value, flow per edge, min-cut source side).  The cut is the
    source-reachable set of the final residual network; its capacity
    equals the flow value.  When an all-infinite source-sink path exists
    the value is +inf, no flow is pushed, and the set holds the nodes
    reachable from the source along infinite edges (sink included).
    """
    if len(capacities) != graph.edge_count:
        raise ValueError(
            f"expected {graph.edge_count} capacities, got {len(capacities)}"
        )
    for name, node in (("source", source), ("sink", sink)):
        if _int(node, name) not in range(graph.node_count):
            raise ValueError(f"{name} {node} is not a node of the graph")
    if source == sink:
        raise ValueError("source and sink must differ")
    caps = [as_extint(cap) for cap in capacities]
    for e, cap in enumerate(caps):
        if cap < 0:
            raise ValueError(f"edge {e} has negative capacity {cap}")
    view = plain(caps)
    infinity = 1 + sum(c for c in view if c is not None)
    net = _Residual(graph.node_count, graph.edges, view, [0] * graph.edge_count, infinity)
    level = net.levels(source, least=infinity)
    if level[sink] >= 0:
        value, flow = POS_INF, (0,) * graph.edge_count
    else:
        finite, level = net.max_flow(source, sink)
        value = ExtInt(finite)
        flow = tuple(net.values([0] * graph.edge_count))
    return value, flow, frozenset(v for v, d in enumerate(level) if d >= 0)


# -- Hoffman feasibility -------------------------------------------------


def _start(start: Sequence[int] | None, edge_count: int) -> tuple[int, ...] | None:
    """A caller's start flow: None, or edge_count ints (ValueError, TypeError)."""
    if start is not None and len(start) != edge_count:
        raise ValueError("start must have one entry per edge")
    return None if start is None else _ints(start, "start")


def _super_network(
    n: int, edges: Sequence, supply: Sequence[int], lower: Sequence, upper: Sequence, start=None
) -> tuple[_Residual, list[int], int]:
    """The super-source/super-sink network of ``edges`` under (lower, upper).

    The bounds are plain views (extint.plain).  Returns (net, base,
    demand_total); the source is node n, the sink n + 1.  Edge e starts
    at base[e], start[e] clamped into its bounds when a start is given;
    arc 2e may raise it to its upper bound and the reverse arc 2e+1
    lower it to its lower bound (module docstring).
    """
    source, sink = n, n + 1
    if start is None:
        base = [lo if lo is not None else 0 if hi is None else min(0, hi)
                for lo, hi in zip(lower, upper)]
    else:
        base = [lo if lo is not None and b < lo else hi if hi is not None and b > hi else b
                for b, lo, hi in zip(start, lower, upper)]
    excess = list(supply)
    for (u, v), b in zip(edges, base):
        excess[v] -= b
        excess[u] += b
    # the edges' arcs, then one terminal arc per unbalanced node in node order
    terminals = [(v, sink) if r > 0 else (source, v) for v, r in enumerate(excess) if r]
    demand_total = sum(r for r in excess if r > 0)
    net = _Residual(
        n + 2, [*edges, *terminals],
        [None if hi is None else hi - b for b, hi in zip(base, upper)]
        + [abs(r) for r in excess if r],
        [None if lo is None else b - lo for b, lo in zip(base, lower)] + [0] * len(terminals),
        demand_total + 1,
    )
    return net, base, demand_total


def _feasibility_network(problem: FlowProblem, upper: Sequence, start=None):
    """Max flow on the _super_network of the problem's lower bounds and plain ``upper``.

    Returns (net, base, sink_side, deficiency).  sink_side is the
    complement of the source-reachable set, and its deficiency is
    demand_total - value (module docstring): zero exactly when the flow
    is feasible, and the same for every start.
    """
    n = problem.node_count
    net, base, demand = _super_network(
        n, problem.graph.edges, problem.supply, problem._lo, upper, start
    )
    value, level = net.max_flow(n, n + 1)
    return net, base, frozenset(v for v in range(n) if level[v] < 0), demand - value


def find_feasible_mflow(problem: FlowProblem) -> FlowValues | CutCertificate:
    """Find an integral feasible flow, or a positively violated node set.

    Exactly one of the two outcomes is returned: a flow passing
    check_flow, or a CutCertificate with deficiency > 0.
    """
    net, base, violating, deficiency = _feasibility_network(problem, problem._hi)
    if deficiency == 0:
        return tuple(net.values(base))
    return CutCertificate(violating, deficiency)


def most_violating_set(problem: FlowProblem) -> CutCertificate:
    """The node set maximizing the Hoffman deficiency.

    The maximum is always >= 0 (the empty set has deficiency 0); it is
    > 0 exactly when no feasible flow exists.  Ties are resolved by the
    complement of the source-reachable min-cut side.
    """
    *_, nodes, deficiency = _feasibility_network(problem, problem._hi)
    return CutCertificate(nodes, deficiency)


def require_feasible(problem: FlowProblem) -> FlowValues:
    """find_feasible_mflow, raising InfeasibleError on a certificate."""
    outcome = find_feasible_mflow(problem)
    if isinstance(outcome, CutCertificate):
        raise InfeasibleError(certificate=outcome)
    return outcome


# -- parametric cut subroutine --------------------------------------------


def nd_cut_subroutine(
    problem: FlowProblem,
    level_edges: Iterable[int],
    g_prime: Sequence,
    mu: int,
    start: Sequence[int] | None = None,
) -> tuple[frozenset[int], int]:
    """Minimize mu*in_L(Z) + in_g'(Z) - out_f(Z) - supply(Z) over node sets.

    Requires an int mu >= 0, level edge ids in range(edge_count), one g'
    value per edge (None is +inf, as in a plain view), g' >= lower and
    g' > -inf (a -inf entry would make the objective unbounded below).
    The empty set scores 0, so the minimum is always <= 0.  Solved on
    the feasibility network under (lower, g' + mu on L); the returned set
    is the union of all minimizers (module docstring).  The network
    starts at ``start``, one int per edge clamped into those bounds,
    when given: a flow feasible under bounds close to these leaves
    little to route, and the answer is the same for every start.
    """
    if _int(mu, "mu") < 0:
        raise ValueError("mu must be non-negative")
    m = problem.edge_count
    if len(g_prime) != m:
        raise ValueError("g_prime must have one entry per edge")
    level = _edge_ids(level_edges, m, "level edge id")
    start = _start(start, m)
    view = plain(g_prime)
    for e, (g, lo) in enumerate(zip(view, problem._lo)):
        # None is -inf, refused, or +inf, which dominates every lower bound
        if g is None and g_prime[e] == NEG_INF:
            raise ValueError(f"g_prime must be finite or +inf (edge {e})")
        if None not in (g, lo) and g < lo:
            raise ValueError(f"g_prime must dominate lower (edge {e})")
    raised = [g + mu if g is not None and e in level else g for e, g in enumerate(view)]
    *_, nodes, deficiency = _feasibility_network(problem, raised, start)
    return nodes, -deficiency
