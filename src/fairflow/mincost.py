"""Minimum-cost feasible flows by negative-cycle canceling.

A feasible flow is cost-minimal iff its costed residual digraph has no
negative di-circuit, and in that case shortest-path distances in the
residual give an integer potential certifying it.  The solver leans on
both directions: start from any feasible flow, cancel negative residual
cycles until none remain (Klein, Management Science 14(3), 1967), then
the potentials fall out for free.

One engine, _cancel, does so over plain int capacities for two callers:
min_cost_mflow with the user's costs, integers so that all arithmetic
is exact, and upper_min.solve_upper_minimizer with 0/1 costs, which
reads its chain off the labels of the last, cycle-free search.  core's
CostedResidual, shared with the fairness certificates, is what
find_negative_dicircuit and residual_potentials read.
"""

from __future__ import annotations

from ._bf import bellman_ford
from .core import CostedResidual, FlowProblem, FlowValues, ResidualArc
from .errors import InternalCertificateFailure, NegativeCycleError, UnboundedCostError
from .maxflow import require_feasible


def _scalar_bf(residual: CostedResidual):
    return bellman_ford(
        residual.node_count,
        [a.tail for a in residual.arcs],
        [a.head for a in residual.arcs],
        [a.cost for a in residual.arcs],
    )


def find_negative_dicircuit(
    residual: CostedResidual,
) -> tuple[ResidualArc, ...] | None:
    """A di-circuit of negative total cost, or None if conservative."""
    _, cycle = _scalar_bf(residual)
    if cycle is None:
        return None
    return tuple(residual.arcs[i] for i in cycle)


def residual_potentials(residual: CostedResidual) -> list[int]:
    """Integer potentials with pi(head) - pi(tail) <= cost on every arc.

    Computed as shortest distances from a virtual root with zero-cost
    arcs to every node.  Raises NegativeCycleError when the residual is
    not conservative.
    """
    dist, cycle = _scalar_bf(residual)
    if cycle is not None:
        raise NegativeCycleError("residual digraph has a negative di-circuit")
    return dist


def min_cost_mflow(problem: FlowProblem) -> FlowValues:
    """Integral feasible flow minimizing total cost.

    Establishes any feasible flow, then _cancel cancels negative
    residual di-circuits until the residual is conservative.  The
    residual is kept as one list of plain capacities: entry 2e is the
    room to raise edge e (upper - z, forward arc, cost c) and entry 2e+1
    the room to lower it (z - lower, backward arc, cost -c), None for
    +inf as in extint.plain.  Each search runs over the non-zero entries
    in that order, the arc order build_costed_residual gives, and a
    cancellation changes only the entries of the circuit's edges.

    Raises InfeasibleError when no feasible flow exists, and
    UnboundedCostError when the cost guard fails: every negative-cost
    edge needs a finite upper bound and every positive-cost edge a
    finite lower bound, otherwise the minimum may not exist.

    Running time: each search is one Bellman-Ford pass, O(nm), and each
    canceled circuit lowers the cost by at least one.  Taking the first
    circuit found, the number of cancellations is therefore bounded only
    by the initial cost gap, O(m*C*U) for costs up to C in absolute
    value and finite bound widths up to U: pseudo-polynomial.
    """
    cost = problem.cost or (0,) * problem.edge_count
    lo, hi = problem._lo, problem._hi
    tails, heads, weights = [], [], []
    for e, (u, v) in enumerate(problem.graph.edges):
        if cost[e] < 0 and hi[e] is None:
            raise UnboundedCostError(f"edge {e} has negative cost and upper bound +inf")
        if cost[e] > 0 and lo[e] is None:
            raise UnboundedCostError(f"edge {e} has positive cost and lower bound -inf")
        tails += (u, v)
        heads += (v, u)
        weights += (cost[e], -cost[e])
    values = list(require_feasible(problem))
    caps = []
    for e, z in enumerate(values):
        caps += (None if hi[e] is None else hi[e] - z, None if lo[e] is None else z - lo[e])
    _cancel(problem.node_count, tails, heads, weights, caps, values)
    return tuple(values)


def _cancel(
    node_count: int, tails: list, heads: list, weights: list, caps: list, values: list
) -> tuple[list[int], list[int]]:
    """Cancel negative residual circuits in place until none remain.

    Slots 2e and 2e+1 are edge e's forward and backward arcs, with
    tails, heads, weights and plain capacities (None for +inf) as in
    min_cost_mflow; each cancellation updates ``caps`` and ``values``.
    Returns (labels, live) of the last search: the shortest distances
    from a zero root over the live slots, the non-zero ones in order.
    """
    while True:
        live = [s for s, c in enumerate(caps) if c != 0]
        labels, cycle = bellman_ford(
            node_count,
            [tails[s] for s in live],
            [heads[s] for s in live],
            [weights[s] for s in live],
        )
        if cycle is None:
            return labels, live
        slots = [live[i] for i in cycle]
        finite = [caps[s] for s in slots if caps[s] is not None]
        if not finite:
            # unreachable by the cost guard: an infinite forward arc (upper +inf) costs
            # >= 0, an infinite backward one (lower -inf) -cost >= 0, so none is negative
            raise InternalCertificateFailure(
                "negative di-circuit with infinite residual capacity"
            )
        delta = min(finite)
        for s in slots:
            values[s >> 1] += -delta if s & 1 else delta
            if caps[s] is not None:
                caps[s] -= delta
            if caps[s ^ 1] is not None:
                caps[s ^ 1] += delta
