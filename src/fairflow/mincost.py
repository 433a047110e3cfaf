"""Minimum-cost feasible flows by negative-cycle canceling.

A feasible flow is cost-minimal iff its costed residual digraph has no
negative di-circuit, and in that case shortest-path distances in the
residual give an integer potential certifying it.  The solver leans on
both directions: start from any feasible flow, cancel negative residual
cycles until none remain, then the potentials fall out for free.

Costs are restricted to integers so all arithmetic is exact.  The
residual digraph is core's CostedResidual, shared with the fairness
certificates; finite capacities are plain ints, unbounded arcs +inf.
"""

from __future__ import annotations

from ._bf import bellman_ford
from .core import (
    CostedResidual,
    FlowProblem,
    FlowValues,
    ResidualArc,
    _edge_residual_arcs,
)
from .errors import NegativeCycleError, UnboundedCostError
from .extint import POS_INF
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

    Establishes any feasible flow, then cancels negative residual
    di-circuits until the residual is conservative.  The residual is
    kept in place: edge e owns slot 2e (forward arc) and slot 2e+1
    (backward arc), and after a cancellation only the slots of the
    circuit's edges are rebuilt.  Each search sees the present slots in
    slot order, the order build_costed_residual gives.

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
    for e in range(problem.edge_count):
        if cost[e] < 0 and not problem.upper[e].is_finite:
            raise UnboundedCostError(
                f"edge {e} has negative cost and upper bound +inf"
            )
        if cost[e] > 0 and not problem.lower[e].is_finite:
            raise UnboundedCostError(
                f"edge {e} has positive cost and lower bound -inf"
            )
    values = list(require_feasible(problem))
    slots: list[ResidualArc | None] = [None] * (2 * problem.edge_count)

    def rebuild(e: int) -> None:
        slots[2 * e] = slots[2 * e + 1] = None
        for arc in _edge_residual_arcs(problem, values, cost, e):
            slots[2 * e + (not arc.forward)] = arc

    for e in range(problem.edge_count):
        rebuild(e)
    while True:
        residual = CostedResidual(
            problem.node_count, tuple(arc for arc in slots if arc is not None)
        )
        cycle = find_negative_dicircuit(residual)
        if cycle is None:
            return tuple(values)
        delta = min(arc.capacity for arc in cycle)
        if delta == POS_INF:
            raise UnboundedCostError(
                "negative di-circuit with infinite residual capacity"
            )
        for arc in cycle:
            values[arc.origin] += delta if arc.forward else -delta
        for e in {arc.origin for arc in cycle}:
            rebuild(e)
