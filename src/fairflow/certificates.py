"""Independently checkable fairness certificates.

A feasible flow is fair (dec-min on the focus set) exactly when its
residual digraph has no improving di-circuit, and that in turn holds
exactly when a feasible potential-vector exists.  Both objects can be
checked arc by arc without trusting the solver, which is the point:

* An improving di-circuit is a residual cycle whose unit augmentation
  makes the sorted focus profile strictly smaller.  Improvement is
  detected through vector costs: focus arcs are tagged +-unit at the
  index of their adjusted value among the distinct value levels
  (backward arcs are rated one below their edge value, since that is
  the value the edge takes after the push), all other arcs cost zero,
  and a circuit improves iff its cost sum is lexicographically
  negative.  find_improving_dicircuit searches for one with the plain
  integer search, after weighting level l by a power of B large enough
  that no simple circuit can carry a lower level past a higher one
  (see its docstring).

* A potential-vector assigns each node an integer vector whose
  lexicographic differences are dominated by the arc costs.  Summing
  the feasibility inequalities around any circuit telescopes to zero,
  so a feasible vector rules out improving circuits wholesale.

The construction of the vector is level-by-level scalar shortest
distances, recursing on the tight arcs of each level.

The residual digraph is core's CostedResidual, as in min-cost canceling;
its arc costs play no part in the fairness order.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ._bf import bellman_ford
from .core import (
    CostedResidual,
    FlowProblem,
    FlowValues,
    ResidualArc,
    build_costed_residual,
    check_flow,
)
from .errors import InfiniteBoundsError, InternalCertificateFailure


@dataclass(frozen=True)
class LevelCost:
    """Signed unit vector costs over the residual arcs.

    levels holds the distinct adjusted focus-arc values in decreasing
    order; arc_sign / arc_level give each residual arc its sign (+1
    forward focus, -1 backward focus, 0 otherwise) and level index (-1
    for non-focus arcs).  The vector dimension equals len(levels) and
    is at most twice the focus size.
    """

    levels: tuple[int, ...]
    arc_sign: tuple[int, ...]
    arc_level: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.levels)

    def vector(self, arc_index: int) -> tuple[int, ...]:
        """The full k-dimensional cost of one arc."""
        cost = [0] * self.dimension
        if self.arc_sign[arc_index]:
            cost[self.arc_level[arc_index]] = self.arc_sign[arc_index]
        return tuple(cost)


@dataclass(frozen=True)
class PotentialVector:
    """Per-node integer vectors certifying fairness lexicographically."""

    dimension: int
    values: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class DecMinVerdict:
    """Fairness verdict with its certificate: exactly one side is set."""

    decmin: bool
    potential: PotentialVector | None
    circuit: tuple[ResidualArc, ...] | None


def build_level_cost(
    problem: FlowProblem, values: Sequence[int]
) -> tuple[CostedResidual, LevelCost]:
    """Residual digraph of the flow plus its level cost vectors."""
    aux = build_costed_residual(problem, values)
    adjusted = {
        idx: values[arc.origin] if arc.forward else values[arc.origin] - 1
        for idx, arc in enumerate(aux.arcs)
        if arc.origin in problem.focus
    }
    levels = tuple(sorted(set(adjusted.values()), reverse=True))
    index_of = {value: i for i, value in enumerate(levels)}
    sign = [0] * len(aux.arcs)
    level = [-1] * len(aux.arcs)
    for idx, value in adjusted.items():
        sign[idx] = 1 if aux.arcs[idx].forward else -1
        level[idx] = index_of[value]
    return aux, LevelCost(levels, tuple(sign), tuple(level))


def find_improving_dicircuit(
    aux: CostedResidual, cost: LevelCost
) -> tuple[ResidualArc, ...] | None:
    """A residual di-circuit with lexicographically negative cost, or None.

    The scalar search runs on level costs weighted by powers of B: an
    arc tagged at level l costs sign * B**(k-1-l), B = 2*len(arcs)+1.
    A simple circuit has at most len(arcs) arcs, so each component of
    its vector sum lies in [-len(arcs), len(arcs)] and the scalar sum
    has the sign of the first nonzero component: its lexicographic
    sign.  Predecessor-graph cycles are simple, and a lexicographically
    negative closed walk contains a negative simple circuit, so the
    verdict is that of a search over the vectors themselves.
    """
    k = cost.dimension
    base = 2 * len(aux.arcs) + 1
    _, cycle = bellman_ford(
        aux.node_count,
        [a.tail for a in aux.arcs],
        [a.head for a in aux.arcs],
        [
            sign * base ** (k - 1 - level) if sign else 0
            for sign, level in zip(cost.arc_sign, cost.arc_level)
        ],
    )
    if cycle is None:
        return None
    return tuple(aux.arcs[i] for i in cycle)


def apply_dicircuit(values: Sequence[int], circuit: Sequence[ResidualArc]) -> FlowValues:
    """Push one unit around a residual di-circuit.

    Feasibility of the result is guaranteed by the residual
    construction; whether the profile improves depends on the circuit.
    """
    out = list(values)
    for arc in circuit:
        out[arc.origin] += 1 if arc.forward else -1
    return tuple(out)


def build_potential_vector(
    aux: CostedResidual, cost: LevelCost
) -> PotentialVector | tuple[ResidualArc, ...]:
    """A feasible potential-vector, or the improving circuit refuting it.

    Level by level: scalar shortest distances under that level's +-1
    costs give one component; arcs kept for deeper levels are exactly
    the distance-tight ones, so a scalar negative cycle found at level
    i sums to zero on every earlier level and is lexicographically
    negative overall.
    """
    active = list(range(len(aux.arcs)))
    components: list[list[int]] = []
    for lvl in range(cost.dimension):
        tails = [aux.arcs[i].tail for i in active]
        heads = [aux.arcs[i].head for i in active]
        weights = [
            cost.arc_sign[i] if cost.arc_level[i] == lvl else 0 for i in active
        ]
        dist, cycle = bellman_ford(aux.node_count, tails, heads, weights)
        if cycle is not None:
            return tuple(aux.arcs[active[i]] for i in cycle)
        components.append(dist)
        active = [
            i
            for pos, i in enumerate(active)
            if dist[heads[pos]] - dist[tails[pos]] == weights[pos]
        ]
    # equal rows share one tuple: many nodes often get the same vector,
    # and callers may keep many certificates
    rows: dict[tuple[int, ...], tuple[int, ...]] = {}
    values = []
    for v in range(aux.node_count):
        row = tuple(components[lvl][v] for lvl in range(cost.dimension))
        values.append(rows.setdefault(row, row))
    potential = PotentialVector(cost.dimension, tuple(values))
    bad = _first_infeasible_arc(aux, cost, potential)
    if bad is not None:
        raise InternalCertificateFailure(
            f"constructed potential-vector violates arc {bad}"
        )
    return potential


def _first_infeasible_arc(
    aux: CostedResidual, cost: LevelCost, potential: PotentialVector
) -> int | None:
    """Index of the first arc violating the lexicographic inequality."""
    for idx, arc in enumerate(aux.arcs):
        diff = tuple(
            potential.values[arc.head][i] - potential.values[arc.tail][i]
            for i in range(potential.dimension)
        )
        if diff > cost.vector(idx):
            return idx
    return None


def potential_is_feasible(
    aux: CostedResidual, cost: LevelCost, potential: PotentialVector
) -> bool:
    """Arc-by-arc lexicographic feasibility of a potential-vector."""
    return _first_infeasible_arc(aux, cost, potential) is None


def is_decmin(problem: FlowProblem, values: Sequence[int]) -> DecMinVerdict:
    """Decide fairness of a feasible flow, with a checkable certificate.

    Returns either a feasible potential-vector (flow is fair) or an
    improving di-circuit (it is not).  The flow must be feasible and
    the focus bounds finite.
    """
    violation = check_flow(problem, values)
    if violation is not None:
        raise ValueError(f"flow is not feasible: {violation.message}")
    if not problem.finite_on_focus():
        raise InfiniteBoundsError("fairness verdicts need finite focus bounds")
    aux, cost = build_level_cost(problem, values)
    outcome = build_potential_vector(aux, cost)
    if isinstance(outcome, PotentialVector):
        return DecMinVerdict(True, outcome, None)
    return DecMinVerdict(False, None, outcome)
