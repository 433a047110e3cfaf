"""Existence of a fair flow under infinite bounds, and bound finitization.

With infinite bounds on focus edges a dec-min flow may not exist: focus
values can be pushed down forever along certain circuits.  The
unboundedness directions form a digraph: every edge with lower bound
-inf kept forwards, every non-focus edge with upper bound +inf added
reversed.  A di-circuit of that digraph meeting the focus set is
exactly a recipe for improving any feasible flow indefinitely, so a
fair flow exists iff no such circuit does.

When one exists the circuit is returned as a witness; when none does,
the bounds can be made finite on the focus set without changing the set
of fair flows, after which the finite-bound machinery applies.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import FlowProblem, FlowValues, _deficiency
from .errors import InternalCertificateFailure, NoDecMinError
from .extint import ext_min
from .maxflow import require_feasible


@dataclass(frozen=True)
class InfArc:
    """One unboundedness direction.

    Forward arcs come from edges whose lower bound is -inf (their value
    can always drop); reversed arcs from non-focus edges whose upper
    bound is +inf (their value can always grow).
    """

    tail: int
    head: int
    origin: int
    reversed_: bool


@dataclass(frozen=True)
class ExistenceResult:
    exists: bool
    witness: tuple[InfArc, ...] | None

    def __bool__(self) -> bool:
        return self.exists


def infinity_digraph(problem: FlowProblem) -> tuple[InfArc, ...]:
    arcs: list[InfArc] = []
    for e, (u, v) in enumerate(problem.graph.edges):
        if not problem.lower[e].is_finite:
            arcs.append(InfArc(u, v, e, False))
        if e not in problem.focus and not problem.upper[e].is_finite:
            arcs.append(InfArc(v, u, e, True))
    return tuple(arcs)


_Adjacency = list[list[InfArc]]


def _adjacency(node_count: int, arcs: tuple[InfArc, ...]) -> _Adjacency:
    """Outgoing arcs per node, in arc order."""
    out: _Adjacency = [[] for _ in range(node_count)]
    for arc in arcs:
        out[arc.tail].append(arc)
    return out


def _search(out: _Adjacency, start: int, goal: int = -1) -> dict[int, InfArc | None]:
    """BFS map from each node reached to its arc (None at start); stops at goal."""
    prev: dict[int, InfArc | None] = {start: None}
    queue = [start]
    for node in queue:  # also visits the nodes appended below
        if node == goal:
            break
        for arc in out[node]:
            if arc.head not in prev:
                prev[arc.head] = arc
                queue.append(arc.head)
    return prev


def _path(out: _Adjacency, start: int, goal: int) -> list[InfArc]:
    """Shortest arc path start -> goal (empty when equal)."""
    prev = _search(out, start, goal)
    if goal not in prev:
        raise InternalCertificateFailure(
            f"no path from {start} to {goal} although the search reached it"
        )
    path = []
    node = goal
    while node != start:
        arc = prev[node]
        path.append(arc)
        node = arc.tail
    path.reverse()
    return path


def exists_decmin(problem: FlowProblem) -> ExistenceResult:
    """Decide whether a fair (dec-min) flow exists.

    Looks for a di-circuit of the unboundedness digraph through a focus
    edge: the focus edges that can appear on one are exactly the
    forward arcs with focus origin, and such an arc u->v lies on one
    iff v reaches u.  The witness closes the first such arc (in edge-id
    order) with a shortest return path.  One search per focus edge with
    lower bound -inf costs O(k(n+m)), the order of the searches
    finitize_bounds runs anyway, so narrow_box keeps its order.
    """
    arcs = infinity_digraph(problem)
    out = _adjacency(problem.node_count, arcs)
    for arc in arcs:
        if arc.reversed_ or arc.origin not in problem.focus:
            continue
        if arc.tail in _search(out, arc.head, arc.tail):
            return ExistenceResult(False, (arc, *_path(out, arc.head, arc.tail)))
    return ExistenceResult(True, None)


def shift_along_witness(values, circuit: tuple[InfArc, ...]) -> FlowValues:
    """Push one unit along a witness circuit: feasible and fairer, forever."""
    shifted = list(values)
    for arc in circuit:
        shifted[arc.origin] += 1 if arc.reversed_ else -1
    return tuple(shifted)


def finitize_bounds(problem: FlowProblem) -> FlowProblem:
    """Equivalent problem with finite bounds on the focus set.

    The set of fair flows is preserved exactly.  Upper bounds on focus
    edges are capped at the largest component of any one feasible flow;
    each -inf focus lower bound is replaced by the implied finite bound
    read off the unboundedness-digraph reachable set of its head.
    Identity when the focus bounds are already finite.

    Requires a fair flow to exist (NoDecMinError otherwise) and a
    feasible problem (InfeasibleError propagates).
    """
    if problem.finite_on_focus():
        return problem
    result = exists_decmin(problem)
    if not result.exists:
        raise NoDecMinError(witness=result.witness)
    sample = require_feasible(problem)

    upper = list(problem.upper)
    if any(not problem.upper[e].is_finite for e in problem.focus):
        cap = max(sample)
        for e in sorted(problem.focus):
            upper[e] = ext_min(problem.upper[e], cap)
    capped = problem.with_bounds(upper=upper)

    out = _adjacency(problem.node_count, infinity_digraph(problem))
    lower = list(problem.lower)
    for e in sorted(problem.focus):
        if problem.lower[e].is_finite:
            continue
        tail, head = problem.graph.edges[e]
        region = frozenset(_search(out, head))
        if tail in region:
            raise InternalCertificateFailure(
                f"edge {e} closes an unboundedness circuit missed by the existence test"
            )
        # e enters the region, so its own upper bound is taken back out
        implied = _deficiency(capped, lower, upper, region) + upper[e]
        if not implied.is_finite or implied > upper[e]:
            raise InternalCertificateFailure(
                f"implied bound {implied} on edge {e} is not usable"
            )
        lower[e] = implied
    return problem.with_bounds(lower=lower, upper=upper)
