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
of fair flows, after which the finite-bound machinery applies.  Both
answers come from one search per focus edge with lower bound -inf
(_focus_regions).
"""

from __future__ import annotations


from .core import FlowProblem, FlowValues, Record, _deficiency
from .errors import InternalCertificateFailure, NoDecMinError
from .extint import ExtInt, plain
from .maxflow import require_feasible


class InfArc(Record):
    """One unboundedness direction.

    Forward arcs come from edges whose lower bound is -inf (their value
    can always drop); reversed arcs from non-focus edges whose upper
    bound is +inf (their value can always grow).
    """

    tail: int
    head: int
    origin: int
    reversed_: bool


class ExistenceResult(Record):
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


def _search(out: list[list[InfArc]], start: int) -> dict[int, InfArc | None]:
    """BFS map from each node reached to the arc first reaching it (None at start)."""
    prev: dict[int, InfArc | None] = {start: None}
    queue = [start]
    for node in queue:  # also visits the nodes appended below
        for arc in out[node]:
            if arc.head not in prev:
                prev[arc.head] = arc
                queue.append(arc.head)
    return prev


def _focus_regions(problem: FlowProblem) -> tuple[tuple[InfArc, ...] | None, dict]:
    """One search per focus edge u->v with lower bound -inf, in edge-id order.

    The region of the edge is what v reaches.  Returns (witness,
    regions): the witness is the first edge whose region holds u, closed
    by the search's shortest path back to u; when no region holds its
    edge's tail, the witness is None and regions maps every such edge id
    to its region.  O(k(n+m)) for k such edges.
    """
    arcs = infinity_digraph(problem)
    out: list[list[InfArc]] = [[] for _ in range(problem.node_count)]
    for arc in arcs:
        out[arc.tail].append(arc)
    regions = {}
    for arc in arcs:
        if arc.reversed_ or arc.origin not in problem.focus:
            continue
        region = _search(out, arc.head)
        if arc.tail in region:
            path = []
            node = arc.tail
            while node != arc.head:
                path.append(region[node])
                node = path[-1].tail
            return (arc, *reversed(path)), regions
        regions[arc.origin] = region
    return None, regions


def exists_decmin(problem: FlowProblem) -> ExistenceResult:
    """Decide whether a fair (dec-min) flow exists.

    Looks for a di-circuit of the unboundedness digraph through a focus
    edge: the focus edges that can appear on one are exactly the
    forward arcs with focus origin, and such an arc u->v lies on one
    iff v reaches u.  The witness closes the first such arc (in edge-id
    order) with a shortest return path.  finitize_bounds reads its
    implied bounds off the regions of these same searches.
    """
    witness, _ = _focus_regions(problem)
    return ExistenceResult(witness is None, witness)


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
    read off the unboundedness-digraph reachable set of its head, found
    by the searches that decide existence.  Identity when the focus
    bounds are already finite.

    Requires a feasible problem (InfeasibleError, checked first) and a
    fair flow to exist (NoDecMinError with exists_decmin's witness).
    """
    if problem.finite_on_focus():
        return problem
    sample = require_feasible(problem)
    witness, regions = _focus_regions(problem)
    if witness is not None:
        raise NoDecMinError(witness=witness)

    upper = list(problem.upper)
    if any(not problem.upper[e].is_finite for e in problem.focus):
        cap = ExtInt(max(sample))
        for e in sorted(problem.focus):
            upper[e] = min(problem.upper[e], cap)

    lower, lo, hi = list(problem.lower), list(problem._lo), plain(upper)
    for e, region in regions.items():
        # e enters its region, so its own upper bound is taken back out
        implied = _deficiency(problem, lo, hi, region) + upper[e]
        if not implied.is_finite or implied > upper[e]:
            raise InternalCertificateFailure(
                f"implied bound {implied} on edge {e} is not usable"
            )
        lower[e], lo[e] = implied, implied.finite
    return problem.with_bounds(lower=lower, upper=upper)
