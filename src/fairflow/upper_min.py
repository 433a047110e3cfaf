"""Flows saturating as few designated edges as possible, with dual chains.

Given a subset L of edges with finite, non-tight bounds, find a feasible
flow minimizing the number of L-edges sitting at their upper bound,
together with a nested chain of node sets certifying the minimum:

    min #saturated = in_L(chain) - sum(in_upper(Vi) - out_lower(Vi) - supply(Vi))

One min-cost flow with 0/1 costs gives both.  The extended program keeps
the original edges, with upper - 1 on L, and appends a [0, 1] parallel
copy of each L-edge in id order; copies cost one and everything else
zero.  The copy flow counts the saturated edges, and folding it back
onto the originals gives the flow.

A feasible flow of the problem splits into one of the extended program:
an L-edge at its upper bound moves its last unit to its copy.  From
there mincost's one cycle-canceling engine (_cancel) cancels negative
residual circuits.  Each costs at most -1, and the cost is the
saturated count, so a run makes at most
(saturated at start - count) + 1 <= |L| + 1 Bellman-Ford searches of
O(nm) each: strongly polynomial.  The start is the caller's flow when it passes check_flow,
else require_feasible's, one max flow.  narrow_box passes each round's
BetaResult.flow, feasible under the clamped bounds, so a round makes
no max flow here.

The labels of the engine's last, cycle-free search are the shortest
distances from a zero root over the final residual: the
pointwise-largest optimal dual <= 0, which is the same for every
optimal flow and so for every start.  Compressed to consecutive
integer levels from zero, they cut out the chain: its members are the
upper level sets of the positive levels.

Every output is verified against the five saturation criteria (O1)-(O5)
before being returned; a failure raises InternalCertificateFailure and
always indicates a bug, never a property of the input.  The criteria
are one window per edge (_chain_window), made once per solve: the flow
is checked against it and the dual value counts its (O3) and (O4)
edges; everything else reads plain-int views.  The public checks run
the same helpers on a window of their own, and apply_round_bounds,
which narrow_box calls after each solve, turns its window into the
round's rewritten ExtInt bounds.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .core import FlowProblem, FlowValues, Record, _ids, _ints, check_flow
from .errors import InternalCertificateFailure
from .extint import ExtInt, NEG_INF, POS_INF, as_extint
from .maxflow import hoffman_deficiency, require_feasible
from .mincost import _cancel


class Chain(Record):
    """Strictly nested node sets V1 > V2 > ... > Vq (possibly none)."""

    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        object.__setattr__(self, "sets", tuple(frozenset(s) for s in self.sets))
        for i, s in enumerate(self.sets):
            if not s:
                raise ValueError("chain members must be non-empty")
            if i > 0 and not s < self.sets[i - 1]:
                raise ValueError("chain members must be strictly nested")

    def __len__(self) -> int:
        return len(self.sets)

    def depth(self, node_count: int) -> dict[int, int]:
        """Per node of range(node_count), how many members hold it."""
        depth = dict.fromkeys(range(node_count), 0)  # KeyError on other nodes
        for member in self.sets:
            for v in member:
                depth[v] += 1
        return depth


# -- optimality criteria ----------------------------------------------------


def _chain_window(
    problem: FlowProblem, level: frozenset[int], chain: Chain
) -> tuple[list, list, list[str | None]]:
    """Per edge, the window [lower, upper] the chain leaves, and its criterion.

    (O1) an edge leaving any member gets [lower, lower];
    (O2) a non-counted edge entering one gets [upper, upper];
    (O3) a counted edge entering exactly one gets [upper-1, upper];
    (O4) a counted edge entering two or more gets [upper, upper];
    (O5) a counted edge crossing nothing gets [lower, upper-1];
    every other edge keeps its bounds, with criterion None.

    Exactly one case applies: by nesting, an edge u->v enters
    depth[v] - depth[u] members (Chain.depth) when that is positive,
    and leaves some member exactly when it is negative.

    Finite ends are plain ints, infinite ones NEG_INF or POS_INF: (O1)
    on a -inf lower gives [-inf, -inf], which no value meets.
    """
    lower = [NEG_INF if b is None else b for b in problem._lo]
    upper = [POS_INF if b is None else b for b in problem._hi]
    criteria: list[str | None] = [None] * problem.edge_count
    depth = chain.depth(problem.node_count)
    for e, (u, v) in enumerate(problem.graph.edges):
        # lower[e] and upper[e] still hold the problem's bounds here
        entered = depth[v] - depth[u]
        if entered < 0:
            criteria[e], upper[e] = "O1", lower[e]
        elif e not in level:
            if entered:
                criteria[e], lower[e] = "O2", upper[e]
        elif entered == 1:
            criteria[e], lower[e] = "O3", upper[e] - 1
        elif entered:
            criteria[e], lower[e] = "O4", upper[e]
        else:
            criteria[e], upper[e] = "O5", upper[e] - 1
    return lower, upper, criteria


def _outside(lower: list, upper: list, criteria: list, values: Sequence[int]) -> list[str]:
    """One message per edge with a criterion whose value lies outside its window."""
    return [
        f"{label}: edge {e} has value {values[e]}, outside [{lower[e]}, {upper[e]}]"
        for e, label in enumerate(criteria)
        if label is not None and not lower[e] <= values[e] <= upper[e]
    ]


def _round_ids(problem: FlowProblem, level_edges: Iterable[int], chain: Chain) -> frozenset[int]:
    """The level edge ids, after checking them and every chain node against the problem."""
    for member in chain.sets:
        _ids(member, problem.node_count, "chain node id")
    return _ids(level_edges, problem.edge_count, "level edge id")


def verify_O1_O5(
    problem: FlowProblem, level_edges: Iterable[int], values: Sequence[int], chain: Chain
) -> list[str]:
    """Check the five saturation-optimality criteria; empty list means pass.

    Each edge with a criterion must lie in the window _chain_window
    gives it; one message per edge outside, starting with the label of
    the criterion it violates.  Level edge and chain node ids outside
    the problem, and values not one per edge, raise ValueError.
    """
    level = _round_ids(problem, level_edges, chain)
    if len(values) != problem.edge_count:
        raise ValueError(f"expected {problem.edge_count} values, got {len(values)}")
    return _outside(*_chain_window(problem, level, chain), values)


def apply_round_bounds(
    problem: FlowProblem, beta: int, level_set: Iterable[int], chain: Chain
) -> tuple[tuple[ExtInt, ...], tuple[ExtInt, ...], frozenset[int]]:
    """Rewrite a reduction round's bounds from the chain geometry.

    Every cap-level edge must sit at beta, so the windows (f', g') of
    the criteria (O1)-(O5), _chain_window, pin a cap-level edge entering
    two or more chain members at beta, narrow one entering one member
    to [beta-1, beta] and cap one crossing nothing at beta-1.  Returns
    (f', g', narrowed), narrowed holding the cap-level edges entering a
    member.  Ids outside the problem raise ValueError.
    """
    level_set = _round_ids(problem, level_set, chain)
    for e in sorted(level_set):
        if problem._hi[e] != beta:
            raise InternalCertificateFailure(f"cap-level edge {e} must sit at beta {beta}")
    f_prime, g_prime, criteria = _chain_window(problem, level_set, chain)
    narrowed = frozenset(e for e, c in enumerate(criteria) if c in ("O3", "O4"))
    # the returned bounds are ExtInt, one object per distinct end
    ends = {b: as_extint(b) for b in {*f_prime, *g_prime}}
    return tuple(ends[b] for b in f_prime), tuple(ends[b] for b in g_prime), narrowed


def _dual_value(problem: FlowProblem, criteria: list[str | None], chain: Chain) -> int:
    """Entered L-edges (O3, O4) minus the slack terms; ValueError if one is infinite."""
    # a member's slack in_upper - out_lower - supply is minus its deficiency
    slack = sum(hoffman_deficiency(problem, m).finite for m in chain.sets)
    return criteria.count("O3") + criteria.count("O4") + slack


def chain_dual_value(problem: FlowProblem, level_edges: Iterable[int], chain: Chain) -> int:
    """Dual objective: entered L-edges minus the chain's slack terms.

    Ids outside the problem raise ValueError, as does an infinite slack term.
    """
    level = _round_ids(problem, level_edges, chain)
    return _dual_value(problem, _chain_window(problem, level, chain)[2], chain)


def solve_upper_minimizer(
    problem: FlowProblem, level_edges: Iterable[int], start: Sequence[int] | None = None
) -> tuple[FlowValues, Chain, int]:
    """Feasible flow saturating as few ``level_edges`` as possible.

    Level edge ids must be ints (TypeError) in range(edge_count), each
    with finite, non-tight bounds (ValueError).  ``start`` is None or
    one int per edge (ValueError, TypeError).  A start that passes
    check_flow is split onto the extended program and canceled from
    (module docstring); None or an infeasible start is replaced by
    require_feasible's flow, one max flow.  Returns (flow, chain,
    saturated_count); the chain and count are the same for every start,
    and the run makes at most (saturated at start - count) + 1
    Bellman-Ford searches.  Before returning it re-checks complementary
    slackness of the compressed labels on the final residual, the
    criteria (O1)-(O5), that every chain member is a proper subset with
    a finite boundary term, and that the chain's dual value equals the
    count.  Raises InfeasibleError, with require_feasible's certificate,
    when the problem has no feasible flow at all.
    """
    level = _ids(level_edges, problem.edge_count, "level edge id")
    copied = sorted(level)
    lower, upper = problem._lo, problem._hi
    for e in copied:
        if lower[e] is None or upper[e] is None:
            raise ValueError(f"edge {e} needs finite bounds to be counted")
        if lower[e] == upper[e]:
            raise ValueError(f"edge {e} is tight; remove it from the count set")
    n, m, k, edges = problem.node_count, problem.edge_count, len(copied), problem.graph.edges
    if start is not None:
        if len(start) != m:
            raise ValueError("start must have one entry per edge")
        start = _ints(start, "start")
    if start is None or check_flow(problem, start) is not None:
        start = require_feasible(problem)
    # the split start: an L-edge at its upper bound moves its last unit to its copy
    values = [z - (e in level and z == upper[e]) for e, z in enumerate(start)]
    values += [start[e] - values[e] for e in copied]
    upper = [hi - 1 if e in level else hi for e, hi in enumerate(upper)] + [1] * k
    tails, heads, caps = [], [], []
    ends = edges + tuple(edges[e] for e in copied)
    for (u, v), z, lo, hi in zip(ends, values, lower + [0] * k, upper):
        tails += (u, v)
        heads += (v, u)
        caps += (None if hi is None else hi - z, None if lo is None else z - lo)
    weights = [0] * (2 * m) + [1, -1] * k
    labels, live = _cancel(n, tails, heads, weights, caps, values)
    count = sum(values[m:])
    for e, z in zip(copied, values[m:]):
        values[e] += z  # fold the copies back onto their edges
    values = tuple(values[:m])
    rank = {p: i for i, p in enumerate(sorted(set(labels)))}
    y = [rank[p] for p in labels]
    # compressing keeps the sign of each difference and never enlarges it
    if any(y[heads[s]] - y[tails[s]] > weights[s] for s in live):
        raise InternalCertificateFailure("residual potentials violate complementary slackness")
    levels = range(1, max(y) + 1)
    chain = Chain(tuple(frozenset(v for v, yv in enumerate(y) if yv >= i) for i in levels))
    window = _chain_window(problem, level, chain)
    failed = _outside(*window, values)
    if failed:
        raise InternalCertificateFailure("saturation criteria failed: " + "; ".join(failed))
    if any(len(member) >= problem.node_count for member in chain.sets):
        raise InternalCertificateFailure("chain member is not a proper subset")
    try:
        dual = _dual_value(problem, window[2], chain)
    except ValueError:  # the finite value of an infinite deficiency
        raise InternalCertificateFailure("chain member has an infinite boundary term") from None
    if dual != count:
        raise InternalCertificateFailure("dual chain value does not match count")
    return values, chain, count
