"""Ceiling-based Newton iteration for the smallest feasible level cap.

Two layers: a generic driver that finds the smallest integer mu with
mu*b(X) >= p(X) for all X (the smallest "good" mu, equal to the maximum
of ceil(p(X)/b(X)) over sets with b(X) > 0), and on top of it the
computation of the smallest integer cap beta such that clamping the
focus edges' upper bounds at beta keeps the problem feasible.

The driver only needs an argmax oracle for p(X) - mu*b(X); here that
oracle is one min-cut probe, which returns X with its score mu*b(X) -
p(X), so p = mu*b - score.  The probe at mu = 0 is the failed drop's
own feasibility network, so that drop's certificate answers it.  Every
other probe starts from the latest feasible flow the cascade holds, so
it routes only that flow's excess over the raised caps.  The
iteration count is bounded by the largest b-value: the tentative mu
values strictly increase while the b-values of the maximizers strictly
decrease.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .core import FlowProblem, Record, check_flow
from .errors import AssumptionViolatedError
from .extint import ExtInt
from .maxflow import (
    CutCertificate,
    find_feasible_mflow,
    nd_cut_subroutine,
    require_feasible,
)

#: argmax oracle: mu -> (maximizer X of p(X) - mu*b(X), p(X), b(X))
ArgmaxOracle = Callable[[int], tuple[frozenset[int], int, int]]


class NDIteration(Record):
    """One probe of the driver: a bad mu and the set that witnesses it."""

    mu: int
    argmax: frozenset[int]
    p_value: int
    b_value: int


class NDTrace(Record):
    """Full iteration record; mu strictly increases, b strictly decreases."""

    iterations: tuple[NDIteration, ...]
    mu_min: int


def nd_min_good_mu(oracle: ArgmaxOracle, m_bound: int) -> tuple[int, NDTrace]:
    """Smallest integer mu >= 0 with p(X) - mu*b(X) <= 0 for all X.

    Standing assumptions, checked as they surface: p(X) <= 0 whenever
    b(X) = 0 (otherwise no good mu exists), and some set has p > 0
    (otherwise mu = 0 is already good).  Violations raise
    AssumptionViolatedError.

    m_bound caps the iteration count (any upper bound on max b works);
    exceeding it means the oracle is not a true argmax.
    """
    x, p, b = oracle(0)
    if p <= 0:
        raise AssumptionViolatedError("mu = 0 is already good")
    if b == 0:
        raise AssumptionViolatedError("no good mu exists: p > 0 on a set with b = 0")
    iterations = [NDIteration(0, x, p, b)]
    while True:
        prev = iterations[-1]
        mu = -(-prev.p_value // prev.b_value)  # the ceiling of p / b
        x, p, b = oracle(mu)
        if p - mu * b <= 0:
            return mu, NDTrace(tuple(iterations), mu)
        if b == 0:
            raise AssumptionViolatedError(
                "no good mu exists: p > 0 on a set with b = 0"
            )
        iterations.append(NDIteration(mu, x, p, b))
        if len(iterations) > m_bound:
            raise AssumptionViolatedError(
                f"iteration bound {m_bound} exceeded; argmax oracle is inconsistent"
            )


class BetaResult(Record):
    """Outcome of the smallest-cap computation.

    beta is the smallest integer cap keeping feasibility; clamped_upper
    is the upper-bound vector after capping; saturated_level_set holds
    the focus edges now sitting exactly at beta; removed_tight_edges
    lists focus edges that became fixed (lower == upper) on the way and
    left the focus set.  beta is None only when every focus edge became
    tight, leaving nothing to cap.
    """

    beta: int | None
    clamped_upper: tuple[ExtInt, ...]
    saturated_level_set: frozenset[int]
    removed_tight_edges: tuple[int, ...]
    nd_trace: NDTrace | None


def compute_beta(problem: FlowProblem, flow: Sequence[int] | None = None) -> BetaResult:
    """Smallest cap beta so that upper := min(upper, beta) on the focus
    set keeps the problem feasible.

    Requires finite bounds on the focus set and a feasible problem.
    Without ``flow`` one feasibility solve proves it (InfeasibleError
    otherwise); a given flow must be feasible for the problem and is
    checked in O(m) instead (ValueError naming the violation).  Works by
    cascading the top bound value downwards: while the top level can
    drop to the next candidate level max(top lower bound, second upper
    value) feasibly, clamp and continue (newly tight edges leave the
    focus set); when the drop fails, the exact cap is recovered by the
    Newton driver over min-cut probes, each started from the last
    feasible flow: the last accepted drop's, or the entry flow.
    """
    if not problem.finite_on_focus():
        raise ValueError("compute_beta requires finite bounds on the focus set")
    if flow is None:
        flow = require_feasible(problem)
    else:
        violation = check_flow(problem, flow)
        if violation is not None:
            raise ValueError(f"flow is not feasible: {violation.message}")
    # the level arithmetic reads plain ints, finite on the focus set
    lo, hi = problem._lo, problem._hi
    upper = list(problem.upper)
    focus = set(problem.focus)
    removed: list[int] = []

    def strip_tight() -> None:
        for e in sorted(focus):
            if lo[e] == hi[e]:
                focus.discard(e)
                removed.append(e)

    strip_tight()
    while focus:
        g_values = sorted({hi[e] for e in focus}, reverse=True)
        top = g_values[0]
        f_top = max(lo[e] for e in focus)
        level = sorted(e for e in focus if hi[e] == top)
        level_set = frozenset(level)
        beta1 = max(f_top, g_values[1]) if len(g_values) > 1 else f_top
        cap = ExtInt(beta1)
        dropped = [cap if e in level_set else b for e, b in enumerate(upper)]
        drop = problem.with_bounds(upper=dropped)
        cut = find_feasible_mflow(drop)
        if not isinstance(cut, CutCertificate):
            upper, hi, flow = dropped, drop._hi, cut
            strip_tight()
            continue

        # The drop is infeasible: find the smallest good raise mu over the
        # dropped bounds; beta = beta1 + mu.
        level_ends = [problem.graph.edges[e] for e in level]

        def oracle(mu: int) -> tuple[frozenset[int], int, int]:
            if mu == 0:  # the network the failed drop has just solved
                nodes, value = cut.nodes, -cut.deficiency
            else:
                nodes, value = nd_cut_subroutine(problem, level_set, drop._hi, mu, start=flow)
            b = sum(1 for u, v in level_ends if v in nodes and u not in nodes)
            return nodes, mu * b - value, b

        mu_min, trace = nd_min_good_mu(oracle, m_bound=problem.edge_count)
        beta = beta1 + mu_min
        cap = ExtInt(beta)
        for e in level:
            upper[e] = cap
        return BetaResult(beta, tuple(upper), level_set, tuple(removed), trace)
    return BetaResult(None, tuple(upper), frozenset(), tuple(removed), None)
