"""Ceiling-based Newton iteration for the smallest feasible level cap.

Two layers: a generic driver that finds the smallest integer mu with
mu*b(X) >= p(X) for all X (the smallest "good" mu, equal to the maximum
of ceil(p(X)/b(X)) over sets with b(X) > 0), and on top of it the
computation of the smallest integer cap beta such that clamping the
focus edges' upper bounds at beta keeps the problem feasible.

The driver only needs an argmax oracle for p(X) - mu*b(X); here that
oracle is one min-cut probe, which returns X with its score mu*b(X) -
p(X), so p = mu*b - score.

compute_beta carries one plain-int upper list through the cascade and
the Newton stage; each drop is the feasibility network of the problem
under that list with the level edges lowered to beta1, so no
FlowProblem is built.  beta1 is at least every focus lower bound, so
the drop's bounds are valid; narrow_box still checks the clamped ones.
clamped_upper becomes ExtInt once, at the return.  Only the first drop
starts warm, from a given flow clamped into its bounds (maxflow docstring).

All probes of a cap continue the failed drop's max flow: mu = 0 reads
its cut, and each later probe first raises the level edges' arcs by the
rise in mu (Gallo, Grigoriadis & Tarjan, SIAM J. Comput. 18(1), 1989;
maxflow module docstring).  The last probe's flow, feasible under the
cap, is BetaResult.flow.  The iteration count is bounded by |L|, the
largest b-value: the tentative mu values strictly increase while the
b-values of the maximizers strictly decrease.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .core import FlowProblem, Record, check_flow
from .errors import AssumptionViolatedError, InternalCertificateFailure
from .extint import ExtInt
# find_feasible_mflow stays bound here for bench/spans.py's tracer to wrap
from .maxflow import _feasibility_network, find_feasible_mflow, require_feasible

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
    tight, leaving nothing to cap.  compute_beta also sets the attribute
    ``flow``, not a field: a flow feasible under clamped_upper.
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
    otherwise); a given flow must be feasible for the problem, is checked
    in O(m) instead (ValueError naming the violation) and starts the
    first drop.  Works by cascading the top bound value downwards: while
    the top level can drop to the next candidate level max(top lower
    bound, second upper value) feasibly, clamp and continue (newly tight
    edges leave the focus set); when the drop fails, the exact cap is
    recovered by the Newton driver over min-cut probes that continue the
    failed drop's max flow (module docstring).  The result's ``flow`` is
    the last probe's flow, or without a cap the last feasible flow.
    """
    if not problem.finite_on_focus():
        raise ValueError("compute_beta requires finite bounds on the focus set")
    start = flow  # the first drop's base: the flow given, feasible one level up
    if flow is None:
        flow = require_feasible(problem)
    else:
        violation = check_flow(problem, flow)
        if violation is not None:
            raise ValueError(f"flow is not feasible: {violation.message}")
    # one plain-int upper list, finite on the focus set, through the cascade
    lo, hi = problem._lo, list(problem._hi)
    n, focus = problem.node_count, set(problem.focus)
    removed: list[int] = []
    beta, saturated, trace = None, frozenset(), None  # unless a drop fails

    def strip_tight(edges: Sequence[int]) -> None:
        for e in edges:  # in id order
            if lo[e] == hi[e]:
                focus.discard(e)
                removed.append(e)

    strip_tight(sorted(focus))
    while focus:
        g_values = sorted({hi[e] for e in focus}, reverse=True)
        top = g_values[0]
        f_top = max(lo[e] for e in focus)
        level = sorted(e for e in focus if hi[e] == top)
        level_set = frozenset(level)
        beta1 = max(f_top, g_values[1]) if len(g_values) > 1 else f_top
        dropped = [beta1 if e in level_set else h for e, h in enumerate(hi)]
        net, base, nodes, deficiency = _feasibility_network(problem, dropped, start)
        start = None  # later drops start cold
        if deficiency == 0:
            hi, flow = dropped, net.values(base)
            strip_tight(level)  # only the level edges changed
            continue

        # The drop is infeasible: find the smallest good raise mu over the
        # dropped bounds, on its network; beta = beta1 + mu.
        level_ends = [problem.graph.edges[e] for e in level]
        probed = -1  # the mu of the last probe; the network stands at max(probed, 0)

        def oracle(mu: int) -> tuple[frozenset[int], int, int]:
            nonlocal probed, nodes, deficiency
            if mu <= probed:
                raise InternalCertificateFailure(f"Newton probe mu {mu} does not rise")
            if mu > 0:
                rise = mu - max(probed, 0)
                for e in level:
                    net.cap[2 * e] += rise
                    net.res[2 * e] += rise
                value, levels = net.max_flow(n, n + 1)
                nodes = frozenset(v for v in range(n) if levels[v] < 0)
                deficiency -= value
            probed = mu
            b = sum(1 for u, v in level_ends if v in nodes and u not in nodes)
            return nodes, mu * b + deficiency, b

        mu_min, trace = nd_min_good_mu(oracle, m_bound=len(level))
        if probed != mu_min or deficiency:
            raise InternalCertificateFailure(f"the probed network is infeasible at mu {mu_min}")
        beta, saturated, flow = beta1 + mu_min, level_set, net.values(base)
        for e in level:
            hi[e] = beta
        break
    # ExtInt once: the problem's objects where unchanged, one per new value
    made = {h: ExtInt(h) for h in {h for h, old in zip(hi, problem._hi) if h != old}}
    upper = tuple(g if h == old else made[h] for g, h, old in zip(problem.upper, hi, problem._hi))
    result = BetaResult(beta, upper, saturated, tuple(removed), trace)
    object.__setattr__(result, "flow", tuple(flow))  # not a field: outside repr, ==, hash, replace
    return result
