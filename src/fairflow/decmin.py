"""The narrow box of fair flows and the flows themselves.

The central result implemented here: the fair (dec-min) integral flows
of a bounded modular-flow problem are exactly the integral flows of a
tightened bound pair (f*, g*) whose width is at most one on every focus
edge.  The pair is produced by a reduction loop.  Each round:

1. drops tight focus edges (their value is forced anyway),
2. computes the smallest feasible cap beta for the focus uppers,
3. finds a flow saturating as few cap-level edges as possible together
   with its dual chain,
4. rewrites the bounds from the chain geometry; the cap-level edges
   entering the chain become width-<=-1 and leave the focus set.

The focus set strictly shrinks every round, so at most |focus| rounds
run, and at most n - 1 of them have a chain: an edge whose ends a chain
puts at different depths is pinned by (O1)/(O2), then stripped as
tight, or narrowed by (O3)/(O4), so each focus edge left joins nodes of
equal depth in every chain so far, and the edge a chain round narrows
splits such a class of nodes.  At most one terminal round, without a
chain, follows.  Flows inside the final box are then ordinary
feasibility / min-cost queries: one for a fair flow, one for the
cheapest fair flow, and the increasing-maximal variant is the mirror
image under negation.
"""

from __future__ import annotations


from .core import FlowProblem, FlowValues, Record, _rebounded
from .errors import InfeasibleError, InternalCertificateFailure, NoDecMinError
from .existence import InfArc, finitize_bounds
from .extint import ExtInt
from .maxflow import CutCertificate, require_feasible
from .mincost import min_cost_mflow
from .newton import NDTrace, compute_beta
from .upper_min import Chain, apply_round_bounds, solve_upper_minimizer


class NarrowBox(Record):
    """Tightened bounds characterizing all fair flows.

    Componentwise f <= f_star <= g_star <= g, with
    0 <= g_star - f_star <= 1 and both finite on every focus edge.
    """

    f_star: tuple[ExtInt, ...]
    g_star: tuple[ExtInt, ...]


class ReductionRound(Record):
    """One round of the tightening loop.

    A normal round carries the cap beta, the upper bounds right after
    capping (g_capped, the state the chain was computed against), the
    cap-level edge set, the dual chain, the rewritten bounds, the
    narrowed edges leaving the focus set, and the remaining focus.  A
    terminal round (beta None, no chain) occurs when cap cascading
    turned every remaining focus edge tight; only the bounds and
    removals are meaningful then.
    """

    beta: int | None
    g_capped: tuple[ExtInt, ...]
    level_set: frozenset[int]
    chain: Chain | None
    f_prime: tuple[ExtInt, ...]
    g_prime: tuple[ExtInt, ...]
    narrowed: frozenset[int]
    focus_next: frozenset[int]
    removed_tight: tuple[int, ...]
    nd_trace: NDTrace | None


def narrow_box(problem: FlowProblem) -> tuple[NarrowBox, tuple[ReductionRound, ...]]:
    """Compute the narrow box (f*, g*) and the per-round trace.

    Infinite focus bounds are first made finite via the existence
    module (NoDecMinError when no fair flow exists).  Raises
    InfeasibleError when the problem has no feasible flow at all.
    """
    problem = finitize_bounds(problem)
    flow = require_feasible(problem)
    current, focus = problem, set(problem.focus)  # later, the last round's rewritten problem
    rounds: list[ReductionRound] = []
    while focus:
        # compute_beta first drops the focus edges that are already tight;
        # flow is feasible for this round: the input's, or the last round's
        beta_result = compute_beta(current, flow=flow)
        focus.difference_update(beta_result.removed_tight_edges)
        beta, level_set = beta_result.beta, beta_result.saturated_level_set
        clamped = _rebounded(
            current, current.lower, beta_result.clamped_upper, focus, lo=current._lo
        )
        # every focus edge turned tight (beta None): a last round, no chain
        current, chain, narrowed = clamped, None, frozenset()
        if focus:
            # the last Newton probe's flow is feasible for clamped: start there
            flow, chain, count = solve_upper_minimizer(clamped, level_set, beta_result.flow)
            if count == 0:
                raise InternalCertificateFailure(
                    "no flow reaches the cap even though the cap is minimal"
                )
            f_prime, g_prime, narrowed = apply_round_bounds(clamped, beta, level_set, chain)
            if not narrowed:
                raise InternalCertificateFailure(
                    "round narrowed no edge; the reduction would not terminate"
                )
            focus -= narrowed
            current = _rebounded(clamped, f_prime, g_prime, focus)
        rounds.append(
            ReductionRound(
                beta=beta,
                g_capped=clamped.upper,
                level_set=level_set,
                chain=chain,
                f_prime=current.lower,
                g_prime=current.upper,
                narrowed=narrowed,
                focus_next=frozenset(focus),
                removed_tight=beta_result.removed_tight_edges,
                nd_trace=beta_result.nd_trace,
            )
        )
    box = NarrowBox(current.lower, current.upper)
    f_star, g_star = current._lo, current._hi
    for e in problem.focus:
        if f_star[e] is None or g_star[e] is None or not 0 <= g_star[e] - f_star[e] <= 1:
            raise InternalCertificateFailure(
                f"box is not narrow on focus edge {e}: "
                f"[{box.f_star[e]}, {box.g_star[e]}]"
            )
    return box, tuple(rounds)


def decmin_flow(problem: FlowProblem) -> FlowValues:
    """A fair (decreasingly minimal on the focus set) integral flow."""
    box, _ = narrow_box(problem)
    return require_feasible(problem.with_bounds(box.f_star, box.g_star))


def cheapest_decmin_flow(problem: FlowProblem) -> FlowValues:
    """The cheapest fair flow under the problem's integer costs.

    Fair flows are exactly the flows of the narrow box, so this is a
    single min-cost query over the tightened bounds.  The box is
    strongly polynomial to compute, but the query cancels first-found
    negative circuits, bounded only by the initial cost gap, O(m*C*U)
    (see min_cost_mflow): this function is pseudo-polynomial.
    """
    box, _ = narrow_box(problem)
    return min_cost_mflow(problem.with_bounds(box.f_star, box.g_star))


def incmax_flow(problem: FlowProblem) -> FlowValues:
    """An increasingly maximal flow: the mirror image of a fair flow.

    z is inc-max on the focus set exactly when -z is dec-min for the
    negated problem.  Certificates refer to the input.  InfeasibleError
    carries the complement of the mirror's violating set: negation
    turns the deficiency of Z into that of V - Z.  NoDecMinError
    carries the mirror's witness reversed (ends swapped, reversed_
    flipped, order reversed): shifting a feasible input flow along it
    stays feasible and raises the focus values, forever.
    """
    try:
        mirrored = decmin_flow(problem.negated())
    except InfeasibleError as exc:
        cert = exc.certificate
        nodes = frozenset(range(problem.node_count)) - cert.nodes
        raise InfeasibleError(certificate=CutCertificate(nodes, cert.deficiency)) from None
    except NoDecMinError as exc:
        witness = tuple(
            InfArc(a.head, a.tail, a.origin, not a.reversed_) for a in reversed(exc.witness)
        )
        raise NoDecMinError("no inc-max flow exists", witness=witness) from None
    return tuple(-z for z in mirrored)
