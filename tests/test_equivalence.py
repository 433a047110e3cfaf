"""Golden equivalence dump: the solver's outputs, hashed, must not move.

About 400 seeded instances (3-25 nodes, up to 100 edges, +-inf bounds
off the focus set, costs, and a few infeasible or infinite-focus
inputs) go through every public solver entry point.  The ``repr`` of
each answer or error is fed to one SHA-256.  DIGEST was recorded from
the solver whose inner loops still ran on ExtInt, and the plain-int
loops give the same; a refactor that changes any box, round, flow,
certificate or message fails here.  A frozenset's repr iterates in the
order the set was built, so a refactor that builds an equal set another
way also changes DIGEST: build the sets as before, and do not
regenerate the digest for it.

The dump also counts ExtInt and ResidualArc constructions.
EXTINT_CREATED is the count once the inner loops, and compute_beta's
cascade of drops, ran on plain ints, and RESIDUAL_ARCS_CREATED the
count once min-cost cycle canceling ran on plain residual capacities;
a change that brings either object back into a loop raises its count
and fails a ceiling test.

Regenerate them only for an intended change of outputs or counts:
``PYTHONPATH=src python tests/test_equivalence.py``.
"""

from __future__ import annotations

import functools
import hashlib
import random

from fairflow import (
    Digraph,
    ExtInt,
    FlowProblem,
    NEG_INF,
    POS_INF,
    ResidualArc,
    check_flow,
    cheapest_decmin_flow,
    compute_beta,
    decmin_flow,
    find_feasible_mflow,
    finitize_bounds,
    is_decmin,
    narrow_box,
    verify_O1_O5,
)
from fairflow.core import imbalances

INSTANCES = 400
DIGEST = "2a290c90d2c58fb517b2c5ddf20a9ab06fdfdb8d28ec20405d949851b9134c82"
EXTINT_CREATED = 50_220
RESIDUAL_ARCS_CREATED = 17_348


def instance(rng: random.Random) -> FlowProblem:
    """A random problem, feasible by construction unless its supply is nudged."""
    n = rng.randint(3, 25)
    m = min(rng.randint(1, min(100, 4 * n)), rng.randint(1, min(100, 4 * n)))  # small ones first
    edges = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(m))
    lower = [rng.randint(-4, 4) for _ in range(m)]
    upper = [lo + rng.randint(0, 6) for lo in lower]
    graph = Digraph(n, edges)
    supply = imbalances(graph, [rng.randint(lo, hi) for lo, hi in zip(lower, upper)])
    if rng.random() < 0.1:  # usually infeasible
        supply[0] += 1
        supply[-1] -= 1
    share = rng.choice([0.1, 0.5, 1.0])
    focus = frozenset(e for e in range(m) if rng.random() < share)
    infinite_focus = rng.random() < 0.1
    cost = []
    for e in range(m):
        if e not in focus or infinite_focus:
            if rng.random() < 0.15:
                lower[e] = NEG_INF
            if rng.random() < 0.15:
                upper[e] = POS_INF
        # the cost guard: no negative cost under +inf, no positive one over -inf
        low = 0 if upper[e] is POS_INF else -5
        high = 0 if lower[e] is NEG_INF else 5
        cost.append(rng.randint(low, high))
    return FlowProblem(graph, tuple(lower), tuple(upper), tuple(supply), focus, tuple(cost))


def perturbed(rng: random.Random, values) -> tuple[int, ...]:
    values = list(values)
    for _ in range(rng.randint(1, 3)):
        values[rng.randrange(len(values))] += rng.choice((-2, -1, 1, 2))
    return tuple(values)


def attempt(call, *args) -> str:
    """repr of the result, or of the error's type, text and certificate."""
    try:
        return repr(call(*args))
    except Exception as exc:  # every outcome is part of the dump
        return repr((type(exc).__name__, str(exc), getattr(exc, "certificate", None),
                     getattr(exc, "witness", None)))


@functools.cache
def dump() -> tuple[str, int, int]:
    """(SHA-256 of the dump, ExtInt and ResidualArc constructions while it ran)."""
    digest = hashlib.sha256()
    created = {ExtInt: 0, ResidualArc: 0}
    inits = {cls: cls.__init__ for cls in created}

    def counted(cls):
        def init(self, *args, **kwargs):
            created[cls] += 1
            inits[cls](self, *args, **kwargs)

        return init

    for cls in created:
        cls.__init__ = counted(cls)
    try:
        rng = random.Random("equivalence")
        for _ in range(INSTANCES):
            for line in instance_lines(rng, instance(rng)):
                digest.update(line.encode() + b"\n")
    finally:
        for cls, init in inits.items():
            cls.__init__ = init
    return digest.hexdigest(), created[ExtInt], created[ResidualArc]


def instance_lines(rng: random.Random, problem: FlowProblem):
    yield repr(problem)
    feasible = find_feasible_mflow(problem)
    yield repr(feasible)
    try:
        box, rounds = narrow_box(problem)
    except Exception:
        yield attempt(narrow_box, problem)
        yield attempt(decmin_flow, problem)
        return
    yield repr((box, rounds))
    flow = decmin_flow(problem)
    yield repr(flow)
    yield attempt(cheapest_decmin_flow, problem)
    finite = finitize_bounds(problem)
    yield attempt(compute_beta, finite)
    yield attempt(is_decmin, problem, flow)
    yield attempt(is_decmin, problem, feasible)
    for _ in range(3):
        bad = perturbed(rng, flow)
        yield attempt(check_flow, problem, bad)
        yield attempt(is_decmin, problem, bad)
        lower = finite.lower
        for r in rounds:
            if r.chain is not None:
                clamped = finite.with_bounds(lower, r.g_capped)
                yield repr(verify_O1_O5(clamped, r.level_set, bad, r.chain))
            lower = r.f_prime


def test_outputs_match_the_recorded_digest():
    digest, _, _ = dump()
    assert digest == DIGEST


def test_extint_constructions_do_not_grow():
    _, created, _ = dump()
    assert created <= EXTINT_CREATED


def test_residual_arc_constructions_do_not_grow():
    _, _, created = dump()
    assert created <= RESIDUAL_ARCS_CREATED


if __name__ == "__main__":
    print(*dump())
