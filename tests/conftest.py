"""Shared fixtures: canonical instances and a seeded random generator."""

from __future__ import annotations

import random

import pytest

from fairflow import Digraph, ExtInt, FlowProblem, NEG_INF, POS_INF
from fairflow.core import imbalances


def bound(value):
    if value == "-inf":
        return NEG_INF
    if value == "+inf":
        return POS_INF
    return ExtInt(value)


def build(nodes, edges, lower, upper, supply, focus=(), cost=None) -> FlowProblem:
    return FlowProblem(
        graph=Digraph(nodes, tuple(edges)),
        lower=tuple(bound(b) for b in lower),
        upper=tuple(bound(b) for b in upper),
        supply=tuple(supply),
        focus=frozenset(focus),
        cost=None if cost is None else tuple(cost),
    )


def subcommands(parser) -> list[str]:
    """The subcommand names an argparse parser admits."""
    return list(parser._subparsers._group_actions[0].choices)


@pytest.fixture
def diamond() -> FlowProblem:
    """Nodes a,b,s,t = 0..3; s->a, s->b, a->t, b->t; box [0,2]; 2 units s to t."""
    return build(
        4,
        [(2, 0), (2, 1), (0, 3), (1, 3)],
        [0, 0, 0, 0],
        [2, 2, 2, 2],
        [0, 0, -2, 2],
        focus=[0, 1, 2, 3],
    )


@pytest.fixture
def asym() -> FlowProblem:
    """Nodes s,a,t = 0..2; two parallel s->a edges [0,3] and [0,1], a->t [0,4];
    3 units s to t; focus = the parallel pair."""
    return build(
        3,
        [(0, 1), (0, 1), (1, 2)],
        [0, 0, 0],
        [3, 1, 4],
        [-3, 0, 3],
        focus=[0, 1],
    )


@pytest.fixture
def triangle_unbounded() -> FlowProblem:
    """Di-circuit with lower -inf everywhere: no fair flow exists."""
    return build(
        3,
        [(0, 1), (1, 2), (2, 0)],
        ["-inf", "-inf", "-inf"],
        [0, 0, 0],
        [0, 0, 0],
        focus=[0, 1, 2],
    )


def random_problem(
    rng: random.Random,
    max_nodes: int = 5,
    max_edges: int = 8,
    max_width: int = 3,
    feasible: bool | None = None,
    focus_mode: str | None = None,
    costs: bool = False,
) -> FlowProblem:
    """A random small instance with finite bounds.

    feasible=True derives the supply from a random point of the box, so
    a feasible flow is guaranteed; None flips a coin; False makes no
    promise either way.  focus_mode: "all", "none", "some" or None for
    a random choice among the three.
    """
    n = rng.randint(2, max_nodes)
    m = rng.randint(1, max_edges)
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        if rng.random() < 0.08:
            v = u  # occasional self-loop
        else:
            v = rng.randrange(n)
        edges.append((u, v))
    lower = [rng.randint(-3, 3) for _ in range(m)]
    upper = [lo + rng.randint(0, max_width) for lo in lower]
    graph = Digraph(n, tuple(edges))
    if feasible is None:
        feasible = rng.random() < 0.7
    if feasible:
        point = [rng.randint(lower[e], upper[e]) for e in range(m)]
        supply = imbalances(graph, point)
    else:
        supply = [rng.randint(-3, 3) for _ in range(n)]
        supply[-1] -= sum(supply)
    if focus_mode is None:
        focus_mode = rng.choice(["all", "none", "some", "some"])
    if focus_mode == "all":
        focus = frozenset(range(m))
    elif focus_mode == "none":
        focus = frozenset()
    else:
        focus = frozenset(e for e in range(m) if rng.random() < 0.6)
    cost = tuple(rng.randint(-3, 3) for _ in range(m)) if costs else None
    return FlowProblem(
        graph=graph,
        lower=tuple(ExtInt(b) for b in lower),
        upper=tuple(ExtInt(b) for b in upper),
        supply=tuple(supply),
        focus=focus,
        cost=cost,
    )
