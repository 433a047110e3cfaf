"""Problem-file parsing and result serialization.

Problems travel as JSON documents:

    {"nodes": N,
     "supply": [m_0, ..., m_{N-1}],
     "edges": [{"tail": t, "head": h,
                "lower": int | "-inf", "upper": int | "+inf",
                "inF": bool, "cost": int (optional)}, ...]}

Infinities are the strings "-inf" / "+inf" (only on the matching side).
Parsing errors name the first offending field.  Serialization round-trips
losslessly.
"""

from __future__ import annotations

from .core import Digraph, FlowProblem
from .errors import FairFlowError
from .extint import ExtInt, NEG_INF, POS_INF


class ProblemFormatError(FairFlowError):
    """Malformed problem or flow document; names the first bad field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def _require_int(value: object, field: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFormatError(field, f"expected an integer, got {value!r}")
    return value


def _parse_bound(value: object, field: str, infinite: str) -> ExtInt:
    if value == infinite:
        return NEG_INF if infinite == "-inf" else POS_INF
    if isinstance(value, str):
        raise ProblemFormatError(field, f'only "{infinite}" is allowed here, got {value!r}')
    return ExtInt(_require_int(value, field))


def parse_problem(document: object) -> FlowProblem:
    """Build a FlowProblem from a decoded JSON document."""
    if not isinstance(document, dict):
        raise ProblemFormatError("$", "problem document must be a JSON object")
    if "nodes" not in document:
        raise ProblemFormatError("nodes", "missing")
    nodes = _require_int(document["nodes"], "nodes")
    if nodes <= 0:
        raise ProblemFormatError("nodes", "must be positive")
    supply = document.get("supply")
    if not isinstance(supply, list) or len(supply) != nodes:
        raise ProblemFormatError("supply", f"must be a list of {nodes} integers")
    supply = [_require_int(s, f"supply[{i}]") for i, s in enumerate(supply)]
    if sum(supply) != 0:
        raise ProblemFormatError("supply", "must sum to zero")
    raw_edges = document.get("edges")
    if not isinstance(raw_edges, list):
        raise ProblemFormatError("edges", "must be a list")
    edges, lower, upper, focus, cost = [], [], [], set(), []
    costed = False
    for i, spec in enumerate(raw_edges):
        where = f"edges[{i}]"
        if not isinstance(spec, dict):
            raise ProblemFormatError(where, "must be an object")
        tail = _require_int(spec.get("tail"), f"{where}.tail")
        head = _require_int(spec.get("head"), f"{where}.head")
        if not (0 <= tail < nodes):
            raise ProblemFormatError(f"{where}.tail", f"node id {tail} out of range")
        if not (0 <= head < nodes):
            raise ProblemFormatError(f"{where}.head", f"node id {head} out of range")
        lo = _parse_bound(spec.get("lower"), f"{where}.lower", "-inf")
        hi = _parse_bound(spec.get("upper"), f"{where}.upper", "+inf")
        if lo > hi:
            raise ProblemFormatError(f"{where}.lower", "lower exceeds upper")
        in_focus = spec.get("inF", False)
        if not isinstance(in_focus, bool):
            raise ProblemFormatError(f"{where}.inF", "must be a boolean")
        edges.append((tail, head))
        lower.append(lo)
        upper.append(hi)
        if in_focus:
            focus.add(i)
        if "cost" in spec:
            costed = True
            cost.append(_require_int(spec["cost"], f"{where}.cost"))
        else:
            cost.append(0)
    return FlowProblem(
        graph=Digraph(nodes, tuple(edges)),
        lower=tuple(lower),
        upper=tuple(upper),
        supply=tuple(supply),
        focus=frozenset(focus),
        cost=tuple(cost) if costed else None,
    )


def bound_to_json(bound: ExtInt) -> int | str:
    if bound == NEG_INF:
        return "-inf"
    if bound == POS_INF:
        return "+inf"
    return bound.finite


def problem_to_json(problem: FlowProblem) -> dict:
    edges = []
    for e, (tail, head) in enumerate(problem.graph.edges):
        spec: dict[str, object] = {
            "tail": tail,
            "head": head,
            "lower": bound_to_json(problem.lower[e]),
            "upper": bound_to_json(problem.upper[e]),
            "inF": e in problem.focus,
        }
        if problem.cost is not None:
            spec["cost"] = problem.cost[e]
        edges.append(spec)
    return {
        "nodes": problem.node_count,
        "supply": list(problem.supply),
        "edges": edges,
    }


def parse_flow(document: object, edge_count: int) -> tuple[int, ...]:
    """Flow values from either {"values": [...]} or a bare list."""
    values = document.get("values") if isinstance(document, dict) else document
    if not isinstance(values, list) or len(values) != edge_count:
        raise ProblemFormatError("values", f"must be a list of {edge_count} integers")
    return tuple(_require_int(z, f"values[{i}]") for i, z in enumerate(values))
