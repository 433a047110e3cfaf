"""Seeded instance families for the three benchmark workloads.

Everything here is plain Python over problem documents in the JSON
format ``fairflow.jsonio`` reads, so the generator shares no code with
the program under test: the program receives only the generated
instances.  The same seed always yields the same documents; the digest
printed by the benchmark makes that checkable.
"""

from __future__ import annotations

import hashlib
import json
import random

# (nodes, edges, width, count) per rung.  Every edge is a focus edge.
# The (40, 120) rung is the largest group so that the median op time
# falls inside one rung; the wide rung has ~3x the rounds of the others.
LADDER = (
    (20, 60, 20, 3),
    (40, 120, 20, 5),
    (60, 200, 20, 1),
    (100, 400, 20, 1),
    (40, 120, 10**6, 1),
)

# (nodes, edges, width, count) per rung; about 5% focus edges, costs
# drawn from [-COST_RANGE, COST_RANGE].
COST_SPARSE = (
    (40, 200, 1000, 2),
    (60, 300, 1000, 3),
)
COST_FOCUS_SHARE = 0.05
COST_RANGE = 10

# CLI problems: CLI_FILES documents with 4..16 nodes.  The kind of file
# j is CLI_KINDS[j % len(CLI_KINDS)], so a quarter carry infinite focus
# bounds ("inf" has a fair flow, "no-decmin" has none).
CLI_FILES = 16
CLI_KINDS = ("finite", "finite", "finite", "inf", "finite", "finite", "infeasible", "no-decmin")
CLI_COMMANDS = ("decmin", "cheapest-decmin", "narrow-box", "exists", "incmax", "verify")
CLI_WIDTH = 6
CLI_COST_RANGE = 5

WORKLOADS = ("decmin-ladder", "cost-sparse", "cli-batch")


def _edge_list(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """m random edges without self-loops; parallel edges are allowed."""
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        edges.append((u, v + (v >= u)))
    return edges


def finite_document(
    rng: random.Random,
    n: int,
    m: int,
    width: int,
    focus_count: int,
    cost_range: int | None,
) -> tuple[dict, list[int]]:
    """A feasible problem with finite bounds, and the flow that proves it.

    Each edge gets lower in [0, width], a box of width in [0, width] and
    a value inside the box; supplies are that flow's net inflows.
    """
    edges = _edge_list(rng, n, m)
    focus = set(range(m)) if focus_count >= m else set(rng.sample(range(m), focus_count))
    supply = [0] * n
    specs, flow = [], []
    for e, (u, v) in enumerate(edges):
        lower = rng.randint(0, width)
        upper = lower + rng.randint(0, width)
        z = rng.randint(lower, upper)
        supply[v] += z
        supply[u] -= z
        spec = {"tail": u, "head": v, "lower": lower, "upper": upper, "inF": e in focus}
        if cost_range is not None:
            spec["cost"] = rng.randint(-cost_range, cost_range)
        specs.append(spec)
        flow.append(z)
    return {"nodes": n, "supply": supply, "edges": specs}, flow


def _cli_document(rng: random.Random, kind: str) -> tuple[dict, list[int]]:
    n = rng.randint(4, 16)
    m = rng.randint(n, 3 * n)
    doc, flow = finite_document(rng, n, m, CLI_WIDTH, rng.randint(1, m), CLI_COST_RANGE)
    edges = doc["edges"]
    focus = [e for e, spec in enumerate(edges) if spec["inF"]]
    if kind == "inf":
        # +inf uppers on some focus edges, and one focus edge with a -inf
        # lower: with no other infinite bound its arc closes no circuit
        # of unboundedness directions, so a fair flow exists.
        for e in rng.sample(focus, max(1, len(focus) // 3)):
            edges[e]["upper"] = "+inf"
        edges[rng.choice(focus)]["lower"] = "-inf"
    elif kind == "no-decmin":
        # A focus edge that can drop forever, closed into a circuit by a
        # parallel reversed non-focus edge that can grow forever.
        e = rng.choice(focus)
        edges[e]["lower"] = "-inf"
        edges.append({**edges[e], "lower": 0, "upper": "+inf", "inF": False, "cost": 0})
        flow.append(0)
    elif kind == "infeasible":
        total = sum(spec["upper"] for spec in edges) + 1
        doc["supply"][0] -= total
        doc["supply"][-1] += total
    return doc, flow


def generate(workload: str, seed: int) -> dict:
    """The seeded instance set of one workload.

    Returns {"documents": [...], "flows": [...], "argv": [...]} where
    argv (cli-batch only) lists one CLI call as (command, file index).
    flows holds, per document, a feasible flow for finite feasible
    documents (used as the input of ``verify``) and None otherwise.
    """
    rng = random.Random(f"{workload}:{seed}")
    documents, flows, argv = [], [], []
    if workload == "decmin-ladder":
        for n, m, width, count in LADDER:
            for _ in range(count):
                doc, _ = finite_document(rng, n, m, width, m, None)
                documents.append(doc)
                flows.append(None)
    elif workload == "cost-sparse":
        for n, m, width, count in COST_SPARSE:
            for _ in range(count):
                focus = round(COST_FOCUS_SHARE * m)
                doc, _ = finite_document(rng, n, m, width, focus, COST_RANGE)
                documents.append(doc)
                flows.append(None)
    elif workload == "cli-batch":
        for j in range(CLI_FILES):
            kind = CLI_KINDS[j % len(CLI_KINDS)]
            doc, flow = _cli_document(rng, kind)
            documents.append(doc)
            flows.append(flow if kind == "finite" else None)
            for command in CLI_COMMANDS:
                # verify needs a feasible flow with finite focus bounds
                if command != "verify" or kind == "finite":
                    argv.append((command, j))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"documents": documents, "flows": flows, "argv": argv}


def digest(instances: dict) -> str:
    """Short content hash of an instance set."""
    blob = json.dumps(instances, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def size_ranges(instances: dict) -> dict:
    """(n, m, |F|, width) ranges over the finite bounds of the documents."""
    ns, ms, fs, widths = [], [], [], []
    for doc in instances["documents"]:
        ns.append(doc["nodes"])
        ms.append(len(doc["edges"]))
        fs.append(sum(1 for spec in doc["edges"] if spec["inF"]))
        widths.extend(
            spec["upper"] - spec["lower"]
            for spec in doc["edges"]
            if isinstance(spec["lower"], int) and isinstance(spec["upper"], int)
        )
    return {
        key: [min(values), max(values)]
        for key, values in (("n", ns), ("m", ms), ("F", fs), ("width", widths))
    }
