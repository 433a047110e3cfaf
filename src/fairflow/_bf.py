"""Negative-cycle search over an integer-weighted arc list.

Labels start at 0, as if a virtual zero root had a zero-weight arc to
every node.  The search runs in passes over out-adjacency lists: the
first pass scans every node, each later pass only the nodes whose label
fell in the pass before.  After every pass that still lowered a label,
one O(n) walk of the predecessor graph looks for a cycle and returns
the first one it meets (Cherkassky & Goldberg, "Negative-cycle
detection algorithms", Math. Programming 85, 1999).  Three facts make
the result exact:

(i) Every predecessor-graph cycle is negative.  When relaxing (u, v)
    closes the cycle, d(v) > d(u) + w(u, v) just before; on every other
    arc (x, y) of the cycle d(y) >= d(x) + w(x, y), since labels only
    fall.  Summing around the cycle gives a negative total.

(ii) A negative cycle is found within n passes.  Let level(v) be the
    pass in which pred[v] was last set.  A pass scans only nodes whose
    label fell in the pass before, so level(pred v) >= level(v) - 1,
    and a node whose label falls in pass n heads a chain of at least n
    predecessor arcs, which must close a cycle.  If a label still
    falls in pass n, the check after it therefore finds a cycle; not
    finding one raises InternalCertificateFailure.

(iii) Without a negative cycle the passes stop within n: after pass k
    every node with a shortest path of at most k real arcs holds its
    final label, so pass n lowers nothing.  The labels are then the
    shortest distances from the zero root, which are unique, whatever
    the order of the relaxations.

The worst case stays O(nm) per search.
"""

from __future__ import annotations

from typing import Sequence

from .errors import InternalCertificateFailure


def bellman_ford(
    node_count: int,
    tails: Sequence[int],
    heads: Sequence[int],
    weights: Sequence[int],
) -> tuple[list[int], list[int] | None]:
    """Shortest labels from a zero root, or a negative cycle.

    Returns (labels, None) when the weights are conservative, else
    (partial labels, arc indices of a negative di-circuit in traversal
    order).  Nodes are scanned in id order within the first pass and in
    the order their labels fell afterwards, so the result is
    deterministic.
    """
    out: list[list[int]] = [[] for _ in range(node_count)]
    for idx, tail in enumerate(tails):
        out[tail].append(idx)
    dist = [0] * node_count
    pred = [-1] * node_count
    active: Sequence[int] = range(node_count)
    for _ in range(node_count):
        queued = [False] * node_count
        fallen: list[int] = []
        for u in active:
            du = dist[u]
            for idx in out[u]:
                cand = du + weights[idx]
                v = heads[idx]
                if cand < dist[v]:
                    dist[v] = cand
                    pred[v] = idx
                    if not queued[v]:
                        queued[v] = True
                        fallen.append(v)
        if not fallen:
            return dist, None
        cycle = _predecessor_cycle(pred, tails)
        if cycle is not None:
            return dist, cycle
        active = fallen
    raise InternalCertificateFailure(
        f"a label still fell in pass {node_count} but the predecessor graph has no cycle"
    )


def _predecessor_cycle(pred: list[int], tails: Sequence[int]) -> list[int] | None:
    """Arc indices of a cycle of the predecessor graph in traversal order, or None.

    Walks back from each unvisited node in id order, marking the walk it
    belongs to; meeting a node of the current walk closes a cycle.
    """
    walk = [-1] * len(pred)
    for start in range(len(pred)):
        node = start
        while node >= 0 and walk[node] < 0:
            walk[node] = start
            idx = pred[node]
            node = tails[idx] if idx >= 0 else -1
        if node >= 0 and walk[node] == start:
            cycle: list[int] = []
            first = node
            while True:
                idx = pred[node]
                cycle.append(idx)
                node = tails[idx]
                if node == first:
                    break
            cycle.reverse()
            return cycle
    return None
