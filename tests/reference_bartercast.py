"""Reads of a :class:`~repro.bartercast.graph.SubjectiveGraph` that only
tests make, and the unbounded maxflow oracle.

The graph's one edge store is its dict adjacency (``_out`` and the
same weights indexed by target in ``_in_adj``); production reads it
through :func:`~repro.bartercast.maxflow.two_hop_flow`,
:func:`~repro.bartercast.maxflow.two_hop_flows_to_sink` and
:meth:`~repro.bartercast.graph.SubjectiveGraph.dense`.  The functions
here read the same store for assertions: one edge's weight, the edge
list, the node set, and two oracles: :func:`to_matrix`, the
edge-by-edge matrix rebuild that ``dense`` is checked against, and
:func:`edmonds_karp`, the textbook maxflow that the 2-hop closed form
is checked against.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from repro.bartercast.graph import SubjectiveGraph


def weight(graph: SubjectiveGraph, u: str, v: str) -> float:
    """The bytes ``graph``'s owner believes ``u`` uploaded to ``v``."""
    return graph._out.get(u, {}).get(v, 0.0)


def successors(graph: SubjectiveGraph, u: str) -> Dict[str, float]:
    """Copy of ``{v: weight}`` for edges out of ``u``."""
    return dict(graph._out.get(u, {}))


def predecessors(graph: SubjectiveGraph, v: str) -> Dict[str, float]:
    """Copy of ``{u: weight}`` for edges into ``v``."""
    return dict(graph._in_adj.get(v, {}))


def nodes(graph: SubjectiveGraph) -> Set[str]:
    return set(graph._order)


def edges(graph: SubjectiveGraph) -> List[Tuple[str, str, float]]:
    """``(u, v, weight)`` per edge, in out-row insertion order."""
    return [(u, v, w) for u, row in graph._out.items() for v, w in row.items()]


def num_edges(graph: SubjectiveGraph) -> int:
    return sum(len(row) for row in graph._out.values())


def to_matrix(graph: SubjectiveGraph, order: Iterable[str]) -> np.ndarray:
    """Weight matrix in the given node order; nodes unknown to the
    graph get zero rows and columns (``order`` must not repeat one)."""
    pos = {p: i for i, p in enumerate(order)}
    mat = np.zeros((len(pos), len(pos)))
    for u, v, w in edges(graph):
        if u in pos and v in pos:
            mat[pos[u], pos[v]] = w
    return mat


def edmonds_karp(
    graph: SubjectiveGraph,
    source: str,
    sink: str,
    max_hops: Optional[int] = None,
) -> float:
    """Max flow from ``source`` to ``sink``.

    With ``max_hops`` set, only augmenting paths of at most that many
    edges are used.  BFS finds shortest augmenting paths first and path
    lengths in Edmonds-Karp are non-decreasing, so the search stops
    cleanly when the shortest remaining path exceeds the bound.

    Note the hop-bounded variant is a heuristic (as in deployed
    BarterCast): residual arcs may admit length-``h`` paths that do not
    correspond to length-``h`` forward paths, so its value can differ
    from "max flow restricted to short paths" in contrived graphs — but
    it always lower-bounds the unbounded max flow and equals
    :func:`two_hop_flow` for ``max_hops=2`` on BarterCast-shaped inputs
    (tested).
    """
    if source == sink:
        return 0.0
    # Residual capacities as nested dicts.
    residual: Dict[str, Dict[str, float]] = {}
    for u, v, w in edges(graph):
        residual.setdefault(u, {})[v] = residual.setdefault(u, {}).get(v, 0.0) + w
        residual.setdefault(v, {}).setdefault(u, 0.0)
    if source not in residual or sink not in residual:
        return 0.0

    total = 0.0
    while True:
        # BFS for the shortest augmenting path.
        parent: Dict[str, str] = {}
        depth = {source: 0}
        queue = deque([source])
        found = False
        while queue and not found:
            u = queue.popleft()
            if max_hops is not None and depth[u] >= max_hops:
                continue
            for v, cap in residual.get(u, {}).items():
                if cap > 1e-12 and v not in depth:
                    depth[v] = depth[u] + 1
                    parent[v] = u
                    if v == sink:
                        found = True
                        break
                    queue.append(v)
        if not found:
            return total
        # Bottleneck along the path.
        path = []
        v = sink
        while v != source:
            u = parent[v]
            path.append((u, v))
            v = u
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] = residual[v].get(u, 0.0) + bottleneck
        total += bottleneck
