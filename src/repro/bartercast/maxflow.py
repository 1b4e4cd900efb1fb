"""Maximum flow over subjective graphs.

Every function here reads the graph's dict adjacency in place — the
one edge store of :class:`~repro.bartercast.graph.SubjectiveGraph`:

* :func:`edmonds_karp` — textbook BFS-augmenting-path maxflow with an
  optional *hop bound* (augmenting paths of at most ``max_hops``
  edges), matching deployed BarterCast's bounded evaluation;
* :func:`two_hop_flow` — exact closed form for the 2-hop bound.  Paths
  of ≤2 edges from ``s`` to ``t`` are the direct edge plus the 2-edge
  paths ``s→k→t``; these are pairwise edge-disjoint, so the max flow is
  simply ``w(s,t) + Σ_k min(w(s,k), w(k,t))``.  This is the O(degree)
  form used in the hot CEV loop; tests cross-check it against
  :func:`edmonds_karp` and ``networkx``;
* :func:`two_hop_flows_to_sink` — the same closed form for many
  sources and one sink, with a fixed reduction order (CEV, batch
  experience gates, adaptive-T re-screens).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Sequence

import numpy as np

from repro.bartercast.graph import SubjectiveGraph


def two_hop_flow(graph: SubjectiveGraph, source: str, sink: str) -> float:
    """Max flow from ``source`` to ``sink`` over paths of ≤ 2 edges.

    Read-only: reads ``source``'s out-row and ``sink``'s in-row of the
    graph's adjacency in place and sums over the out-row in its order.
    """
    if source == sink:
        return 0.0
    out = graph._out.get(source)
    if not out:
        return 0.0
    flow = out.get(sink, 0.0)
    into = graph._in_adj.get(sink)
    if into:
        for k, w_sk in out.items():
            if k == sink:
                continue
            w_kt = into.get(k, 0.0)
            if w_kt > 0.0:
                flow += min(w_sk, w_kt)
    return flow


def two_hop_flows_to_sink(
    graph: SubjectiveGraph, sources: Sequence[str], sink: str
) -> np.ndarray:
    """``f(s→sink)`` for every ``s`` in ``sources`` (2-hop bound).

    Closed form per source: ``f(s→t) = w(s,t) + Σ_k min(w(s,k),
    w(k,t))``, read from ``s``'s out-row and ``t``'s in-row in place —
    O(min(out-degree, in-degree)) per source, no matrix built.

    **Reduction-order contract.** The ``min`` terms are added one after
    another in **ascending node-id order** of ``k``, starting from 0,
    and the direct edge ``w(s,t)`` is added last as one scalar.  Only
    the ``k`` with both edges contribute; every other term of the sum
    is an exact zero, so skipping it changes no bit.  This is the order
    in which the dense closed form over a sorted-order weight matrix
    (``W[:, support]`` row sums) added its columns, so batch flows are
    reproducible across processes and bit-identical to that form on
    fractional weights too.  The scalar :func:`two_hop_flow` sums in
    out-row order instead and may differ from this in the last ulp.
    """
    flows = np.zeros(len(sources))
    into = graph._in_adj.get(sink)
    if not into:
        return flows
    out_rows = graph._out
    for i, s in enumerate(sources):
        out = out_rows.get(s)
        if not out or s == sink:
            continue
        acc = 0.0
        for k in sorted(out.keys() & into.keys()):
            w_sk = out[k]
            w_kt = into[k]
            acc += w_sk if w_sk < w_kt else w_kt
        flows[i] = out.get(sink, 0.0) + acc
    return flows


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
    for u, v, w in graph.edges():
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
