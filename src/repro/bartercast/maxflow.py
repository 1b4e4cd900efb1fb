"""Maximum flow over subjective graphs.

Two implementations:

* :func:`edmonds_karp` — textbook BFS-augmenting-path maxflow with an
  optional *hop bound* (augmenting paths of at most ``max_hops``
  edges), matching deployed BarterCast's bounded evaluation;
* :func:`two_hop_flow` — exact closed form for the 2-hop bound.  Paths
  of ≤2 edges from ``s`` to ``t`` are the direct edge plus the 2-edge
  paths ``s→k→t``; these are pairwise edge-disjoint, so the max flow is
  simply ``w(s,t) + Σ_k min(w(s,k), w(k,t))``.  This is the O(degree)
  form used in the hot CEV loop; tests cross-check it against
  :func:`edmonds_karp` and ``networkx``.
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
    w(k,t))``.  Intermediates range over *all* graph nodes, exactly as
    in :func:`two_hop_flow`; the node order is sorted so results are
    reproducible across processes.

    The dense mirror evaluates it as one ``minimum`` + row sum over the
    weight matrix; the sparse mirror runs :func:`_two_hop_flows_csr`,
    which touches only each row's stored nonzeros (O(n) scratch instead
    of n² cells — the reason the sparse backend exists).

    **Reduction-order contract.** Both paths lay the ``min`` terms out
    over the **sink's in-column support** (the positions ``k`` with
    ``w(k,t) > 0``, in ascending sorted-node-order position —
    ``min(·, 0) = 0`` makes any other ``k`` an exact zero) and add them
    **sequentially in that order**: ``W[:, support]`` is F-contiguous,
    so the dense ``.sum(axis=1)`` accumulates column by column, and the
    CSR kernel accumulates its slot buffer left to right.  The direct
    edge is then added as one scalar.  A term's value and its slot are
    independent of which path produced them, so the two backends are
    **bit-identical** on fractional weights too — a graph that crosses
    from the dense to the sparse mirror mid-run changes no flow (gated
    in ``make bench-smoke``).
    """
    ids = sorted(graph.nodes() | {sink} | set(sources))
    idx = {p: i for i, p in enumerate(ids)}
    t = idx[sink]
    if graph.matrix_backend == "sparse":
        return _two_hop_flows_csr(graph, list(sources), sink, ids, idx, t)
    W = graph.to_matrix(ids)
    col = W[:, t]
    support = np.flatnonzero(col)
    colv = np.ascontiguousarray(col[support])
    flows = col + np.minimum(W[:, support], colv[None, :]).sum(axis=1)
    flows[t] = 0.0
    return flows[[idx[s] for s in sources]]


def _two_hop_flows_csr(
    graph: SubjectiveGraph,
    sources: Sequence[str],
    sink: str,
    ids: Sequence[str],
    idx: Dict[str, int],
    t: int,
) -> np.ndarray:
    """Sparse-to-sparse 2-hop kernel: CSR rows × sparse in-column.

    Per source row, only the row's stored nonzeros
    (:meth:`~repro.bartercast.graph.SubjectiveGraph.row_nonzeros`) are
    intersected with the sink's in-column support
    (:meth:`~repro.bartercast.graph.SubjectiveGraph.column_nonzeros`)
    — no dense row block is ever materialised, so peak extra memory is
    O(n) scratch (the support buffer plus two translation arrays).

    Bit-identity with the dense path comes from the scatter buffer:
    min terms land at their in-column-support slot and the buffer is
    accumulated left to right in that fixed ascending-position layout —
    the order in which the dense path's row sum adds its columns
    (``buf.sum()`` would reduce pairwise and differ in the last ulp on
    fractional weights from 8 slots up).  The scatter order (rows
    iterate stored nonzeros in storage order) is irrelevant — each slot
    is written at most once per row."""
    n = len(ids)
    n_src = len(sources)
    cpos, cvals = graph.column_nonzeros(ids, sink)
    # Dense direct-edge lookup and support-slot translation: O(n)
    # scratch, built once per sink.
    direct = np.zeros(n)
    direct[cpos] = cvals
    slot_of = np.full(n, -1, dtype=np.intp)
    slot_of[cpos] = np.arange(cpos.size, dtype=np.intp)
    indptr, indices, data = graph.row_nonzeros(sources, ids)
    buf = np.zeros(cpos.size)
    spos = np.fromiter((idx[s] for s in sources), dtype=np.intp, count=n_src)
    flows = direct[spos]
    if cpos.size:
        for i in range(n_src):
            lo, hi = indptr[i], indptr[i + 1]
            slots = slot_of[indices[lo:hi]]
            keep = slots >= 0
            hit = slots[keep]
            buf[hit] = np.minimum(data[lo:hi][keep], cvals[hit])
            flows[i] += np.add.accumulate(buf)[-1]
            buf[hit] = 0.0
    flows[spos == t] = 0.0
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
