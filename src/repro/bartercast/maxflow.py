"""Maximum flow over subjective graphs.

Every function here reads the graph's dict adjacency in place — the
one edge store of :class:`~repro.bartercast.graph.SubjectiveGraph`:

* :func:`two_hop_flow` — exact closed form for the 2-hop bound.  Paths
  of ≤2 edges from ``s`` to ``t`` are the direct edge plus the 2-edge
  paths ``s→k→t``; these are pairwise edge-disjoint, so the max flow is
  simply ``w(s,t) + Σ_k min(w(s,k), w(k,t))``.  This is the O(degree)
  form used in the hot CEV loop; tests cross-check it against the
  Edmonds-Karp oracle in ``tests/reference_bartercast.py``;
* :func:`two_hop_flows_to_sink` — the same closed form for many
  sources and one sink, with a fixed reduction order (CEV, batch
  experience gates, adaptive-T re-screens).
"""

from __future__ import annotations

from typing import Sequence

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
