"""Per-node subjective transfer graph.

Each node folds accepted :class:`~repro.bartercast.records.TransferRecord`
statements into a directed weighted graph ("MBs transferred from u to
v").  Conflicting statements about the same ordered pair are resolved
by keeping the **maximum** reported value: totals are cumulative and
monotone, so the largest figure is the freshest honest one, and an
understating stale record can never erase credit.

Each edge is stored once, in the dict adjacency (out-rows and in-rows
hold the same weight under both directions' keys).  Every reader
derives what it needs from those rows: :func:`~repro.bartercast.maxflow.two_hop_flow`
and the batch :func:`~repro.bartercast.maxflow.two_hop_flows_to_sink`
read a source's out-row and the sink's in-row in place, and
:meth:`SubjectiveGraph.dense` builds a fresh array on demand.  No
``n × n`` block is ever kept, so a graph's memory is O(E) at any size.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.bartercast.records import TransferRecord


class SubjectiveGraph:
    """Directed weighted graph of believed transfers.

    An edge ``u → v`` carries the bytes the owner believes ``u``
    uploaded to ``v``.  The owner's own direct observations and
    gossip-received records share the same storage; direct observations always win
    because they are at least as fresh (cumulative maxima).  The graph
    is unbounded: the paper's E is the 2-hop maxflow over everything
    the owner has heard (§V-B), and nothing is ever removed.

    ``version`` counts edge raises (any change anywhere), so a caller
    can tell whether the graph moved between two reads;
    :class:`~repro.metrics.cev.FlowMatrixCache` keys an observer's flow
    row on it.

    Next to the adjacency the graph keeps a **node order** (the one
    :meth:`dense` reports): first appearance, ``u`` before ``v``, in one
    insertion-ordered dict.  It is touched only when a node first
    appears — no weight is stored twice.
    """

    def __init__(self, owner: str):
        self.owner = owner
        self._out: Dict[str, Dict[str, float]] = {}
        #: ``_out`` indexed by target (``{v: {u: weight}}``)
        self._in_adj: Dict[str, Dict[str, float]] = {}
        self.records_folded = 0
        self._version = 0
        #: the node set, keys in first-appearance order (values unused)
        self._order: Dict[str, None] = {}

    # ------------------------------------------------------------------
    def add_record(self, record: TransferRecord) -> bool:
        """Fold one record.  Returns ``False`` (and ignores it) if the
        record violates the endpoint acceptance rule for gossip — the
        caller is responsible for passing only records whose *sender*
        matches the reporter; this method enforces internal sanity."""
        self._raise_edge(record.reporter, record.partner, record.up)
        self._raise_edge(record.partner, record.reporter, record.down)
        self.records_folded += 1
        return True

    def observe_direct(self, uploader: str, downloader: str, total_bytes: float) -> None:
        """Fold the owner's own cumulative observation of an edge."""
        self._raise_edge(uploader, downloader, total_bytes)

    def _raise_edge(self, u: str, v: str, w: float) -> None:
        if w <= 0 or u == v:
            return
        out = self._out
        row = out.get(u)
        if row is not None and w <= row.get(v, 0.0):
            # Stale or equal refold: nothing changed, no version bump.
            return
        order = self._order
        if u not in order:
            order[u] = None
        if v not in order:
            order[v] = None
        if row is None:
            row = out[u] = {}
        row[v] = w
        in_row = self._in_adj.get(v)
        if in_row is None:
            self._in_adj[v] = {u: w}
        else:
            in_row[u] = w
        self._version += 1

    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Total edge-mutation count — any change anywhere bumps it."""
        return self._version

    # ------------------------------------------------------------------
    def dense(self) -> Tuple[List[str], np.ndarray]:
        """The node order and the weight matrix in it: an O(n²)
        snapshot built on demand from the out-rows, returned
        **read-only**, for diagnostics and tests.  Placement only, no
        arithmetic, so the cells equal the stored weights bit for bit."""
        ids = list(self._order)
        pos = {p: i for i, p in enumerate(ids)}
        mat = np.zeros((len(ids), len(ids)))
        for u, row in self._out.items():
            for v, w in row.items():
                mat[pos[u], pos[v]] = w
        mat.setflags(write=False)
        return ids, mat


class ReadOnlySubjectiveGraph(SubjectiveGraph):
    """An immutable, permanently empty graph.

    :meth:`BarterCastService.graph_of` hands a shared instance to
    callers probing peers the service has never seen, so metric sweeps
    over the full trace population do not materialise per-peer state.
    Any mutation attempt raises instead of silently poisoning the
    shared sentinel."""

    def _raise_edge(self, u: str, v: str, w: float) -> None:
        raise TypeError(
            "this graph is a shared read-only sentinel for an unseen "
            "peer; it cannot be mutated"
        )
