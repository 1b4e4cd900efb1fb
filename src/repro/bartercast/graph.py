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
:meth:`SubjectiveGraph.to_matrix` / :meth:`SubjectiveGraph.dense`
build a fresh array on demand.  No ``n × n`` block is ever kept, so a
graph's memory is O(E) at any size.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

import numpy as np

from repro.bartercast.records import TransferRecord


class SubjectiveGraph:
    """Directed weighted graph of believed transfers.

    ``weight(u, v)`` is the bytes the owner believes ``u`` uploaded to
    ``v``.  The owner's own direct observations and gossip-received
    records share the same storage; direct observations always win
    because they are at least as fresh (cumulative maxima).  The graph
    is unbounded: the paper's E is the 2-hop maxflow over everything
    the owner has heard (§V-B), and nothing is ever removed.

    The graph maintains **per-node edge-version counters** so callers
    can cache derived quantities and invalidate precisely:
    ``out_version(u)`` advances whenever an edge *out of* ``u`` is
    raised and ``in_version(v)`` whenever an edge *into* ``v`` is.  The
    2-hop maxflow ``f(s→t)`` depends only on ``s``'s out-edges and
    ``t``'s in-edges, so the pair ``(out_version(s), in_version(t))``
    is an exact validity key for a cached flow.  ``version`` is the
    total mutation count (any edge change anywhere).

    Next to the adjacency the graph keeps a **node order** (the one
    :meth:`nodes` iterates and :meth:`dense` reports): first
    appearance, ``u`` before ``v``, in one insertion-ordered dict.  It
    is touched only when a node first appears — no weight is stored
    twice.
    """

    def __init__(self, owner: str):
        self.owner = owner
        self._out: Dict[str, Dict[str, float]] = {}
        #: ``_out`` indexed by target (``{v: {u: weight}}``)
        self._in_adj: Dict[str, Dict[str, float]] = {}
        self.records_folded = 0
        self._out_version: Dict[str, int] = {}
        self._in_version: Dict[str, int] = {}
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
        out_version = self._out_version
        out_version[u] = out_version.get(u, 0) + 1
        in_version = self._in_version
        in_version[v] = in_version.get(v, 0) + 1
        self._version += 1

    # ------------------------------------------------------------------
    # Version counters (cache-invalidation keys)
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Total edge-mutation count — any change anywhere bumps it."""
        return self._version

    def out_version(self, u: str) -> int:
        """Version of ``u``'s out-edge set (0 = never had one)."""
        return self._out_version.get(u, 0)

    def in_version(self, v: str) -> int:
        """Version of ``v``'s in-edge set (0 = never had one)."""
        return self._in_version.get(v, 0)

    # ------------------------------------------------------------------
    def weight(self, u: str, v: str) -> float:
        return self._out.get(u, {}).get(v, 0.0)

    def successors(self, u: str) -> Dict[str, float]:
        """Copy of ``{v: weight}`` for edges out of ``u``."""
        return dict(self._out.get(u, {}))

    def predecessors(self, v: str) -> Dict[str, float]:
        """Copy of ``{u: weight}`` for edges into ``v``."""
        return dict(self._in_adj.get(v, {}))

    def nodes(self) -> Set[str]:
        return set(self._order)

    def edges(self) -> List[Tuple[str, str, float]]:
        return [(u, v, w) for u, row in self._out.items() for v, w in row.items()]

    def num_edges(self) -> int:
        return sum(len(row) for row in self._out.values())

    def to_matrix(self, order: Iterable[str]) -> np.ndarray:
        """Weight matrix in the given node order (diagnostics, tests
        and ad-hoc metrics), built fresh from the out-rows.

        Nodes unknown to the graph get zero rows and columns; ``order``
        must not repeat a node.  Placement only, no arithmetic, so the
        cells equal the stored weights bit for bit.  The array is the
        caller's to mutate."""
        pos = {p: i for i, p in enumerate(order)}
        mat = np.zeros((len(pos), len(pos)))
        rows: List[int] = []
        cols: List[int] = []
        vals: List[float] = []
        out = self._out
        for u, i in pos.items():
            row = out.get(u)
            if row:
                for v, w in row.items():
                    j = pos.get(v)
                    if j is not None:
                        rows.append(i)
                        cols.append(j)
                        vals.append(w)
        if vals:
            mat[rows, cols] = vals
        return mat

    def dense(self) -> Tuple[List[str], np.ndarray]:
        """The internal node order and the full weight matrix in it.

        An O(n²) snapshot built on demand, returned **read-only**.
        Mainly for diagnostics and tests; metrics go through
        :meth:`to_matrix` for a stable order."""
        ids = list(self._order)
        mat = self.to_matrix(ids)
        mat.setflags(write=False)
        return ids, mat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SubjectiveGraph(owner={self.owner!r}, edges={self.num_edges()})"


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
