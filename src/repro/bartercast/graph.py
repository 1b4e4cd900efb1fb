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
    because they are at least as fresh (cumulative maxima).

    ``max_nodes`` bounds memory as deployed BarterCast does: when the
    node set would exceed it, the *smallest-degree-weight* node not on
    a path touching the owner's neighbourhood is evicted (pruning weak
    hearsay first; the owner itself is never evicted).

    The graph maintains **per-node edge-version counters** so callers
    can cache derived quantities and invalidate precisely:
    ``out_version(u)`` advances whenever an edge *out of* ``u`` changes
    (raised or removed) and ``in_version(v)`` whenever an edge *into*
    ``v`` changes.  The 2-hop maxflow ``f(s→t)`` depends only on ``s``'s
    out-edges and ``t``'s in-edges, so the pair
    ``(out_version(s), in_version(t))`` is an exact validity key for a
    cached flow.  ``version`` is the total mutation count (any edge
    change anywhere).  Counters are monotone and survive node eviction,
    so a re-added node can never resurrect a stale cache entry.

    Next to the adjacency the graph keeps a **node order** (the one
    :meth:`dense` reports): a node takes the next slot when it first
    appears, ``u`` before ``v``; when a node leaves, the last slot's
    node moves into its hole.  The order is touched only when the node
    set changes — no weight is stored twice.
    """

    def __init__(self, owner: str, max_nodes: int = 0):
        if max_nodes < 0:
            raise ValueError("max_nodes must be >= 0 (0 = unbounded)")
        self.owner = owner
        self.max_nodes = max_nodes
        self._out: Dict[str, Dict[str, float]] = {}
        #: ``_out`` indexed by target (``{v: {u: weight}}``);
        #: entries are removed when the inner dict empties, so its key
        #: set is exactly "nodes with at least one in-edge".
        self._in_adj: Dict[str, Dict[str, float]] = {}
        self.records_folded = 0
        self.evicted = 0
        self._out_version: Dict[str, int] = {}
        self._in_version: Dict[str, int] = {}
        self._version = 0
        #: node -> slot in :meth:`dense`'s order, and its inverse; the
        #: slotted nodes are exactly the graph's node set
        self._slot: Dict[str, int] = {}
        self._ids: List[str] = []

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
            # Stale or equal refold: nothing changed — no version bump
            # and, crucially, no bound-enforcement scan (duplicate
            # gossip records used to pay an O(E) scan here).
            return
        slot = self._slot
        grew = u not in slot or v not in slot
        if grew:
            # a new node takes the next slot, u before v
            for node in (u, v):
                if node not in slot:
                    slot[node] = len(self._ids)
                    self._ids.append(node)
        if row is None:
            row = out[u] = {}
        row[v] = w
        in_row = self._in_adj.get(v)
        if in_row is None:
            self._in_adj[v] = {u: w}
        else:
            in_row[u] = w
        # ``_bump``, inline: this is the edge write of every transfer
        out_version = self._out_version
        out_version[u] = out_version.get(u, 0) + 1
        in_version = self._in_version
        in_version[v] = in_version.get(v, 0) + 1
        self._version += 1
        if grew and self.max_nodes:
            self._enforce_node_bound()

    def _has_node(self, node: str) -> bool:
        return node in self._slot

    def _drop_slot(self, node: str) -> None:
        """Free ``node``'s slot, moving the last slot's node into the
        hole so the order stays contiguous."""
        i = self._slot.pop(node)
        ids = self._ids
        last_id = ids.pop()
        if last_id != node:
            ids[i] = last_id
            self._slot[last_id] = i

    def _bump(self, u: str, v: str) -> None:
        """Record a change to edge ``(u, v)`` in the version counters."""
        self._out_version[u] = self._out_version.get(u, 0) + 1
        self._in_version[v] = self._in_version.get(v, 0) + 1
        self._version += 1

    def _enforce_node_bound(self) -> None:
        nodes = self.nodes()
        if len(nodes) <= self.max_nodes:
            return
        # Owner and its direct neighbours carry the flows that matter —
        # evict the weakest stranger.  The protected set is computed
        # once: a victim has no owner-incident edge by definition, so
        # removing it can never change who is protected.
        protected = {self.owner}
        protected.update(self._out.get(self.owner, ()))
        protected.update(self._in_adj.get(self.owner, ()))
        # Total touched weight per node, computed once and maintained
        # incrementally across evictions (the per-victim O(E) rebuild
        # was quadratic under bound thrash).
        weight_of: Dict[str, float] = {n: 0.0 for n in nodes}
        for u, row in self._out.items():
            for v, w in row.items():
                weight_of[u] = weight_of.get(u, 0.0) + w
                weight_of[v] = weight_of.get(v, 0.0) + w
        while len(nodes) > self.max_nodes:
            candidates = [n for n in nodes if n not in protected]
            if not candidates:
                break
            victim = min(candidates, key=lambda n: (weight_of.get(n, 0.0), n))
            out_edges = list(self._out.get(victim, {}).items())
            in_edges = list(self._in_adj.get(victim, {}).items())
            self._remove_node(victim)
            self.evicted += 1
            nodes.discard(victim)
            weight_of.pop(victim, None)
            for v, w in out_edges:
                if self._has_node(v):
                    weight_of[v] = weight_of.get(v, 0.0) - w
                else:
                    # v's only presence was as the victim's target —
                    # it leaves the node set entirely.
                    nodes.discard(v)
                    weight_of.pop(v, None)
            for u, w in in_edges:
                # In-neighbours keep their (possibly empty) out-row and
                # therefore always stay in the node set.
                weight_of[u] = weight_of.get(u, 0.0) - w

    def _remove_node(self, node: str) -> None:
        removed_out = self._out.pop(node, None)
        if removed_out:
            for v in removed_out:
                inrow = self._in_adj.get(v)
                if inrow is not None:
                    inrow.pop(node, None)
                    if not inrow:
                        del self._in_adj[v]
                        if v not in self._out:
                            # v's only presence was as this node's
                            # target — it leaves the graph, so free its
                            # slot too (otherwise eviction thrash leaks
                            # one slot per orphan).
                            self._drop_slot(v)
                self._bump(node, v)
        removed_in = self._in_adj.pop(node, None)
        if removed_in:
            for u in removed_in:
                urow = self._out.get(u)
                if urow is not None:
                    # The row may empty out; it stays registered so the
                    # node remains part of the graph (and of the bound).
                    urow.pop(node, None)
                self._bump(u, node)
        self._drop_slot(node)

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
        return set(self._slot)

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
        ids = list(self._ids)
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
