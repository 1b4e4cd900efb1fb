"""Per-node subjective transfer graph.

Each node folds accepted :class:`~repro.bartercast.records.TransferRecord`
statements into a directed weighted graph ("MBs transferred from u to
v").  Conflicting statements about the same ordered pair are resolved
by keeping the **maximum** reported value: totals are cumulative and
monotone, so the largest figure is the freshest honest one, and an
understating stale record can never erase credit.

Two interchangeable **matrix backends** mirror the adjacency for the
vectorised flow paths:

* ``dense`` — an incrementally maintained ``n × n`` numpy weight
  matrix (O(n²) memory; the fastest gather at paper scale);
* ``sparse`` — CSR-style per-row index/value arrays over stable column
  slots (O(E) memory; the only option for very large populations).

``backend="auto"`` (the default) starts dense and converts to sparse
once the node count crosses ``sparse_threshold``, so paper-scale runs
keep the dense fast path while synthetic million-peer graphs never
allocate the quadratic mirror.  Both backends store the *same floats
in the same logical cells*, so ``to_matrix`` and the 2-hop flows —
the dense closed form over ``to_matrix``, the CSR kernel over the
sparse mirror's ``row_nonzeros`` / ``column_nonzeros`` — are
bit-identical across backends.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bartercast.records import TransferRecord

#: Initial dense-matrix capacity; grown by doubling as nodes appear.
_MIN_MATRIX_CAPACITY = 16

#: ``backend="auto"`` converts the dense mirror to sparse when the
#: graph's node count first exceeds this.  Chosen so every workload in
#: the paper (≤ a few hundred peers) stays on the dense fast path while
#: a 10k+-node graph never allocates the O(n²) block.
DEFAULT_SPARSE_THRESHOLD = 2048

_BACKENDS = ("dense", "sparse", "auto")


class _DenseMirror:
    """Dense weight-matrix mirror: ``_W[_index[u], _index[v]]`` is
    ``weight(u, v)``; slots are allocated on first appearance (capacity
    doubles on demand) and compacted by swapping the last slot into the
    hole on eviction."""

    kind = "dense"

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._ids: List[str] = []
        self._W = np.zeros((0, 0))

    def node_count(self) -> int:
        return len(self._ids)

    def nbytes(self) -> int:
        return int(self._W.nbytes)

    def set(self, u: str, v: str, w: float) -> bool:
        """Store ``w`` at ``(u, v)``.  ``True`` if a slot was added."""
        index = self._index
        ui = index.get(u)
        vi = index.get(v)
        grew = ui is None or vi is None
        if grew:
            ui = self._slot(u)
            vi = self._slot(v)
        self._W[ui, vi] = w
        return grew

    def _slot(self, node: str) -> int:
        """Row/column index for ``node``, allocating (and growing the
        matrix) on first appearance."""
        i = self._index.get(node)
        if i is not None:
            return i
        n = len(self._ids)
        if n == self._W.shape[0]:
            cap = max(_MIN_MATRIX_CAPACITY, 2 * self._W.shape[0])
            grown = np.zeros((cap, cap))
            grown[:n, :n] = self._W[:n, :n]
            self._W = grown
        self._index[node] = n
        self._ids.append(node)
        return n

    def drop(self, node: str) -> None:
        """Free ``node``'s slot, compacting by moving the last slot
        into the hole so the active block stays contiguous."""
        i = self._index.pop(node, None)
        if i is None:
            return
        last = len(self._ids) - 1
        if i != last:
            last_id = self._ids[last]
            n = last + 1
            # Row first, then column: the column copy re-reads the one
            # overlapping cell (the new diagonal) from the copied row,
            # which holds the old diagonal of ``last`` — always 0.
            self._W[i, :n] = self._W[last, :n]
            self._W[:n, i] = self._W[:n, last]
            self._index[last_id] = i
            self._ids[i] = last_id
        self._W[last, :] = 0.0
        self._W[:, last] = 0.0
        self._ids.pop()

    def _selection(self, ids: Sequence[str]) -> np.ndarray:
        return np.fromiter(
            (self._index.get(p, -1) for p in ids), dtype=np.intp, count=len(ids)
        )

    def to_matrix(self, order: Sequence[str]) -> np.ndarray:
        ids = list(order)
        n = len(ids)
        mat = np.zeros((n, n))
        if n == 0 or not self._ids:
            return mat
        sel = self._selection(ids)
        known = np.flatnonzero(sel >= 0)
        if known.size:
            ksel = sel[known]
            mat[np.ix_(known, known)] = self._W[np.ix_(ksel, ksel)]
        return mat

    def dense(self) -> Tuple[List[str], np.ndarray]:
        n = len(self._ids)
        view = self._W[:n, :n]
        view.setflags(write=False)
        return list(self._ids), view


class _SparseMirror:
    """CSR-style sparse mirror: per-row ``{column-slot: weight}`` dicts
    with lazily materialised ``(cols, vals)`` numpy arrays per row.

    Column slots are **stable** — freed slots go on a free list instead
    of being renumbered — so cached row arrays survive unrelated
    evictions; an in-slot index (``column slot → referencing row
    slots``) makes dropping a node O(degree) instead of a full scan.
    Memory is O(E), never O(n²)."""

    kind = "sparse"

    def __init__(self) -> None:
        self._index: Dict[str, int] = {}
        self._rows: Dict[int, Dict[int, float]] = {}
        self._in: Dict[int, Set[int]] = {}
        self._row_arrays: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._free: List[int] = []
        self._high_slot = 0

    def node_count(self) -> int:
        return len(self._index)

    def nnz(self) -> int:
        return sum(len(r) for r in self._rows.values())

    def nbytes(self) -> int:
        """Rough payload size: 8-byte slot key + 8-byte float per
        stored edge, twice (row + in-index) — dict overhead excluded,
        which is what makes the dense/sparse comparison conservative."""
        return 32 * self.nnz()

    def _slot(self, node: str) -> int:
        i = self._index.get(node)
        if i is not None:
            return i
        i = self._free.pop() if self._free else self._high_slot
        if i == self._high_slot:
            self._high_slot += 1
        self._index[node] = i
        return i

    def set(self, u: str, v: str, w: float) -> bool:
        """Store ``w`` at ``(u, v)``.  ``True`` if a slot was added."""
        grew = u not in self._index or v not in self._index
        ui = self._slot(u)
        vi = self._slot(v)
        self._rows.setdefault(ui, {})[vi] = w
        self._in.setdefault(vi, set()).add(ui)
        self._row_arrays.pop(ui, None)
        return grew

    def drop(self, node: str) -> None:
        i = self._index.pop(node, None)
        if i is None:
            return
        row = self._rows.pop(i, None)
        if row:
            for vi in row:
                refs = self._in.get(vi)
                if refs is not None:
                    refs.discard(i)
                    if not refs:
                        del self._in[vi]
        self._row_arrays.pop(i, None)
        for ri in self._in.pop(i, ()):
            other = self._rows.get(ri)
            if other is not None:
                other.pop(i, None)
            self._row_arrays.pop(ri, None)
        self._free.append(i)

    def _arrays(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        cached = self._row_arrays.get(slot)
        if cached is not None:
            return cached
        row = self._rows.get(slot, {})
        k = len(row)
        cols = np.fromiter(row.keys(), dtype=np.intp, count=k)
        vals = np.fromiter(row.values(), dtype=float, count=k)
        self._row_arrays[slot] = (cols, vals)
        return cols, vals

    def _colmap(self, ids: Sequence[str]) -> np.ndarray:
        """slot → position-in-``ids`` translation (−1 = not requested)."""
        colmap = np.full(max(1, self._high_slot), -1, dtype=np.intp)
        for pos, pid in enumerate(ids):
            slot = self._index.get(pid)
            if slot is not None:
                colmap[slot] = pos
        return colmap

    def _scatter_rows(
        self, out: np.ndarray, row_ids: Sequence[str], colmap: np.ndarray
    ) -> None:
        for pos, pid in enumerate(row_ids):
            slot = self._index.get(pid)
            if slot is None:
                continue
            cols, vals = self._arrays(slot)
            if not cols.size:
                continue
            cpos = colmap[cols]
            keep = cpos >= 0
            out[pos, cpos[keep]] = vals[keep]

    def to_matrix(self, order: Sequence[str]) -> np.ndarray:
        ids = list(order)
        mat = np.zeros((len(ids), len(ids)))
        if ids and self._index:
            self._scatter_rows(mat, ids, self._colmap(ids))
        return mat

    def row_nonzeros(
        self, row_ids: Sequence[str], order: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR triple ``(indptr, indices, data)`` of the stored
        nonzeros of ``row_ids`` with columns translated to positions in
        ``order`` — O(row degree) per row, nothing densified.

        Column positions *within* a row follow storage order (not
        sorted); consumers that need the documented sorted-column
        reduction order scatter into a position-indexed buffer, which
        imposes it regardless of this iteration order."""
        colmap = self._colmap(list(order))
        indptr = np.zeros(len(row_ids) + 1, dtype=np.int64)
        col_parts: List[np.ndarray] = []
        val_parts: List[np.ndarray] = []
        for pos, pid in enumerate(row_ids):
            slot = self._index.get(pid)
            if slot is None:
                indptr[pos + 1] = indptr[pos]
                continue
            cols, vals = self._arrays(slot)
            cpos = colmap[cols]
            keep = cpos >= 0
            kept_cols = cpos[keep]
            col_parts.append(kept_cols.astype(np.int64, copy=False))
            val_parts.append(vals[keep])
            indptr[pos + 1] = indptr[pos] + kept_cols.size
        indices = (
            np.concatenate(col_parts) if col_parts else np.zeros(0, dtype=np.int64)
        )
        data = np.concatenate(val_parts) if val_parts else np.zeros(0, dtype=float)
        return indptr, indices, data

    def column_nonzeros(
        self, order: Sequence[str], sink: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse view of the sink's in-column: ``(positions, values)``
        with positions ascending in ``order`` space — O(in-degree),
        served from the in-slot index."""
        t = self._index.get(sink)
        if t is None:
            return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=float)
        colmap = self._colmap(list(order))
        pairs = [
            (colmap[ri], self._rows[ri][t])
            for ri in self._in.get(t, ())
            if colmap[ri] >= 0
        ]
        pairs.sort()
        pos = np.fromiter((p for p, _v in pairs), dtype=np.intp, count=len(pairs))
        vals = np.fromiter((v for _p, v in pairs), dtype=float, count=len(pairs))
        return pos, vals

    def dense(self) -> Tuple[List[str], np.ndarray]:
        ids = list(self._index)
        mat = self.to_matrix(ids)
        mat.setflags(write=False)
        return ids, mat


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

    Alongside the dict-of-dict adjacency (out- and in-directions are
    both indexed) the graph maintains an incrementally updated
    **matrix mirror** — dense or sparse, see the module docstring — so
    :meth:`to_matrix` and the row/column accessors the flow paths use
    are numpy gathers/scatters instead of O(E) Python rebuilds.
    """

    def __init__(
        self,
        owner: str,
        max_nodes: int = 0,
        backend: str = "auto",
        sparse_threshold: int = DEFAULT_SPARSE_THRESHOLD,
    ):
        if max_nodes < 0:
            raise ValueError("max_nodes must be >= 0 (0 = unbounded)")
        if backend not in _BACKENDS:
            raise ValueError(f"backend must be one of {_BACKENDS}")
        if sparse_threshold < 0:
            raise ValueError("sparse_threshold must be >= 0")
        self.owner = owner
        self.max_nodes = max_nodes
        self.backend = backend
        self.sparse_threshold = sparse_threshold
        self._out: Dict[str, Dict[str, float]] = {}
        #: in-adjacency mirror of ``_out`` (``{v: {u: weight}}``);
        #: entries are removed when the inner dict empties, so its key
        #: set is exactly "nodes with at least one in-edge".
        self._in_adj: Dict[str, Dict[str, float]] = {}
        self.records_folded = 0
        self.evicted = 0
        self._out_version: Dict[str, int] = {}
        self._in_version: Dict[str, int] = {}
        self._version = 0
        self._mirror = _SparseMirror() if backend == "sparse" else _DenseMirror()

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
        added = self.max_nodes and (
            not self._has_node(u) or not self._has_node(v)
        )
        if row is None:
            row = out[u] = {}
        row[v] = w
        in_row = self._in_adj.get(v)
        if in_row is None:
            self._in_adj[v] = {u: w}
        else:
            in_row[u] = w
        mirror = self._mirror
        grew = mirror.set(u, v, w)
        # ``_bump``, inline: this is the edge write of every transfer
        out_version = self._out_version
        out_version[u] = out_version.get(u, 0) + 1
        in_version = self._in_version
        in_version[v] = in_version.get(v, 0) + 1
        self._version += 1
        # the node count only moves when the mirror gains a slot
        if grew and self.backend == "auto" and mirror.kind == "dense":
            if mirror.node_count() > self.sparse_threshold:
                self._convert_to_sparse()
        if added:
            self._enforce_node_bound()

    def _has_node(self, node: str) -> bool:
        return node in self._out or node in self._in_adj

    def _convert_to_sparse(self) -> None:
        """One-time ``auto`` backend switch: rebuild the mirror as
        sparse from the adjacency and drop the dense block."""
        mirror = _SparseMirror()
        for u, row in self._out.items():
            for v, w in row.items():
                mirror.set(u, v, w)
        self._mirror = mirror

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
                            # mirror slot too (otherwise eviction
                            # thrash leaks one slot per orphan).
                            self._mirror.drop(v)
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
        self._mirror.drop(node)

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
        return set(self._out) | set(self._in_adj)

    def edges(self) -> List[Tuple[str, str, float]]:
        return [(u, v, w) for u, row in self._out.items() for v, w in row.items()]

    def num_edges(self) -> int:
        return sum(len(row) for row in self._out.values())

    # ------------------------------------------------------------------
    @property
    def matrix_backend(self) -> str:
        """The mirror currently in use: ``"dense"`` or ``"sparse"``
        (``backend="auto"`` reports whichever side of the threshold the
        graph is on)."""
        return self._mirror.kind

    def matrix_nbytes(self) -> int:
        """Approximate bytes held by the matrix mirror (the dense
        block's allocation, or the sparse payload estimate)."""
        return self._mirror.nbytes()

    def to_matrix(self, order: Iterable[str]) -> np.ndarray:
        """Dense weight matrix in the given node order (metrics use —
        vectorised CEV computation needs all flows at once).

        Nodes unknown to the graph get zero rows and columns; known
        nodes are permuted into the requested order.  Values are
        identical to a fresh edge-by-edge rebuild regardless of the
        backend (placement only, no arithmetic).  The returned array is
        freshly allocated and the caller's to mutate."""
        return self._mirror.to_matrix(list(order))

    def row_nonzeros(
        self, row_ids: Sequence[str], order: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR triple ``(indptr, indices, data)`` of the stored
        nonzeros of ``row_ids``, columns as positions in ``order`` —
        the row-access surface of the sparse-to-sparse flow kernel,
        O(degree) per row.  **Sparse mirror only**: a dense mirror has
        no stored-nonzero structure and is read through
        :meth:`to_matrix`.  Within-row column order is storage order;
        see the kernel's reduction contract in
        :func:`repro.bartercast.maxflow.two_hop_flows_to_sink`."""
        return self._mirror.row_nonzeros(list(row_ids), list(order))

    def column_nonzeros(
        self, order: Sequence[str], sink: str
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse in-column view: ``(positions, weights)`` of the
        nodes with an edge *into* ``sink``, positions ascending in
        ``order`` space, O(in-degree).  **Sparse mirror only**, like
        :meth:`row_nonzeros`."""
        return self._mirror.column_nonzeros(list(order), sink)

    def dense(self) -> Tuple[List[str], np.ndarray]:
        """The internal node order and the full weight matrix.

        The array is **read-only**: under the dense backend it is a
        view of live storage, under the sparse backend a materialised
        O(n²) snapshot — callers needing to mutate must copy.  Mainly
        for diagnostics and tests; metrics go through :meth:`to_matrix`
        for a stable order."""
        return self._mirror.dense()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubjectiveGraph(owner={self.owner!r}, edges={self.num_edges()}, "
            f"backend={self.matrix_backend})"
        )


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
