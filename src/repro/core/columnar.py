"""Columnar protocol state — structure-of-arrays node state.

A :class:`ColumnarStateStore` holds, for every known peer, numpy
columns keyed by the population engine's row↔peer-id table
(:class:`RowTable`):

* **ballot-box occupancy** — per-(box, voter) vote counts
  (``bb_nvotes``), ``last_received`` (``bb_last``) and the recency
  stamp (``bb_order``), in ``[box_row, slot]`` 2-D columns with
  swap-remove slot recycling.  ``bb_order`` is the box's one recency
  order: the ``B_max`` eviction victim is the occupied slot with the
  smallest stamp, and ``bb_unique`` counts the occupied slots;
* **ballot-box payloads** — the votes themselves, in one store-wide
  pool (see below) instead of per-slot Python dicts;
* **experience thresholds** (``exp_threshold``), read as a column
  slice by the batched experience gate;
* **vote-list size** — ``vl_size`` per peer, so a due batch skips
  empty vote exchanges with one gather;
* **the vote lists' wire form** — what each peer sends in an exchange,
  packed when the list was cast instead of every time it is sent;
* **behaviour codes** — adversarial rows (``behaviour``: row → code)
  and the flash crowd's two constant lists, which the batched gossip
  tick sends in place of a crowd member's own (see
  :meth:`ColumnarStateStore.mark_crowd`).

:class:`~repro.core.ballotbox.BallotBox` is the view of one row's box.
The ``bb_*`` methods keep the §V-A rules — self-vote drops,
store-nothing merges leaving recency untouched, oldest-voter eviction —
bit-identical to the dict-backed spec in ``tests/reference_ballotbox.py``
(property-tested in ``tests/test_core_columnar.py``,
``tests/test_columnar_payloads.py`` and ``tests/test_deferred_merges.py``).

Payload pool
------------
Moderator ids are interned once, globally, in an append-only second
:class:`RowTable` (``store.mods``).  Every box's votes live in one pool
of three parallel columns — ``pay_mod`` (int32 interned id),
``pay_val`` (int8 ±1) and ``pay_at`` (float64 ``received_at``) — where
each occupied slot owns one contiguous *segment*: ``bb_off`` (offset),
``bb_nvotes`` (length), ``bb_segcap`` (capacity).  Segments keep the
dict's insertion order (new moderators append, repeats overwrite).  A
fresh segment takes exactly its length; one that outgrows it relocates
to the tail with power-of-two capacity; a newcomer evicting a full
box's head voter writes over the victim's segment when it fits.
``pay_live`` counts the entries live segments own; the rest below
``pay_tail`` is garbage, and the pool compacts (live segments slid
down, one ragged gather per column) when garbage would pass half the
tail, so the tail stays within 2× the live entries.  The columns are
anonymous memory maps grown in place by ``mremap``: no copy, and pages
past the tail stay off the resident set.

A run of merges settles in array passes.
:meth:`ColumnarStateStore.bb_merge_run` takes a gossip run's merges as
rows into the wire pool (below), groups them by box and applies them
in per-box rank waves — the boxes of a wave are distinct, so presence,
move-to-end, fresh slot, stamp and eviction victim are array ops — and
lands every fresh segment with one tail reservation and one ragged
gather, offsets in merge order.  :meth:`ColumnarStateStore.bb_merge_packed`
is one merge of the same rules, written through; nothing is ever left
pending between calls, so reads need no flush.  The packed layout
makes the hot reads vectorisable: ``all_counts`` and the adaptive-T
dispersion scan are ``np.bincount`` passes over one box's gathered
segments.  Box rows are allocated on first merge (``_box_of``); box
rows grow in powers of two from one, row columns from
:data:`_ROW_FLOOR`, and the slot width in powers of two up to the
widest ``b_max`` used, so empty boxes cost nothing and a one-row store
holds one box.

Vote-list wire form
-------------------
Between two casts the list a peer sends is a constant (the paper's
footnote 5 puts casting at ≤ 5 votes per 1 000 downloads).  So a
store-backed :class:`~repro.core.votes.LocalVoteList` reports each cast
(``vl_cast``: ``vl_size`` and a ``vl_stale`` flag, O(1)), and the store
keeps each row's list *as an exchange carries it* — interned ids and
values, newest first (ties on id), the owner's own id dropped — as a
ragged column (``vl_off`` / ``vl_len``) into a shared ``vl_mod`` /
``vl_val`` pool.  A stale row is repacked (and its moderators interned)
on first use: :meth:`~ColumnarStateStore.vl_wire`, or for the batched
vote tick every list a batch may send, up front, in entry order.  The
pool is rewritten without garbage when more than half of it is dead.
Interned ids are internal: no read depends on their numbering.
:meth:`bb_merge` interns, dedups and self-filters a ``VoteEntry`` list
into packed form for :meth:`bb_merge_packed`; the batched vote tick
hands wire-pool segments to :meth:`bb_merge_run` as they are.  The
wire form is derived state: counted by
``memory_bytes()``, never dumped, repacked on demand after a load.

The columns are the checkpoint
------------------------------
:meth:`ColumnarStateStore.dump_state` hands out the store as it is —
both intern tables, the per-row columns, the occupied slots of the
per-(box, slot) columns, the pool up to its tail and the pool's size,
tail and live count — and :meth:`ColumnarStateStore.load_state` adopts
it into an empty store with the same rows, slots, offsets, capacities
and pool size, so the loaded store also evicts, relocates, compacts and
grows when the dumped one would have.  Nothing about the boxes is
derived on load: recency is the dumped ``bb_order``.
"""

from __future__ import annotations

import mmap
import sys
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.checkpoint import CheckpointError, pack_strings, take, unpack_strings
from repro.core.votes import LocalVoteList, Vote, VoteEntry

#: The store's columns, defined once for growth, accounting and
#: dump/load: ``(name, dtype, fill)`` of the per-row and the
#: per-(box, slot) arrays, ``(name, dtype)`` of the payload pool.
_ROW_COLUMNS = (
    ("bb_unique", np.int32, 0),
    ("vl_size", np.int32, 0),
    ("exp_threshold", np.float64, 0.0),
)
_SLOT_COLUMNS = (
    ("bb_voter", np.int32, -1),
    ("bb_last", np.float64, 0.0),
    ("bb_order", np.int64, 0),
    ("bb_nvotes", np.int32, 0),
    ("bb_off", np.int64, 0),
    ("bb_segcap", np.int32, 0),
)
_POOL = (("pay_mod", np.int32), ("pay_val", np.int8), ("pay_at", np.float64))
#: Pools up to this many entries never compact.
_POOL_FLOOR = 64
#: Runs of merges shorter than this take the one-merge path one by one:
#: a wave pass costs ≈ 0.15–0.2 ms whatever its length, a one-merge
#: call ≈ 10 µs (2-vCPU host; EXPERIMENTS.md "One merge run").
_RUN_FROM = 16
#: Row columns start at this many rows (≈ 2 KB): small enough for a
#: lone node's store, large enough that a population's first rows do
#: not regrow them one doubling at a time.
_ROW_FLOOR = 64
#: The per-row box index, grown with the row columns but dumped apart.
_BOX_OF = (("_box_of", np.int32, -1),)
#: A stamp newer than any: masks a slot out of the eviction-victim argmin.
_NEWEST = np.iinfo(np.int64).max
#: Behaviour code of a flash-crowd member (see ``mark_crowd``).
CROWD = 1
#: Per-row columns of the vote lists' wire form.  Derived from the
#: nodes' vote lists, so grown and accounted like ``_ROW_COLUMNS`` but
#: never dumped: a loaded store repacks on first use.
_WIRE_COLUMNS = (
    ("vl_stale", np.bool_, False),
    ("vl_off", np.int32, 0),
    ("vl_len", np.int32, 0),
)


def _ragged_index(offs: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Indices of the concatenated segments ``[off, off + len)`` — one
    fancy-index gathers a ragged column."""
    lens = lens.astype(np.int64)
    starts = np.cumsum(lens) - lens
    return np.repeat(offs - starts, lens) + np.arange(int(lens.sum()))


class RowTable:
    """Append-only ``peer_id ↔ row`` assignment shared by the
    population engine and the state store.

    Rows are dense (``0 .. len-1``) and never reused, so any component
    may key a column by row.  ``ids`` and ``index`` are exposed
    directly — the population engine's hot loop reads them without a
    method call — but must only be mutated through :meth:`row`.
    """

    __slots__ = ("ids", "index")

    def __init__(self) -> None:
        self.ids: List[str] = []
        self.index: Dict[str, int] = {}

    def row(self, peer_id: str) -> int:
        """The peer's row, assigned on first sight."""
        row = self.index.get(peer_id)
        if row is None:
            row = len(self.ids)
            self.ids.append(peer_id)
            self.index[peer_id] = row
        return row

    def get(self, peer_id: str) -> Optional[int]:
        return self.index.get(peer_id)

    def __len__(self) -> int:
        return len(self.ids)


class ColumnarStateStore:
    """Structure-of-arrays protocol state for a whole population."""

    def __init__(self, rows: Optional[RowTable] = None):
        self.rows = rows if rows is not None else RowTable()
        #: global moderator intern table (id ↔ int32), append-only
        self.mods = RowTable()
        self._cap = 0
        #: unique voters currently in the peer's ballot box
        self.bb_unique = np.zeros(0, dtype=np.int32)
        #: entries in the peer's local vote list
        self.vl_size = np.zeros(0, dtype=np.int32)
        #: adaptive experience threshold T (bytes); 0 = accept all
        self.exp_threshold = np.zeros(0, dtype=np.float64)

        # Vote-list wire form (see the module docstring): what each
        # peer sends in an exchange, packed once per cast instead of
        # once per exchange.
        #: the row's packed segment lags its vote list (cast since)
        self.vl_stale = np.zeros(0, dtype=np.bool_)
        #: casts reported so far, all rows (a batch that lets other
        #: protocols run between its vote exchanges watches it)
        self.vl_casts = 0
        #: pool offset / length of the row's packed segment
        self.vl_off = np.zeros(0, dtype=np.int32)
        self.vl_len = np.zeros(0, dtype=np.int32)
        #: the packed pool: interned moderator ids and vote values
        self.vl_mod = np.empty(0, dtype=np.int32)
        self.vl_val = np.empty(0, dtype=np.int8)
        #: pool tail (next free offset) and live (non-garbage) entries
        self._vl_used = 0
        self._vl_live = 0
        #: per row: the vote list the segment is packed from
        self._vl_lists: List[Optional[LocalVoteList]] = []
        #: rows whose list holds the owner's own id -> its position in
        #: exchange order (the wire form drops it; above-cap selection
        #: positions count it)
        self._vl_self: Dict[int, int] = {}

        #: adversarial rows: row -> behaviour code (honest rows absent;
        #: :data:`CROWD` is the one code so far)
        self.behaviour: Dict[int, int] = {}
        #: the crowd's constant lists: the votes a member ships on every
        #: BallotBox exchange, the top-K it answers VoxPopuli with
        self.crowd_votes: List[VoteEntry] = []
        self.crowd_top_k: List[str] = []

        # Ballot boxes: per-row box index, per-box bookkeeping and
        # per-(box, slot) state, all numpy columns — a run of merges
        # (:meth:`bb_merge_run`) settles as array passes over them.
        #: ``row -> box row`` (-1 = never merged into)
        self._box_of = np.full(0, -1, dtype=np.int32)
        self._box_cap = 0
        self._width = 0
        self._n_boxes = 0
        #: ``[box_row, slot] -> voter row`` (-1 = free slot)
        self.bb_voter = np.full((0, 0), -1, dtype=np.int32)
        #: ``last_received`` per (box, slot)
        self.bb_last = np.zeros((0, 0), dtype=np.float64)
        #: recency stamp per (box, slot) — strictly increasing per box;
        #: the box's one recency order (oldest = eviction victim)
        self.bb_order = np.zeros((0, 0), dtype=np.int64)
        #: stored votes per (box, slot) — the segment's live length
        self.bb_nvotes = np.zeros((0, 0), dtype=np.int32)
        #: pool offset of the slot's payload segment per (box, slot)
        self.bb_off = np.zeros((0, 0), dtype=np.int64)
        #: capacity of the slot's payload segment (0 = none)
        self.bb_segcap = np.zeros((0, 0), dtype=np.int32)
        #: occupied slots per box (slots ``0 .. used-1``)
        self.bb_used = np.zeros(0, dtype=np.int32)
        #: last recency stamp handed out per box
        self._bb_seq = np.zeros(0, dtype=np.int64)
        #: the payload pool (see the module docstring)
        self.pay_mod = np.empty(0, dtype=np.int32)
        self.pay_val = np.empty(0, dtype=np.int8)
        self.pay_at = np.empty(0, dtype=np.float64)
        #: the memory maps behind them (see :meth:`_pay_grow`)
        self._pay_maps: Dict[str, mmap.mmap] = {}
        #: pool tail (next free offset) and entries owned by live
        #: segments (their capacities); the rest below the tail is garbage
        self.pay_tail = 0
        self.pay_live = 0
        #: telemetry: pool compactions, evicted voters, batched landings
        #: of a run's fresh segments
        self.pay_compactions = 0
        self.bb_evictions = 0
        self.pay_flushes = 0

    # ------------------------------------------------------------------
    # Row / box allocation
    # ------------------------------------------------------------------
    def ensure_row(self, peer_id: str) -> int:
        """The peer's row, growing the per-row columns to cover it."""
        row = self.rows.row(peer_id)
        if row >= self._cap:
            self._grow_rows(row + 1)
        return row

    def _grow_rows(self, needed: int) -> None:
        # Powers of two from a small floor, so a lone node's or box's
        # store stays small and a loaded store (grown once, to the rows
        # it adopts) lands on the capacity the dumped one had.
        new_cap = max(self._cap * 2, _ROW_FLOOR)
        while new_cap < needed:
            new_cap *= 2
        for name, dtype, fill in _ROW_COLUMNS + _WIRE_COLUMNS + _BOX_OF:
            out = np.full(new_cap, fill, dtype=dtype)
            out[: self._cap] = getattr(self, name)
            setattr(self, name, out)
        self._vl_lists.extend([None] * (new_cap - len(self._vl_lists)))
        self._cap = new_cap

    def _box_row(self, owner_row: int) -> int:
        """Allocate the owner's box row, on its first merge."""
        box = self._n_boxes
        if box >= self._box_cap:
            self._grow_boxes(box + 1)
        self._n_boxes = box + 1
        self._box_of[owner_row] = box
        return box

    def _grow_boxes(self, needed: int) -> None:
        new_cap = max(self._box_cap * 2, 1)
        while new_cap < needed:
            new_cap *= 2
        for name, dtype, fill in _SLOT_COLUMNS:
            out = np.full((new_cap, self._width), fill, dtype=dtype)
            out[: self._box_cap] = getattr(self, name)
            setattr(self, name, out)
        for name, dtype in (("bb_used", np.int32), ("_bb_seq", np.int64)):
            out = np.zeros(new_cap, dtype=dtype)
            out[: self._box_cap] = getattr(self, name)
            setattr(self, name, out)
        self._box_cap = new_cap

    def _grow_width(self, needed: int) -> None:
        new_w = max(self._width * 2, 4)
        while new_w < needed:
            new_w *= 2
        for name, dtype, fill in _SLOT_COLUMNS:
            out = np.full((self._box_cap, new_w), fill, dtype=dtype)
            out[:, : self._width] = getattr(self, name)
            setattr(self, name, out)
        self._width = new_w

    # ------------------------------------------------------------------
    # Vote-list wire form
    # ------------------------------------------------------------------
    def vl_attach(self, row: int, vote_list: LocalVoteList) -> None:
        """Make ``vote_list`` the list row ``row``'s wire form is packed
        from (a :class:`LocalVoteList` built with a store calls this)."""
        self._vl_lists[row] = vote_list
        self.vl_cast(row, len(vote_list))

    def vl_cast(self, row: int, size: int) -> None:
        """Row ``row``'s vote list changed and now holds ``size``
        entries.  O(1): the segment is repacked on its next use."""
        self.vl_size[row] = size
        self.vl_stale[row] = True
        self.vl_casts += 1

    def vl_wire(
        self, row: int, picks: Optional[List[int]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row ``row``'s vote list as an exchange carries it: interned
        moderator ids and vote values, newest first (ties on id), the
        owner's own id dropped — packed on the first call after a cast,
        pool views (valid until the next pack) on every later one.
        ``picks`` are the :func:`~repro.core.votes.select_positions` of
        a list above the exchange cap; the result is then a copy of
        just those entries."""
        if self.vl_stale[row]:
            self._vl_pack(row)
        off = int(self.vl_off[row])
        if picks is None:
            end = off + int(self.vl_len[row])
            return self.vl_mod[off:end], self.vl_val[off:end]
        own = self._vl_self.get(row)
        if own is not None:
            picks = [p - (p > own) for p in picks if p != own]
        idx = np.array(picks, dtype=np.intp) + off
        return self.vl_mod[idx], self.vl_val[idx]

    def vl_pack_stale(self, rows: np.ndarray) -> None:
        """Repack every stale row among ``rows``, first occurrence first
        (a batch, once up front: its merges then never repack)."""
        rows = rows[self.vl_stale[rows] & (self.vl_size[rows] > 0)]
        for row in dict.fromkeys(rows.tolist()):
            self._vl_pack(row)

    def _vl_pack(self, row: int) -> None:
        """Repack one row's segment at the pool tail.  Moderators are
        interned here, in exchange order, self-vote skipped — the ids
        :meth:`bb_merge` would assign on receiving the same list."""
        own = self.rows.ids[row]
        intern = self.mods.row
        mids: List[int] = []
        vals: List[int] = []
        self._vl_self.pop(row, None)
        for entry in self._vl_lists[row].entries():
            if entry.moderator_id == own:
                # Self-votes carry no information (§V-A).
                self._vl_self[row] = len(mids)
            else:
                mids.append(intern(entry.moderator_id))
                vals.append(int(entry.vote))
        n = len(mids)
        self._vl_live -= int(self.vl_len[row])
        self.vl_len[row] = 0  # the old segment is garbage from here on
        if self._vl_used + n > self.vl_mod.size:
            self._vl_make_room(n)
        off = self._vl_used
        self.vl_mod[off : off + n] = mids
        self.vl_val[off : off + n] = vals
        self._vl_used = off + n
        self._vl_live += n
        self.vl_off[row] = off
        self.vl_len[row] = n
        self.vl_stale[row] = False

    def _vl_make_room(self, need: int) -> None:
        """Fit ``need`` more entries behind the pool tail: drop the
        garbage first when more than half the pool is dead, then double
        the pool until they fit."""
        used = self._vl_used
        mod = self.vl_mod[:used]
        val = self.vl_val[:used]
        if used - self._vl_live > (used >> 1):
            rows = np.flatnonzero(self.vl_len)
            lens = self.vl_len[rows]
            idx = _ragged_index(self.vl_off[rows], lens)
            mod = mod[idx]
            val = val[idx]
            self.vl_off[rows] = np.cumsum(lens) - lens
            self._vl_used = used = idx.size
        size = max(self.vl_mod.size, 1024)
        while size < used + need:
            size *= 2
        self.vl_mod = np.empty(size, dtype=np.int32)
        self.vl_val = np.empty(size, dtype=np.int8)
        self.vl_mod[:used] = mod
        self.vl_val[:used] = val

    # ------------------------------------------------------------------
    # Behaviour rows
    # ------------------------------------------------------------------
    def mark_crowd(
        self, row: int, votes: Iterable[VoteEntry], top_k: Iterable[str]
    ) -> None:
        """Give row ``row`` the flash-crowd behaviour code.  The crowd's
        lists are store-wide — every member ships ``votes`` and answers
        VoxPopuli with ``top_k`` — so a second crowd with other lists,
        or a member voting on itself, is refused."""
        votes, top_k = list(votes), list(top_k)
        if self.behaviour and (votes, top_k) != (self.crowd_votes, self.crowd_top_k):
            raise ValueError("one crowd per store: every member shares its lists")
        own = self.rows.ids[row]
        if any(e.moderator_id == own for e in votes):
            raise ValueError(f"crowd member {own!r} cannot vote on itself")
        self.behaviour[row] = CROWD
        self.crowd_votes, self.crowd_top_k = votes, top_k

    def crowd_packed(self, cap: int) -> Tuple[np.ndarray, np.ndarray]:
        """The crowd's vote list as an honest receiver merges it: its
        first ``cap`` entries (the receiver-side cap), packed as
        :meth:`bb_merge` packs a received list."""
        return self._pack(self.crowd_votes[:cap], None)

    # ------------------------------------------------------------------
    # Payload pool management
    # ------------------------------------------------------------------
    def _pay_reserve(self, need: int) -> int:
        """Reserve ``need`` entries at the pool tail and return their
        offset: drop the garbage first when it would still be more than
        half the pool with them, then grow until they fit."""
        tail = self.pay_tail
        if 2 * (tail - self.pay_live) > tail + need > _POOL_FLOOR:
            self._pay_compact()
            tail = self.pay_tail
        if tail + need > self.pay_mod.size:
            size = max(self.pay_mod.size, 1024)
            while size < tail + need:
                size += size >> 1
            self._pay_grow(size)
        self.pay_tail = tail + need
        return tail

    def _pay_grow(self, size: int) -> None:
        """Grow the pool columns to ``size`` entries in place (``mremap``:
        no old and new column side by side).  Refuses (``BufferError``)
        while a view of the pool outlives the call that made it."""
        for name, dtype in _POOL:
            nbytes = size * np.dtype(dtype).itemsize
            buf = self._pay_maps.get(name)
            if buf is None:
                buf = self._pay_maps[name] = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
            setattr(self, name, None)  # the column's own view of ``buf``
            try:
                buf.resize(nbytes)
            finally:
                setattr(self, name, np.frombuffer(buf, dtype=dtype))

    def _pay_release(self, cap: int) -> None:
        """A segment of capacity ``cap`` became garbage; compact once
        dead entries outnumber live ones in a non-trivial pool, so the
        tail stays within 2× the live entries."""
        self.pay_live -= cap
        tail = self.pay_tail
        if 2 * (tail - self.pay_live) > tail > _POOL_FLOOR:
            self._pay_compact()

    def _pay_compact(self) -> None:
        """Slide every live segment (slack included) down over the
        garbage, in offset order, one ragged gather per column.  Queued
        writes own no segment yet, or re-read their victim's offset."""
        n_boxes = self._n_boxes
        box_idx, slot_idx = np.nonzero(self.bb_segcap[:n_boxes])
        offs = self.bb_off[box_idx, slot_idx]
        by_off = np.argsort(offs, kind="stable")
        box_idx, slot_idx, offs = box_idx[by_off], slot_idx[by_off], offs[by_off]
        caps = self.bb_segcap[box_idx, slot_idx].astype(np.int64)
        idx = _ragged_index(offs, caps)
        for name, _dtype in _POOL:
            pool = getattr(self, name)
            pool[: idx.size] = pool[idx]
        self.bb_off[box_idx, slot_idx] = np.cumsum(caps) - caps
        self.pay_tail = self.pay_live = idx.size
        self.pay_compactions += 1

    def _seg_update(
        self, box: int, slot: int, mids: np.ndarray, vals: np.ndarray, now: float
    ) -> None:
        """Fold packed votes (distinct ``mids``) into an existing
        segment: repeat moderators overwrite in place, new ones append
        (relocating the segment to the pool tail, with power-of-two
        capacity, when it outgrows its capacity) — first-occurrence
        order, as a per-voter dict would keep it."""
        off = int(self.bb_off[box, slot])
        n = int(self.bb_nvotes[box, slot])
        end = off + n
        match = self.pay_mod[off:end, None] == mids  # [stored, incoming]
        if n == len(mids) and match.diagonal().all():
            # The voter's list as last time (votes rarely change
            # between two meetings): overwrite values and times.
            self.pay_val[off:end] = vals
            self.pay_at[off:end] = now
            return
        found = match.any(axis=0)  # ≤ 1 hit per column
        at = off + match.argmax(axis=0)[found]
        self.pay_val[at] = vals[found]
        self.pay_at[at] = now
        new = ~found
        k = int(np.count_nonzero(new))
        if not k:
            return
        old_cap = int(self.bb_segcap[box, slot])
        if n + k > old_cap:
            cap = 2
            while cap < n + k:
                cap <<= 1
            # The reservation may compact (moving this very segment),
            # so the source offset is read after it.
            off = self._pay_reserve(cap)
            src = int(self.bb_off[box, slot])
            for name, _dtype in _POOL:
                pool = getattr(self, name)
                pool[off : off + n] = pool[src : src + n]
            self.bb_off[box, slot] = off
            self.bb_segcap[box, slot] = cap
            self.pay_live += cap
        end = off + n
        self.pay_mod[end : end + k] = mids[new]
        self.pay_val[end : end + k] = vals[new]
        self.pay_at[end : end + k] = now
        self.bb_nvotes[box, slot] = n + k
        if n + k > old_cap:
            self._pay_release(old_cap)

    # ------------------------------------------------------------------
    # Ballot-box operations (semantics of repro.core.ballotbox)
    # ------------------------------------------------------------------
    def bb_merge(
        self,
        owner_row: int,
        b_max: int,
        voter: str,
        entries: Iterable[VoteEntry],
        now: float,
    ) -> int:
        """:meth:`BallotBox.merge` over the columns; returns the number
        of *distinct* moderators stored (duplicate ids in one list
        collapse to their last vote and count once).  Recency is bumped
        only when something was stored.

        The object-API entry: interns, dedups and self-filters the
        entries into packed arrays and hands them to
        :meth:`bb_merge_packed`, where the merge itself lives.
        """
        mids, vals = self._pack(entries, voter)
        if not len(mids):
            return 0
        return self.bb_merge_packed(
            owner_row, b_max, self.rows.row(voter), mids, vals, now
        )

    def _pack(
        self, entries: Iterable[VoteEntry], voter: Optional[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """A received ``VoteEntry`` list as :meth:`bb_merge_packed`
        takes it: interned moderators and int8 values, the voter's
        self-votes dropped, one entry per moderator."""
        mods = self.mods
        # ``merged`` keeps first-occurrence order with last-wins
        # values, exactly what a payload dict would hold after folding
        # the same list in.
        merged: Dict[int, int] = {}
        for e in entries:
            moderator = e.moderator_id
            if moderator == voter:
                # Self-votes carry no information (§V-A).
                continue
            v = e.vote
            merged[mods.row(moderator)] = int(v) if type(v) is Vote else int(Vote(v))
        n = len(merged)
        return np.fromiter(merged, np.int32, n), np.fromiter(merged.values(), np.int8, n)

    def bb_merge_packed(
        self,
        owner_row: int,
        b_max: int,
        voter_row: int,
        mids: np.ndarray,
        vals: np.ndarray,
        now: float,
    ) -> int:
        """Merge packed votes — ``mids`` (int32 interned moderators,
        distinct, none of them the voter) with their ``vals`` (int8) —
        from the voter at ``voter_row`` into ``owner_row``'s box;
        returns how many were stored.  One merge of the rules
        :meth:`bb_merge_run` applies to a whole run.

        A full box evicts *before* inserting so the newcomer reuses the
        oldest voter's slot in place — the same final state the insert-
        then-evict order produces (``b_max >= 1`` keeps the newcomer
        off the victim list), without the swap-remove column traffic —
        and, when its list fits, the victim's segment too.
        """
        n = len(mids)
        if not n:
            return 0
        box = self._box_of.item(owner_row)
        if box < 0:
            box = self._box_row(owner_row)
        # Scalar reads through ``item`` and a short list: a box holds
        # at most ``b_max`` voters.
        used = self.bb_used.item(box)
        seq = self._bb_seq.item(box) + 1
        self._bb_seq[box] = seq
        voters = self.bb_voter[box, :used].tolist()
        if voter_row in voters:
            slot = voters.index(voter_row)
            # Move-to-end: the newest stamp of the box.
            self._seg_update(box, slot, mids, vals, now)
            self.bb_last[box, slot] = now
            self.bb_order[box, slot] = seq
            if used > b_max:
                # Only reachable when b_max shrank between merges on an
                # already-present voter (the insert path bounds itself).
                self._evict(box, owner_row, used - b_max)
            return n
        if used >= b_max:
            # Evict-then-insert: same victims as the reference
            # insert-then-evict (the oldest stamps; the newcomer would
            # hold the newest).
            if used > b_max:
                self._evict(box, owner_row, used - b_max)  # a shrunk b_max
            slot = self._oldest(box)
            self.bb_evictions += 1
            cap = self.bb_segcap.item(box, slot)
            if n <= cap:
                off = self.bb_off.item(box, slot)  # the victim's segment
            else:
                self.bb_segcap[box, slot] = 0
                self._pay_release(cap)
                off = -1
        else:
            slot = used
            if slot >= self._width:
                self._grow_width(slot + 1)
            self.bb_used[box] = slot + 1
            self.bb_unique[owner_row] += 1
            off = -1
        if off < 0:
            off = self._pay_reserve(n)
            self.bb_off[box, slot] = off
            self.bb_segcap[box, slot] = n
            self.pay_live += n
        end = off + n
        self.pay_mod[off:end] = mids
        self.pay_val[off:end] = vals
        self.pay_at[off:end] = now
        self.bb_nvotes[box, slot] = n
        self.bb_voter[box, slot] = voter_row
        self.bb_last[box, slot] = now
        self.bb_order[box, slot] = seq
        return n

    def bb_merge_run(
        self,
        b_max: int,
        owner_rows: np.ndarray,
        voter_rows: np.ndarray,
        src_off: np.ndarray,
        src_len: np.ndarray,
        times: np.ndarray,
        wire: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Settle a run of merges — merge ``i`` folds the segment
        ``[src_off[i], src_off[i] + src_len[i])`` (``src_len > 0``) of
        the wire pool ``wire`` (``vl_mod`` / ``vl_val`` as they were
        when the offsets were read: a later repack may replace them)
        from ``voter_rows[i]`` into ``owner_rows[i]``'s box at
        ``times[i]`` — with every read afterwards as if
        :meth:`bb_merge_packed` had taken them in order (each stores
        its ``src_len``).

        Merges into different boxes commute, so the run is grouped by
        box and taken in per-box rank waves: wave ``r`` holds every
        box's ``r``-th merge, all boxes distinct, and presence,
        move-to-end, the fresh slot, the stamp and the eviction victim
        (the occupied slot with the smallest ``bb_order``) are array
        ops over the wave.  A fresh segment is not written in its wave:
        the slot reads ``bb_nvotes == 0`` until every pending one lands
        with one tail reservation and one ragged gather from the wire
        pool, offsets in merge order — at the end of the run, or before
        a later wave updates or evicts a pending slot.  Short runs take
        the one-merge path (:data:`_RUN_FROM`)."""
        q = len(owner_rows)
        if q < _RUN_FROM:
            mod, val = wire
            for owner, voter, off, n, now in zip(
                owner_rows.tolist(), voter_rows.tolist(), src_off.tolist(),
                src_len.tolist(), times.tolist(),
            ):
                self.bb_merge_packed(
                    owner, b_max, voter, mod[off : off + n], val[off : off + n], now
                )
            return
        boxes = self._boxes_of(owner_rows)
        # Per-box rank of each merge: a stable sort by box, then the
        # position within the box's group.
        by_box = np.argsort(boxes, kind="stable")
        sorted_boxes = boxes[by_box]
        first = np.empty(q, dtype=np.bool_)
        first[0] = True
        np.not_equal(sorted_boxes[1:], sorted_boxes[:-1], out=first[1:])
        pos = np.arange(q)
        rank = np.empty(q, dtype=np.intp)
        rank[by_box] = pos - np.maximum.accumulate(np.where(first, pos, 0))
        starts = np.flatnonzero(first)
        over = self.bb_used[sorted_boxes[starts]] > b_max
        if over.any():
            # A shrunk b_max: the box's first merge evicts down to it,
            # sparing its own voter (an update moves it to the end first).
            for i in by_box[starts[over]].tolist():
                box = int(boxes[i])
                excess = int(self.bb_used[box]) - b_max
                self._evict(box, int(owner_rows[i]), excess, int(voter_rows[i]))
        waves = np.argsort(rank, kind="stable")  # wave-major, merge order within
        ends = np.cumsum(np.bincount(rank)).tolist()
        run = (owner_rows, voter_rows, src_off, src_len, times, wire)
        #: pending fresh segments: ``(merge indices, boxes, slots)``
        pend: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        for lo, hi in zip([0] + ends, ends):
            wave = waves[lo:hi]
            b = boxes[wave]
            seq = self._bb_seq[b] + 1
            self._bb_seq[b] = seq
            match = self.bb_voter[b] == voter_rows[wave][:, None]
            hit = match.any(axis=1)
            if hit.any():
                hs = match[hit].argmax(axis=1)
                self._wave_update(wave[hit], b[hit], hs, seq[hit], pend, run)
                miss = ~hit
                if not miss.any():
                    continue
                wave, b, seq = wave[miss], b[miss], seq[miss]
            self._wave_fresh(b_max, wave, b, seq, pend, run)
        if pend:
            self._land(pend, wire, src_off, src_len, times)

    def _boxes_of(self, owner_rows: np.ndarray) -> np.ndarray:
        """The box row of each merge's owner, allocating the boxes of
        first merges in order of first merge, as one at a time."""
        boxes = self._box_of[owner_rows]
        new = boxes < 0
        if new.any():
            fresh_rows, first = np.unique(owner_rows[new], return_index=True)
            fresh_rows = fresh_rows[np.argsort(first)]
            n_boxes = self._n_boxes
            if n_boxes + fresh_rows.size > self._box_cap:
                self._grow_boxes(n_boxes + fresh_rows.size)
            self._box_of[fresh_rows] = np.arange(n_boxes, n_boxes + fresh_rows.size)
            self._n_boxes = n_boxes + fresh_rows.size
            boxes = self._box_of[owner_rows]
        return boxes.astype(np.intp)

    def _wave_update(self, wave, boxes, slots, seq, pend, run) -> None:
        """A wave's merges whose voter holds a slot: move-to-end, then
        each segment folded in (landing pending segments first when one
        of these slots is still pending)."""
        _owners, _voters, src_off, src_len, times, wire = run
        if pend and not self.bb_nvotes[boxes, slots].all():
            self._land(pend, wire, src_off, src_len, times)
        mod, val = wire
        self.bb_last[boxes, slots] = times[wave]
        self.bb_order[boxes, slots] = seq
        for box, slot, i in zip(boxes.tolist(), slots.tolist(), wave.tolist()):
            off = int(src_off[i])
            end = off + int(src_len[i])
            self._seg_update(box, slot, mod[off:end], val[off:end], float(times[i]))

    def _wave_fresh(self, b_max: int, wave, b, seq, pend, run) -> None:
        """A wave's newcomers: the eviction victim's slot in a full box
        (its segment kept when the newcomer's list fits), else the next
        free slot; each segment pends until :meth:`_land`."""
        owner_rows, voter_rows, src_off, src_len, times, wire = run
        used = self.bb_used[b]
        slots = used.astype(np.intp)
        full = used >= b_max
        if full.any():
            fb = b[full]
            occupied = np.arange(self._width) < used[full, None]
            victims = np.where(occupied, self.bb_order[fb], _NEWEST).argmin(axis=1)
            if pend and not self.bb_nvotes[fb, victims].all():
                self._land(pend, wire, src_off, src_len, times)
            slots[full] = victims
            self.bb_evictions += victims.size
            caps = self.bb_segcap[fb, victims]
            moved = src_len[wave[full]] > caps  # outgrows the victim's segment
            if moved.any():
                self.bb_segcap[fb[moved], victims[moved]] = 0
                self.pay_live -= int(caps[moved].sum())
        if not full.all():
            grow = ~full
            gb = b[grow]
            if int(used[grow].max()) >= self._width:
                self._grow_width(int(used[grow].max()) + 1)
            self.bb_used[gb] += 1
            self.bb_unique[owner_rows[wave[grow]]] += 1
        self.bb_voter[b, slots] = voter_rows[wave]
        self.bb_last[b, slots] = times[wave]
        self.bb_order[b, slots] = seq
        self.bb_nvotes[b, slots] = 0  # pending until it lands
        pend.append((wave, b, slots))

    def _land(
        self,
        pend: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
        wire: Tuple[np.ndarray, np.ndarray],
        src_off: np.ndarray,
        src_len: np.ndarray,
        times: np.ndarray,
    ) -> None:
        """Write a run's pending fresh segments (``pend``, consumed)
        into the payload pool: a slot that kept its victim's segment
        writes over it, at the offset it has after any compaction the
        reservation ran; the rest get back-to-back segments of exactly
        their length from one tail reservation, in merge order.  One
        ragged gather per pool column from the wire pool."""
        if len(pend) == 1:
            wave, boxes, slots = pend[0]  # one wave: in merge order already
        else:
            wave, boxes, slots = (np.concatenate(parts) for parts in zip(*pend))
            order = np.argsort(wave)
            wave, boxes, slots = wave[order], boxes[order], slots[order]
        pend.clear()
        lens = src_len[wave].astype(np.int64)
        fresh = self.bb_segcap[boxes, slots] == 0
        caps = lens[fresh]
        total = int(caps.sum())
        base = self._pay_reserve(total) if total else self.pay_tail
        offs = self.bb_off[boxes, slots]
        offs[fresh] = base + np.cumsum(caps) - caps
        self.pay_live += total
        # Fresh segments lie back to back from ``base``, in merge order.
        dst = slice(base, base + total) if fresh.all() else _ragged_index(offs, lens)
        src = _ragged_index(src_off[wave].astype(np.int64), lens)
        self.pay_mod[dst] = wire[0][src]
        self.pay_val[dst] = wire[1][src]
        self.pay_at[dst] = np.repeat(times[wave], lens)
        self.bb_off[boxes, slots] = offs
        self.bb_segcap[boxes[fresh], slots[fresh]] = caps
        self.bb_nvotes[boxes, slots] = lens
        self.pay_flushes += 1

    def bb_remove_voter(self, owner_row: int, voter: str) -> bool:
        box, slot = self._slot_of(owner_row, voter)
        if box < 0:
            return False
        self._drop_slot(box, owner_row, slot)
        return True

    def _oldest(self, box: int, spare: int = -1) -> int:
        """The occupied slot with the smallest stamp — the eviction
        victim — passing over voter row ``spare``."""
        used = int(self.bb_used[box])
        order = self.bb_order[box, :used]
        if spare >= 0:
            order = np.where(self.bb_voter[box, :used] == spare, _NEWEST, order)
        return int(order.argmin())

    def _evict(self, box: int, owner_row: int, k: int, spare: int = -1) -> None:
        """Evict the box's ``k`` oldest voters, sparing ``spare``."""
        for _ in range(k):
            self._drop_slot(box, owner_row, self._oldest(box, spare))
            self.bb_evictions += 1

    def _drop_slot(self, box: int, owner_row: int, slot: int) -> None:
        """Free a slot, swap-filling it from the box's last slot (the
        moved voter keeps its stamp, so its recency).  The dropped
        segment becomes pool garbage."""
        last = int(self.bb_used[box]) - 1
        cap = int(self.bb_segcap[box, slot])
        if slot != last:
            for name, _dtype, _fill in _SLOT_COLUMNS:
                column = getattr(self, name)
                column[box, slot] = column[box, last]
        self.bb_voter[box, last] = -1
        self.bb_nvotes[box, last] = 0
        self.bb_segcap[box, last] = 0
        self.bb_used[box] = last
        self.bb_unique[owner_row] -= 1
        self._pay_release(cap)

    # ------------------------------------------------------------------
    # Ballot-box reads
    # ------------------------------------------------------------------
    def _by_recency(self, owner_row: int) -> Tuple[int, np.ndarray]:
        """``(box, occupied slots oldest-received first)`` — ascending
        ``bb_order``; ``(-1, [])`` for a box never merged into."""
        box = int(self._box_of[owner_row])
        if box < 0:
            return box, np.empty(0, dtype=np.intp)
        used = int(self.bb_used[box])
        return box, np.argsort(self.bb_order[box, :used])

    def bb_voters(self, owner_row: int) -> List[str]:
        """The box's voters, oldest-received first (the order ``B_max``
        eviction takes them in)."""
        box, slots = self._by_recency(owner_row)
        ids = self.rows.ids
        return [ids[v] for v in self.bb_voter[box, slots].tolist()] if box >= 0 else []

    def bb_ballot(
        self, owner_row: int
    ) -> List[Tuple[str, float, List[list]]]:
        """Every voter of the box, oldest-received first, with its last
        receipt and its ``[moderator, vote, received_at]`` triples in
        arrival order — one gather over the box's segments."""
        box, slots = self._by_recency(owner_row)
        if box < 0:
            return []
        lens = self.bb_nvotes[box, slots]
        idx = _ragged_index(self.bb_off[box, slots], lens)
        ids, mods = self.rows.ids, self.mods.ids
        votes = list(
            map(
                list,
                zip(
                    map(mods.__getitem__, self.pay_mod[idx].tolist()),
                    self.pay_val[idx].tolist(),
                    self.pay_at[idx].tolist(),
                ),
            )
        )
        ends = np.cumsum(lens).tolist()
        return [
            (ids[v], last, votes[end - n : end])
            for v, last, n, end in zip(
                self.bb_voter[box, slots].tolist(),
                self.bb_last[box, slots].tolist(),
                lens.tolist(),
                ends,
            )
        ]

    def _slot_of(self, owner_row: int, voter: str) -> Tuple[int, int]:
        """``(box, slot)`` for a stored voter, ``(-1, -1)`` otherwise."""
        box = int(self._box_of[owner_row])
        vrow = self.rows.get(voter)
        if box < 0 or vrow is None:
            return -1, -1
        hit = np.flatnonzero(self.bb_voter[box, : self.bb_used[box]] == vrow)
        return (box, int(hit[0])) if hit.size else (-1, -1)

    def _tallies(self, owner_row: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per interned moderator, the box's total and positive votes —
        one ragged gather over the slot segments and two bincounts;
        ``None`` for an empty box."""
        box = self._box_of[owner_row]
        if box < 0:
            return None
        used = self.bb_used[box]
        idx = _ragged_index(self.bb_off[box, :used], self.bb_nvotes[box, :used])
        if not idx.size:
            return None
        mods = self.pay_mod[idx]
        nbins = int(mods.max()) + 1
        positive = mods[self.pay_val[idx] > 0]
        return np.bincount(mods, minlength=nbins), np.bincount(positive, minlength=nbins)

    def bb_moderators(self, owner_row: int) -> List[str]:
        return sorted(self.bb_all_counts(owner_row))

    def bb_counts(self, owner_row: int, moderator_id: str) -> Tuple[int, int]:
        return self.bb_all_counts(owner_row).get(moderator_id, (0, 0))

    def bb_all_counts(self, owner_row: int) -> Dict[str, Tuple[int, int]]:
        """``moderator → (positive, negative)`` from one pair of
        bincount scans over the box's interned moderator ids."""
        tallies = self._tallies(owner_row)
        if tallies is None:
            return {}
        tot, pos = tallies
        ids = self.mods.ids
        return {
            ids[m]: (int(pos[m]), int(tot[m] - pos[m]))
            for m in np.flatnonzero(tot).tolist()
        }

    def bb_dispersion(self, owner_row: int) -> float:
        """Worst-case per-moderator disagreement (the adaptive-T
        signal): max over moderators with ≥ 2 votes of ``4·p·(1−p)``.
        Same bincount scan as :meth:`bb_all_counts`, but the tallies
        never materialise as a Python dict — this is the vectorised
        fast path behind :meth:`BallotBox.dispersion`."""
        tallies = self._tallies(owner_row)
        if tallies is None:
            return 0.0
        tot, pos = tallies
        mask = tot >= 2
        if not mask.any():
            return 0.0
        # int/int true division and 4·p·(1−p) are elementwise float64
        # ops — bit-identical to the scalar loop over all_counts().
        p = pos[mask] / tot[mask]
        return float((4.0 * p * (1.0 - p)).max())

    def bb_export_digest(
        self, owner_row: int
    ) -> List[Tuple[str, str, int, float]]:
        """Every stored vote of one box as flat ``(voter, moderator,
        vote, received_at)`` rows sorted by ``(voter, moderator)`` —
        :meth:`BallotBox.export_digest`, gathered straight from the
        payload pool."""
        box = self._box_of[owner_row]
        if box < 0:
            return []
        used = self.bb_used[box]
        lens = self.bb_nvotes[box, :used]
        idx = _ragged_index(self.bb_off[box, :used], lens)
        voters = np.repeat(self.bb_voter[box, :used], lens).tolist()
        out = list(
            zip(
                map(self.rows.ids.__getitem__, voters),
                map(self.mods.ids.__getitem__, self.pay_mod[idx].tolist()),
                self.pay_val[idx].tolist(),
                self.pay_at[idx].tolist(),
            )
        )
        out.sort(key=lambda r: (r[0], r[1]))
        return out

    # ------------------------------------------------------------------
    # Checkpoint: the columns themselves
    # ------------------------------------------------------------------
    def dump_state(self) -> Dict[str, object]:
        """The whole store as scalars and trimmed array copies (see the
        module docstring); pairs with :meth:`load_state`."""
        n_rows = min(len(self.rows), self._cap)
        n_boxes = self._n_boxes
        used = self.bb_used[:n_boxes].copy()
        occupied = np.arange(self._width, dtype=np.int32) < used[:, None]
        state: Dict[str, object] = {
            "n_ids": len(self.rows),
            "n_mods": len(self.mods),
            "width": self._width,
            "row_ids": pack_strings(self.rows.ids),
            "mod_ids": pack_strings(self.mods.ids),
            "box_of": self._box_of[:n_rows].copy(),
            "bb_used": used,
            "bb_seq": self._bb_seq[:n_boxes].copy(),
            "pay_size": int(self.pay_mod.size),
            "pay_tail": self.pay_tail,
            "pay_live": self.pay_live,
        }
        for name, _dtype, _fill in _ROW_COLUMNS:
            state[name] = getattr(self, name)[:n_rows].copy()
        for name, _dtype, _fill in _SLOT_COLUMNS:
            state[name] = getattr(self, name)[:n_boxes][occupied]
        for name, _dtype in _POOL:
            state[name] = getattr(self, name)[: self.pay_tail].copy()
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`dump_state` snapshot into this (empty) store;
        each array is checked against the snapshot's own counts as it
        is adopted."""
        if len(self.rows) or len(self.mods) or self._n_boxes:
            raise ValueError("load_state needs an empty store")
        for table, ids_name, count_name in (
            (self.rows, "row_ids", "n_ids"),
            (self.mods, "mod_ids", "n_mods"),
        ):
            # In place: the population engine aliases these containers.
            ids = unpack_strings(state, ids_name, state[count_name])
            table.ids.extend(ids)
            table.index.update(zip(ids, range(len(ids))))
        box_of = take(state, "box_of", np.int32, None)
        n_rows = box_of.size
        if n_rows:
            self._grow_rows(n_rows)
        for name, dtype, _fill in _ROW_COLUMNS:
            getattr(self, name)[:n_rows] = take(state, name, dtype, n_rows)
        # The wire form is not in the dump: every non-empty list packs
        # again on its first exchange.
        self.vl_stale[:n_rows] = self.vl_size[:n_rows] > 0
        self._box_of[:n_rows] = box_of
        size, tail, live = (state.get(k) for k in ("pay_size", "pay_tail", "pay_live"))
        if not (
            all(type(v) is int for v in (size, tail, live)) and 0 <= live <= tail <= size
        ):
            raise CheckpointError(
                "scalars 'pay_size' / 'pay_tail' / 'pay_live': expected "
                f"0 <= live <= tail <= size, found {size} / {tail} / {live}"
            )
        if size:
            self._pay_grow(size)
        for name, dtype in _POOL:
            getattr(self, name)[:tail] = take(state, name, dtype, tail)
        self.pay_tail = tail
        self.pay_live = live
        used = take(state, "bb_used", np.int32, None)
        n_boxes = used.size
        if not n_boxes:
            return
        self._grow_boxes(n_boxes)
        self._grow_width(int(state["width"]))
        self._n_boxes = n_boxes
        occupied = np.arange(self._width, dtype=np.int32) < used[:, None]
        n_slots = int(used.sum())
        for name, dtype, _fill in _SLOT_COLUMNS:
            getattr(self, name)[:n_boxes][occupied] = take(state, name, dtype, n_slots)
        self.bb_used[:n_boxes] = used
        self._bb_seq[:n_boxes] = take(state, "bb_seq", np.int64, n_boxes)

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Measured retained footprint: every numpy column, the
        payload pool, the bookkeeping containers and the moderator
        intern table's containers.  Peer/moderator id *strings* are
        shared with the rest of the system (the row tables hold one
        reference each) and excluded."""
        total = sum(
            getattr(self, name).nbytes
            for name, _dtype, _fill in _ROW_COLUMNS + _WIRE_COLUMNS + _SLOT_COLUMNS
        )
        total += self.vl_mod.nbytes + self.vl_val.nbytes
        total += sum(getattr(self, name).nbytes for name, _dtype in _POOL)
        total += self._box_of.nbytes + self.bb_used.nbytes + self._bb_seq.nbytes
        for container in (
            self._vl_lists,
            self._vl_self,
            self.mods.ids,
            self.mods.index,
        ):
            total += sys.getsizeof(container)
        return total

    def pool_stats(self) -> Dict[str, object]:
        """Ballot-box fill and eviction pressure: the payload pool's
        capacity, tail and live entries, its garbage share, and the
        compactions, evictions and flushes so far — the landings of a
        merge run's fresh segments (:meth:`_land` calls)."""
        tail = self.pay_tail
        return {
            "capacity": int(self.pay_mod.size),
            "tail": tail,
            "live": self.pay_live,
            "garbage_share": (tail - self.pay_live) / tail if tail else 0.0,
            "compactions": self.pay_compactions,
            "evictions": self.bb_evictions,
            "flushes": self.pay_flushes,
        }
