"""Columnar protocol state — structure-of-arrays node state.

A :class:`ColumnarStateStore` holds, for every known peer, numpy
columns keyed by the population engine's row↔peer-id table
(:class:`RowTable`):

* **ballot-box occupancy** — per-(box, voter) vote counts
  (``bb_nvotes``), ``last_received`` recency (``bb_last``) and the
  ``B_max`` eviction order (``bb_order``), in ``[box_row, slot]``
  2-D columns with swap-remove slot recycling;
* **ballot-box payloads** — the votes themselves, in one store-wide
  pool (see below) instead of per-slot Python dicts;
* **experience thresholds** (``exp_threshold``), read as a column
  slice by the batched experience gate;
* **vote / moderation store membership** — ``vl_size`` and
  ``store_size`` per peer, so a due batch skips empty exchanges with
  one gather;
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

Writes are batched.  :meth:`ColumnarStateStore.bb_merge_packed`
settles what is order-sensitive — slot, recency, eviction victim,
occupancy — at once and queues a fresh segment's write;
:meth:`ColumnarStateStore.bb_flush` lands the queue with one tail
reservation and one copy per column (the batched vote tick once per
batch, every other caller at once).  Payload reads, updates or
evictions of a queued slot and swap-removes flush first.  The packed
layout makes the hot reads vectorisable: ``all_counts`` and the
adaptive-T dispersion scan are ``np.bincount`` passes over one box's
gathered segments.  Box rows are allocated on first merge
(``_box_of``) and the slot width grows in powers of two up to the
widest ``b_max`` used, so empty boxes cost nothing.

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
Interned ids are internal: no read depends on their numbering.  Both
merge entries end in one core, :meth:`bb_merge_packed`;
:meth:`bb_merge` interns, dedups and self-filters a ``VoteEntry`` list
into packed form first.  The wire form is derived state: counted by
``memory_bytes()``, never dumped, repacked on demand after a load.

The columns are the checkpoint
------------------------------
:meth:`ColumnarStateStore.dump_state` hands out the store as it is —
both intern tables, the per-row columns, the occupied slots of the
per-(box, slot) columns, the pool up to its tail and the pool's size,
tail and live count — and :meth:`ColumnarStateStore.load_state` adopts
it into an empty store with the same rows, slots, offsets, capacities
and pool size, so the loaded store also evicts, relocates, compacts and
grows when the dumped one would have.  Only the per-box recency dicts
are derived on load (``bb_voter`` ordered by ``bb_order``).
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
    ("store_size", np.int32, 0),
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
#: Queued writes land record by record below this many, as one batch above.
_FLUSH_BATCH = 16
#: Stored vote value -> :class:`Vote` (cheaper than the enum call).
_VOTE = {int(v): v for v in Vote}
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
        #: moderations in the peer's local store
        self.store_size = np.zeros(0, dtype=np.int32)
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

        # Ballot boxes: scalar per-box bookkeeping (``_box_of``,
        # ``bb_used``, ``_bb_seq``) in Python lists — the merge hot path
        # touches one element at a time, where list indexing beats a
        # numpy scalar access — and per-(box, slot) state in 2-D columns.
        self._box_of: List[int] = []
        self._box_cap = 0
        self._width = 0
        self._n_boxes = 0
        #: ``[box_row, slot] -> voter row`` (-1 = free slot)
        self.bb_voter = np.full((0, 0), -1, dtype=np.int32)
        #: ``last_received`` per (box, slot)
        self.bb_last = np.zeros((0, 0), dtype=np.float64)
        #: recency stamp per (box, slot) — strictly increasing per box
        self.bb_order = np.zeros((0, 0), dtype=np.int64)
        #: stored votes per (box, slot) — the segment's live length
        self.bb_nvotes = np.zeros((0, 0), dtype=np.int32)
        #: pool offset of the slot's payload segment per (box, slot)
        self.bb_off = np.zeros((0, 0), dtype=np.int64)
        #: capacity of the slot's payload segment (0 = none)
        self.bb_segcap = np.zeros((0, 0), dtype=np.int32)
        #: occupied slots per box
        self.bb_used: List[int] = []
        self._bb_seq: List[int] = []
        #: per box: ``voter row -> slot``, insertion-ordered by recency
        #: (move-to-end on bump) — O(1) eviction victim at the head
        self._slots: List[Dict[int, int]] = []
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
        #: queued fresh-segment writes (see :meth:`bb_flush`); a queued
        #: slot reads ``bb_nvotes == 0`` until its write lands
        self._pend: List[tuple] = []
        #: telemetry: pool compactions, evicted voters, batched flushes
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
        new_cap = max(self._cap * 2, 1024)
        while new_cap < needed:
            new_cap *= 2
        for name, dtype, fill in _ROW_COLUMNS + _WIRE_COLUMNS:
            out = np.full(new_cap, fill, dtype=dtype)
            out[: self._cap] = getattr(self, name)
            setattr(self, name, out)
        self._box_of.extend([-1] * (new_cap - len(self._box_of)))
        self._vl_lists.extend([None] * (new_cap - len(self._vl_lists)))
        self._cap = new_cap

    def _box_row(self, owner_row: int) -> int:
        box = self._box_of[owner_row]
        if box >= 0:
            return box
        box = self._n_boxes
        if box >= self._box_cap:
            self._grow_boxes(box + 1)
        self._n_boxes = box + 1
        self._box_of[owner_row] = box
        self._slots.append({})
        self.bb_used.append(0)
        self._bb_seq.append(0)
        return box

    def _grow_boxes(self, needed: int) -> None:
        new_cap = max(self._box_cap * 2, 256)
        while new_cap < needed:
            new_cap *= 2
        for name, dtype, fill in _SLOT_COLUMNS:
            out = np.full((new_cap, self._width), fill, dtype=dtype)
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

    def _seg_vacate(self, box: int, slot: int, n: int) -> bool:
        """Empty a slot for a fresh write of ``n`` votes: keep its
        segment when they fit (``True``: the write reuses it in place),
        else orphan it as garbage."""
        cap = int(self.bb_segcap[box, slot])
        self.bb_nvotes[box, slot] = 0
        if n <= cap:
            return True
        self.bb_segcap[box, slot] = 0
        self._pay_release(cap)
        return False

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

    def bb_flush(self) -> None:
        """Land the queued fresh-segment writes, ``(box, slot, voter,
        mids, vals, ats, last, seq, reuse)`` each: a few record by
        record, a batch with one tail reservation, one copy per pool
        column and one vector store per slot column.  A ``reuse``
        record writes over its victim's segment, at the offset it has
        after any compaction the reservation ran."""
        pend = self._pend
        if not pend:
            return
        self._pend = []
        if len(pend) < _FLUSH_BATCH:
            for box, slot, voter, mids, vals, ats, last, seq, reuse in pend:
                n = len(mids)
                if reuse:
                    off = int(self.bb_off[box, slot])
                else:
                    off = self._pay_reserve(n)
                    self.bb_off[box, slot] = off
                    self.bb_segcap[box, slot] = n
                    self.pay_live += n
                end = off + n
                self.pay_mod[off:end] = mids
                self.pay_val[off:end] = vals
                self.pay_at[off:end] = ats
                self.bb_nvotes[box, slot] = n
                self.bb_voter[box, slot] = voter
                self.bb_last[box, slot] = last
                self.bb_order[box, slot] = seq
            return
        boxes, slots, voters, mids, vals, ats, lasts, seqs, reuse = zip(*pend)
        boxes = np.array(boxes, dtype=np.intp)
        slots = np.array(slots, dtype=np.intp)
        lens = np.fromiter(map(len, mids), np.int64, len(pend))
        fresh = ~np.array(reuse, dtype=np.bool_)
        caps = lens[fresh]
        total = int(caps.sum())
        base = self._pay_reserve(total)
        offs = self.bb_off[boxes, slots]
        offs[fresh] = base + np.cumsum(caps) - caps
        self.pay_live += total
        # New segments lie back to back from ``base``, in queue order.
        idx = slice(base, base + total) if fresh.all() else _ragged_index(offs, lens)
        self.pay_mod[idx] = np.concatenate(mids)
        self.pay_val[idx] = np.concatenate(vals)
        self.pay_at[idx] = np.repeat(ats, lens)
        self.bb_off[boxes, slots] = offs
        self.bb_segcap[boxes[fresh], slots[fresh]] = caps
        self.bb_nvotes[boxes, slots] = lens
        self.bb_voter[boxes, slots] = voters
        self.bb_last[boxes, slots] = lasts
        self.bb_order[boxes, slots] = seqs
        self.pay_flushes += 1

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
        defer: bool = False,
    ) -> int:
        """Merge packed votes — ``mids`` (int32 interned moderators,
        distinct, none of them the voter) with their ``vals`` (int8) —
        from the voter at ``voter_row`` into ``owner_row``'s box;
        returns how many were stored.  Everything order-sensitive —
        slot, recency, eviction victim, occupancy — is settled here; a
        voter new to the box gets a fresh segment whose write is queued
        for :meth:`bb_flush`, which runs at once unless ``defer`` (the
        arrays must then stay unchanged until the caller flushes).

        A full box evicts *before* inserting so the newcomer reuses the
        head voter's slot in place — the same final state the insert-
        then-evict order produces (``b_max >= 1`` keeps the newcomer
        off the victim list), without the swap-remove column traffic —
        and, when its list fits, the victim's segment too.
        """
        n = len(mids)
        if not n:
            return 0
        box = self._box_of[owner_row]
        if box < 0:
            box = self._box_row(owner_row)
        slots = self._slots[box]
        slot = slots.get(voter_row)
        seq = self._bb_seq[box] + 1
        self._bb_seq[box] = seq
        if slot is None:
            reuse = False
            if len(slots) >= b_max:
                # Evict-then-insert: same victims as the reference
                # insert-then-evict (heads of the recency order; the
                # newcomer would sit at the tail).
                self._evict(box, slots, owner_row, b_max)  # a shrunk b_max
                slot = slots.pop(next(iter(slots)))
                self.bb_evictions += 1
                if not self.bb_nvotes[box, slot]:
                    self.bb_flush()  # the victim's own write is queued
                reuse = self._seg_vacate(box, slot, n)
            else:
                slot = self._slot_add(box, owner_row)
            slots[voter_row] = slot
            self._pend.append((box, slot, voter_row, mids, vals, now, now, seq, reuse))
            if not defer:
                self.bb_flush()
            return n
        if not self.bb_nvotes[box, slot]:
            self.bb_flush()  # this voter's first write is still queued
        # Move-to-end: recency order is the dict's insertion order.
        slots.pop(voter_row)
        slots[voter_row] = slot
        self._seg_update(box, slot, mids, vals, now)
        self.bb_last[box, slot] = now
        self.bb_order[box, slot] = seq
        if len(slots) > b_max:
            # Only reachable when b_max shrank between merges on an
            # already-present voter (the insert path bounds itself).
            self._evict(box, slots, owner_row, b_max)
        return n

    def bb_remove_voter(self, owner_row: int, voter: str) -> bool:
        box = self._box_of[owner_row]
        if box < 0:
            return False
        vrow = self.rows.get(voter)
        if vrow is None or vrow not in self._slots[box]:
            return False
        self._drop_slot(box, self._slots[box], owner_row, vrow)
        return True

    def _slot_add(self, box: int, owner_row: int) -> int:
        """A new slot at the end of the box's occupied ones."""
        slot = self.bb_used[box]
        if slot >= self._width:
            self._grow_width(slot + 1)
        self.bb_used[box] = slot + 1
        self.bb_unique[owner_row] += 1
        return slot

    def _evict(
        self, box: int, slots: Dict[int, int], owner_row: int, b_max: int
    ) -> None:
        while len(slots) > b_max:
            victim = next(iter(slots))
            self._drop_slot(box, slots, owner_row, victim)
            self.bb_evictions += 1

    def _drop_slot(
        self, box: int, slots: Dict[int, int], owner_row: int, vrow: int
    ) -> None:
        """Free a voter's slot, swap-filling from the box's last slot
        (a value-only dict update, so the moved voter keeps its recency
        position).  The dropped segment becomes pool garbage.  Deferred
        writes land first: the swap moves slot columns they would
        write."""
        self.bb_flush()
        slot = slots.pop(vrow)
        last = self.bb_used[box] - 1
        cap = int(self.bb_segcap[box, slot])
        if slot != last:
            moved = int(self.bb_voter[box, last])
            self.bb_voter[box, slot] = moved
            self.bb_last[box, slot] = self.bb_last[box, last]
            self.bb_order[box, slot] = self.bb_order[box, last]
            self.bb_nvotes[box, slot] = self.bb_nvotes[box, last]
            self.bb_off[box, slot] = self.bb_off[box, last]
            self.bb_segcap[box, slot] = self.bb_segcap[box, last]
            slots[moved] = slot
        self.bb_voter[box, last] = -1
        self.bb_nvotes[box, last] = 0
        self.bb_segcap[box, last] = 0
        self.bb_used[box] = last
        self.bb_unique[owner_row] -= 1
        self._pay_release(cap)

    # ------------------------------------------------------------------
    # Ballot-box reads
    # ------------------------------------------------------------------
    def bb_slots(self, owner_row: int) -> Dict[int, int]:
        """The owner's ``voter row -> slot`` map (recency-ordered);
        empty for a peer whose box was never merged into."""
        box = self._box_of[owner_row]
        return self._slots[box] if box >= 0 else {}

    def _slot_of(self, owner_row: int, voter: str) -> Tuple[int, int]:
        """``(box, slot)`` for a stored voter, ``(-1, -1)`` otherwise;
        queued writes land first (the caller reads the slot)."""
        if self._pend:
            self.bb_flush()
        box = self._box_of[owner_row]
        if box < 0:
            return -1, -1
        vrow = self.rows.get(voter)
        if vrow is None:
            return -1, -1
        slot = self._slots[box].get(vrow)
        return (box, slot) if slot is not None else (-1, -1)

    def _tallies(self, owner_row: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Per interned moderator, the box's total and positive votes —
        one ragged gather over the slot segments and two bincounts;
        ``None`` for an empty box."""
        self.bb_flush()
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

    def bb_votes_of(self, owner_row: int, voter: str) -> List[Tuple[str, Vote, float]]:
        box, slot = self._slot_of(owner_row, voter)
        if box < 0:
            return []
        off = int(self.bb_off[box, slot])
        end = off + int(self.bb_nvotes[box, slot])
        ids = self.mods.ids
        return [
            (ids[m], _VOTE[v], a)
            for m, v, a in zip(
                self.pay_mod[off:end].tolist(),
                self.pay_val[off:end].tolist(),
                self.pay_at[off:end].tolist(),
            )
        ]

    def bb_vote_of(self, owner_row: int, voter: str, moderator_id: str):
        for moderator, vote, _at in self.bb_votes_of(owner_row, voter):
            if moderator == moderator_id:
                return vote
        return None

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
        self.bb_flush()
        box = self._box_of[owner_row]
        if box < 0:
            return []
        slots = self._slots[box]
        n = len(slots)
        slot_idx = np.fromiter(slots.values(), np.intp, n)
        lens = self.bb_nvotes[box, slot_idx]
        idx = _ragged_index(self.bb_off[box, slot_idx], lens)
        voters = np.repeat(np.fromiter(slots, np.intp, n), lens).tolist()
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

    def bb_last_received(self, owner_row: int, voter: str) -> float:
        box, slot = self._slot_of(owner_row, voter)
        return 0.0 if box < 0 else float(self.bb_last[box, slot])

    def bb_total_votes(self, owner_row: int) -> int:
        self.bb_flush()
        box = self._box_of[owner_row]
        if box < 0:
            return 0
        used = self.bb_used[box]
        return int(self.bb_nvotes[box, :used].sum())

    # ------------------------------------------------------------------
    # Checkpoint: the columns themselves
    # ------------------------------------------------------------------
    def dump_state(self) -> Dict[str, object]:
        """The whole store as scalars and trimmed array copies (see the
        module docstring); pairs with :meth:`load_state`."""
        self.bb_flush()
        n_rows = min(len(self.rows), self._cap)
        used = np.array(self.bb_used, dtype=np.int32)
        occupied = np.arange(self._width, dtype=np.int32) < used[:, None]
        state: Dict[str, object] = {
            "n_ids": len(self.rows),
            "n_mods": len(self.mods),
            "width": self._width,
            "row_ids": pack_strings(self.rows.ids),
            "mod_ids": pack_strings(self.mods.ids),
            "box_of": np.array(self._box_of[:n_rows], dtype=np.int32),
            "bb_used": used,
            "bb_seq": np.array(self._bb_seq, dtype=np.int64),
            "pay_size": int(self.pay_mod.size),
            "pay_tail": self.pay_tail,
            "pay_live": self.pay_live,
        }
        for name, _dtype, _fill in _ROW_COLUMNS:
            state[name] = getattr(self, name)[:n_rows].copy()
        for name, _dtype, _fill in _SLOT_COLUMNS:
            state[name] = getattr(self, name)[: used.size][occupied]
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
        self._box_of[:n_rows] = box_of.tolist()
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
        self.bb_used = used.tolist()
        self._bb_seq = take(state, "bb_seq", np.int64, n_boxes).tolist()
        # Recency dicts: each box's voters in ascending ``bb_order``
        # (a merge stamps the voter it moves to the dict's end).
        box_idx, slot_idx = np.nonzero(occupied)
        by_recency = np.lexsort((state["bb_order"], box_idx))
        voters = state["bb_voter"][by_recency].tolist()
        slots = slot_idx[by_recency].tolist()
        ends = np.cumsum(used).tolist()
        self._slots = [
            dict(zip(voters[end - n : end], slots[end - n : end]))
            for n, end in zip(self.bb_used, ends)
        ]

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Measured retained footprint: every numpy column, the
        payload pool, the per-box slot dicts and bookkeeping lists, and
        the moderator intern table's containers.  Peer/moderator id
        *strings* are shared with the rest of the system (the row
        tables hold one reference each) and excluded."""
        total = sum(
            getattr(self, name).nbytes
            for name, _dtype, _fill in _ROW_COLUMNS + _WIRE_COLUMNS + _SLOT_COLUMNS
        )
        total += self.vl_mod.nbytes + self.vl_val.nbytes
        total += sum(getattr(self, name).nbytes for name, _dtype in _POOL)
        for d in self._slots:
            total += sys.getsizeof(d)
        for container in (
            self._box_of,
            self.bb_used,
            self._bb_seq,
            self._slots,
            self._vl_lists,
            self._vl_self,
            self.mods.ids,
            self.mods.index,
        ):
            total += sys.getsizeof(container)
        return total

    def box_memory_bytes(self, owner_row: int) -> int:
        """One box's share of the retained footprint: its rows of the
        2-D columns, the pool entries its segments own and its slot
        dict.  (The global intern table is shared and not attributed to
        any single box.)"""
        box = self._box_of[owner_row]
        if box < 0:
            return 0
        self.bb_flush()
        per_slot = sum(np.dtype(dtype).itemsize for _n, dtype, _f in _SLOT_COLUMNS)
        per_entry = sum(np.dtype(dtype).itemsize for _n, dtype in _POOL)
        total = self._width * per_slot
        total += int(self.bb_segcap[box].sum()) * per_entry
        total += sys.getsizeof(self._slots[box])
        return total

    def pool_stats(self) -> Dict[str, object]:
        """Ballot-box fill and eviction pressure: the payload pool's
        capacity, tail and live entries, its garbage share, and the
        compactions, evictions and batched flushes so far."""
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStateStore(rows={len(self.rows)}, "
            f"boxes={self._n_boxes}, width={self._width}, "
            f"moderators={len(self.mods)})"
        )

