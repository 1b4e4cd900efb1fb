"""Columnar protocol state — structure-of-arrays node state.

PR 6 made the tick *scheduler* columnar (:mod:`repro.sim.population`);
this module does the same for the protocol *state*.  A
:class:`ColumnarStateStore` holds, for every known peer, numpy columns
keyed by the population engine's row↔peer-id table
(:class:`RowTable`):

* **ballot-box occupancy** — per-(box, voter) vote counts
  (``bb_nvotes``), ``last_received`` recency (``bb_last``) and the
  ``B_max`` eviction order (``bb_order``), in ``[box_row, slot]``
  2-D columns with swap-remove slot recycling;
* **ballot-box payloads** — the votes themselves, packed per box into
  parallel slab arrays (see below) instead of per-slot Python dicts;
* **experience thresholds** — the adaptive-T controller's per-node
  threshold (``exp_threshold``), read as a column slice by the batched
  experience gate;
* **vote / moderation store membership** — ``vl_size`` and
  ``store_size`` per peer, so a whole due batch can skip empty
  exchanges with one gather;
* **the vote lists' wire form** — what each peer sends in an exchange,
  packed when the list was cast instead of every time it is sent (see
  below).

:class:`ColumnarBallotBox` is a drop-in :class:`~repro.core.ballotbox
.BallotBox` whose state lives in the store's columns; the object API
(and therefore the single-client node format of
:mod:`repro.core.persistence` and every existing test) is unchanged,
and the semantics — self-vote drops, store-nothing
merges leaving recency untouched, oldest-voter eviction — are
bit-identical to the dict implementation (property-tested in
``tests/test_core_columnar.py`` and ``tests/test_columnar_payloads.py``).

Packed payload layout
---------------------
Moderator ids are interned once, globally, through a second
:class:`RowTable` (``store.mods``): the table is append-only and never
garbage-collected, so an interned id is stable for the lifetime of the
store and each id string is held exactly once no matter how many boxes
vote on it.  Each box owns three parallel slab arrays —

* ``vote_mod`` (int32): interned moderator id,
* ``vote_val`` (int8): the vote value (+1/−1),
* ``vote_at`` (float64): per-vote ``received_at``,

— and each occupied slot owns one contiguous *segment* of the slab,
located by ``bb_off`` (offset) / ``bb_nvotes`` (live length) /
``bb_segcap`` (capacity).  Segments keep the dict's insertion order
(new moderators append; repeat votes overwrite in place), capacities
are powers of two with a minimum of 2, and a segment that outgrows its
capacity relocates to the slab tail.  Freed segments (evictions,
wholesale restores) become slab garbage; a box compacts when more than
half its slab is dead and the slab is non-trivial, so retained slab
bytes stay within 2× the live votes.  The minimum capacity of 2 means
capacity slack alone can never trip the dead-bytes threshold —
compaction only chases actual garbage, never thrashes.

The packed layout is what makes the hot reads vectorisable:
``all_counts`` and the adaptive-T dispersion scan are ``np.bincount``
passes over the interned ids of one box's gathered segments, with no
Python-dict walking.

Box rows are allocated lazily on first merge (``_box_of``
indirection), and the slot width grows in powers of two up to the
widest ``b_max`` actually used, so a million-peer population whose
boxes stay empty pays nothing for the 2-D columns.

Vote-list wire form
-------------------
A node's :class:`~repro.core.votes.LocalVoteList` owns its votes (a
dict: casting and the approved/disapproved reads stay O(1) per vote),
but between two casts the list a peer sends is a constant, and the
paper's footnote 5 puts casting at ≤ 5 votes per 1 000 downloads.  So a
store-backed list reports every cast (``vl_cast``: the ``vl_size``
column and a ``vl_stale`` flag, O(1)), and the store keeps each row's
list *as an exchange carries it* — interned int32 moderator ids and
int8 values in exchange order (newest first, ties on id), the owner's
own id already dropped — as one ragged column: ``vl_off`` / ``vl_len``
per row into a shared ``vl_mod`` / ``vl_val`` pool.  A stale row is
repacked at the pool tail on its first use after the cast
(:meth:`ColumnarStateStore.vl_wire`), which is also when its
moderators are interned — the moment and order :meth:`bb_merge` would
intern them on receiving the list, so interned ids do not depend on
which path carried a vote.  (The one exception: a list longer than
the exchange cap interns all its moderators at packing, not just the
ones first selected.)  Old segments are garbage; the pool is rewritten
without them when more than half of it is dead.

Both merge entries end in one core, :meth:`bb_merge_packed`, which
takes packed arrays: the batched vote tick hands it two pool slices per
exchange, :meth:`bb_merge` interns, dedups and self-filters a
``VoteEntry`` list into the same form first.

The wire form is derived state: ``memory_bytes()`` counts it,
``dump_state()`` does not write it, and a loaded store marks every
non-empty list stale so it repacks on demand — checkpoint bytes and
format do not know it exists.

The columns are the checkpoint
------------------------------
:meth:`ColumnarStateStore.dump_state` hands out the store as it is —
both intern tables, the per-row columns, the occupied slots of the
per-(box, slot) columns and every box's slab up to its tail — and
:meth:`ColumnarStateStore.load_state` adopts such a dump into an empty
store with the same row numbers, slot numbers, segment offsets and
slab capacities, so the loaded store not only reads the same but
evicts, relocates and compacts at the same moments the dumped one
would have.  Only the per-box recency dicts are derived on load (from
``bb_voter`` ordered by ``bb_order``).
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.ballotbox import BallotBox
from repro.core.checkpoint import pack_strings, take, unpack_strings
from repro.core.votes import LocalVoteList, Vote, VoteEntry

#: The store's columns, defined once for growth, accounting and
#: dump/load: ``(name, dtype, fill)`` of the per-row and the
#: per-(box, slot) arrays, ``(name, dtype)`` of the per-box slab lists.
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
_SLABS = (("pay_mod", np.int32), ("pay_val", np.int8), ("pay_at", np.float64))
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

        # Ballot-box sub-store: box rows are allocated on first merge
        # (``_box_of`` indirection), slots within a box are recycled
        # with swap-remove.  Scalar per-box bookkeeping (``_box_of``,
        # ``bb_used``, ``_bb_seq``) lives in plain Python lists — the
        # merge hot path reads and writes them one element at a time,
        # where list indexing is several times cheaper than a numpy
        # scalar access — while the per-(box, slot) state stays in 2-D
        # numpy columns for the vectorised reads and the memory win.
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
        #: slab offset of the slot's payload segment per (box, slot)
        self.bb_off = np.zeros((0, 0), dtype=np.int64)
        #: capacity of the slot's payload segment (0 = none)
        self.bb_segcap = np.zeros((0, 0), dtype=np.int32)
        #: occupied slots per box
        self.bb_used: List[int] = []
        self._bb_seq: List[int] = []
        #: per box: ``voter row -> slot``, insertion-ordered by recency
        #: (move-to-end on bump) — O(1) eviction victim at the head
        self._slots: List[Dict[int, int]] = []
        # Per-box payload slabs (see the module docstring's layout).
        self._pay_mod: List[np.ndarray] = []
        self._pay_val: List[np.ndarray] = []
        self._pay_at: List[np.ndarray] = []
        #: slab tail (next free offset) per box
        self._pay_used: List[int] = []
        #: live (non-garbage) payload entries per box
        self._pay_live: List[int] = []

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
        self._pay_mod.append(np.empty(0, dtype=np.int32))
        self._pay_val.append(np.empty(0, dtype=np.int8))
        self._pay_at.append(np.empty(0, dtype=np.float64))
        self._pay_used.append(0)
        self._pay_live.append(0)
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
                # Self-votes carry no information (see BallotBox.merge).
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
    # Payload slab management
    # ------------------------------------------------------------------
    def _seg_alloc(self, box: int, need: int) -> Tuple[int, int]:
        """Reserve a tail segment of power-of-two capacity ≥ ``need``.

        The minimum capacity of 2 bounds capacity slack at half the
        slab, so the dead-bytes compaction trigger below can only fire
        on real garbage (freed or relocated segments)."""
        cap = 2
        while cap < need:
            cap <<= 1
        if self._pay_used[box] + cap > self._pay_mod[box].size:
            used = self._pay_used[box]
            if used - self._pay_live[box] > (used >> 1) and used > 64:
                self._compact_box(box)
            if self._pay_used[box] + cap > self._pay_mod[box].size:
                self._grow_slab(box, self._pay_used[box] + cap)
        off = self._pay_used[box]
        self._pay_used[box] = off + cap
        return off, cap

    def _grow_slab(self, box: int, needed: int) -> None:
        size = max(self._pay_mod[box].size * 2, 16)
        while size < needed:
            size *= 2
        for slabs, dtype in (
            (self._pay_mod, np.int32),
            (self._pay_val, np.int8),
            (self._pay_at, np.float64),
        ):
            old = slabs[box]
            out = np.empty(size, dtype=dtype)
            out[: old.size] = old
            slabs[box] = out

    def _seg_free(self, box: int, slot: int) -> None:
        """Orphan a slot's segment (it becomes slab garbage)."""
        self._pay_live[box] -= int(self.bb_nvotes[box, slot])
        self.bb_nvotes[box, slot] = 0
        self.bb_segcap[box, slot] = 0

    def _seg_write(self, box: int, slot: int, mids, vals, ats) -> None:
        """Write a fresh segment for a slot that currently owns none:
        three copies into the slab.  ``ats`` may be a scalar (merge:
        everything lands ``now``) or a per-entry sequence (restore)."""
        n = len(mids)
        off, cap = self._seg_alloc(box, n)
        end = off + n
        self._pay_mod[box][off:end] = mids
        self._pay_val[box][off:end] = vals
        self._pay_at[box][off:end] = ats
        self.bb_off[box, slot] = off
        self.bb_segcap[box, slot] = cap
        self.bb_nvotes[box, slot] = n
        self._pay_live[box] += n

    def _seg_update(
        self, box: int, slot: int, mids: np.ndarray, vals: np.ndarray, now: float
    ) -> None:
        """Fold packed votes (distinct ``mids``) into an existing
        segment: repeat moderators overwrite in place, new ones append
        (relocating the segment to the slab tail when it outgrows its
        capacity) — the same first-occurrence insertion order the dict
        backend's payload dicts keep."""
        off = int(self.bb_off[box, slot])
        n = int(self.bb_nvotes[box, slot])
        pm = self._pay_mod[box]
        pv = self._pay_val[box]
        pa = self._pay_at[box]
        seg = pm[off : off + n]
        if n == len(mids) and (seg == mids).all():
            # The voter's list as last time (votes rarely change
            # between two meetings): overwrite values and times.
            pv[off : off + n] = vals
            pa[off : off + n] = now
            return
        match = seg[:, None] == mids  # [stored, incoming], ≤ 1 hit per column
        found = match.any(axis=0)
        at = off + match.argmax(axis=0)[found]
        pv[at] = vals[found]
        pa[at] = now
        new = ~found
        k = int(np.count_nonzero(new))
        if not k:
            return
        if n + k > int(self.bb_segcap[box, slot]):
            new_off, new_cap = self._seg_alloc(box, n + k)
            # _seg_alloc may have compacted the box (moving this very
            # segment), so re-read the slab arrays and the offset.
            pm = self._pay_mod[box]
            pv = self._pay_val[box]
            pa = self._pay_at[box]
            src = int(self.bb_off[box, slot])
            pm[new_off : new_off + n] = pm[src : src + n]
            pv[new_off : new_off + n] = pv[src : src + n]
            pa[new_off : new_off + n] = pa[src : src + n]
            off = new_off
            self.bb_off[box, slot] = new_off
            self.bb_segcap[box, slot] = new_cap
        end = off + n
        pm[end : end + k] = mids[new]
        pv[end : end + k] = vals[new]
        pa[end : end + k] = now
        self.bb_nvotes[box, slot] = n + k
        self._pay_live[box] += k

    def _compact_box(self, box: int) -> None:
        """Rewrite the box's slab with only the live segments (fresh
        power-of-two capacities), dropping all garbage."""
        used_slots = self.bb_used[box]
        offs = self.bb_off[box]
        lens = self.bb_nvotes[box]
        caps = self.bb_segcap[box]
        old_mod = self._pay_mod[box]
        old_val = self._pay_val[box]
        old_at = self._pay_at[box]
        total = 0
        for s in range(used_slots):
            n = int(lens[s])
            if n == 0:
                continue
            c = 2
            while c < n:
                c <<= 1
            total += c
        size = 16
        while size < total:
            size <<= 1
        new_mod = np.empty(size, dtype=np.int32)
        new_val = np.empty(size, dtype=np.int8)
        new_at = np.empty(size, dtype=np.float64)
        pos = 0
        live = 0
        for s in range(used_slots):
            n = int(lens[s])
            if n == 0:
                offs[s] = 0
                caps[s] = 0
                continue
            c = 2
            while c < n:
                c <<= 1
            o = int(offs[s])
            new_mod[pos : pos + n] = old_mod[o : o + n]
            new_val[pos : pos + n] = old_val[o : o + n]
            new_at[pos : pos + n] = old_at[o : o + n]
            offs[s] = pos
            caps[s] = c
            pos += c
            live += n
        self._pay_mod[box] = new_mod
        self._pay_val[box] = new_val
        self._pay_at[box] = new_at
        self._pay_used[box] = pos
        self._pay_live[box] = live

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
        collapse to their last vote and count once, matching the dict
        backend).  Recency is bumped only when something was stored.

        The object-API entry: interns, dedups and self-filters the
        entries into packed arrays and hands them to
        :meth:`bb_merge_packed`, where the merge itself lives.
        """
        mods = self.mods
        # ``merged`` keeps first-occurrence order with last-wins
        # values, exactly what a payload dict would hold after folding
        # the same list in.
        merged: Dict[int, int] = {}
        for e in entries:
            moderator = e.moderator_id
            if moderator == voter:
                # Self-votes carry no information (see BallotBox.merge).
                continue
            v = e.vote
            merged[mods.row(moderator)] = int(v) if type(v) is Vote else int(Vote(v))
        n = len(merged)
        if not n:
            return 0
        return self.bb_merge_packed(
            owner_row,
            b_max,
            self.rows.row(voter),
            np.fromiter(merged, np.int32, n),
            np.fromiter(merged.values(), np.int8, n),
            now,
        )

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
        returns how many were stored.  The batched vote tick calls this
        row to row with two :meth:`vl_wire` slices per exchange (the
        arrays are copied, never kept); :meth:`bb_merge` ends here too.

        A full box evicts *before* inserting so the newcomer reuses the
        head voter's slot in place — the same final state the insert-
        then-evict order produces (``b_max >= 1`` keeps the newcomer
        off the victim list), without the swap-remove column traffic.
        """
        n = len(mids)
        if not n:
            return 0
        box = self._box_of[owner_row]
        if box < 0:
            box = self._box_row(owner_row)
        slots = self._slots[box]
        slot = slots.get(voter_row)
        if slot is None:
            nslots = len(slots)
            if nslots >= b_max:
                # Evict-then-insert: same victims as the reference
                # insert-then-evict (heads of the recency order; the
                # newcomer would sit at the tail), but the last victim's
                # slot is reused in place.
                while nslots > b_max:
                    self._drop_slot(box, slots, owner_row, next(iter(slots)))
                    nslots -= 1
                slot = slots.pop(next(iter(slots)))
                self._seg_free(box, slot)
                self.bb_voter[box, slot] = voter_row
            else:
                slot = self.bb_used[box]
                if slot >= self._width:
                    self._grow_width(slot + 1)
                self.bb_voter[box, slot] = voter_row
                self.bb_used[box] = slot + 1
                self.bb_unique[owner_row] += 1
            slots[voter_row] = slot
            self._seg_write(box, slot, mids, vals, now)
        else:
            # Move-to-end: recency order is the dict's insertion order.
            slots.pop(voter_row)
            slots[voter_row] = slot
            self._seg_update(box, slot, mids, vals, now)
        seq = self._bb_seq[box] + 1
        self._bb_seq[box] = seq
        self.bb_last[box, slot] = now
        self.bb_order[box, slot] = seq
        if len(slots) > b_max:
            # Only reachable when b_max shrank between merges on an
            # already-present voter (the insert path bounds itself).
            self._evict(box, slots, owner_row, b_max)
        return n

    def bb_restore_voter(
        self,
        owner_row: int,
        b_max: int,
        voter: str,
        votes: Iterable[Tuple[str, Vote, float]],
        last_received: float,
    ) -> None:
        """:meth:`BallotBox.restore_voter` over the columns — the
        voter's previous segment (if any) is wholesale replaced."""
        mods = self.mods
        stored: Dict[int, Tuple[int, float]] = {
            mods.row(moderator): (int(Vote(vote)), received_at)
            for moderator, vote, received_at in votes
            if moderator != voter
        }
        if not stored:
            return
        box = self._box_row(owner_row)
        slots = self._slots[box]
        vrow = self.rows.row(voter)
        slot = slots.get(vrow)
        if slot is None:
            slot = self.bb_used[box]
            if slot >= self._width:
                self._grow_width(slot + 1)
            self.bb_voter[box, slot] = vrow
            self.bb_used[box] = slot + 1
            self.bb_unique[owner_row] += 1
        else:
            self._seg_free(box, slot)
            slots.pop(vrow)
        slots[vrow] = slot
        vals_ats = list(stored.values())
        self._seg_write(
            box,
            slot,
            list(stored.keys()),
            [v for v, _ in vals_ats],
            [a for _, a in vals_ats],
        )
        self._stamp(box, slot, last_received)
        self._evict(box, slots, owner_row, b_max)

    def bb_remove_voter(self, owner_row: int, voter: str) -> bool:
        box = self._box_of[owner_row]
        if box < 0:
            return False
        vrow = self.rows.get(voter)
        if vrow is None or vrow not in self._slots[box]:
            return False
        self._drop_slot(box, self._slots[box], owner_row, vrow)
        return True

    def _stamp(self, box: int, slot: int, when: float) -> None:
        seq = self._bb_seq[box] + 1
        self._bb_seq[box] = seq
        self.bb_last[box, slot] = when
        self.bb_order[box, slot] = seq

    def _evict(
        self, box: int, slots: Dict[int, int], owner_row: int, b_max: int
    ) -> None:
        while len(slots) > b_max:
            victim = next(iter(slots))
            self._drop_slot(box, slots, owner_row, victim)

    def _drop_slot(
        self, box: int, slots: Dict[int, int], owner_row: int, vrow: int
    ) -> None:
        """Free a voter's slot, swap-filling from the box's last slot
        (a value-only dict update, so the moved voter keeps its recency
        position).  The dropped segment becomes slab garbage; the box
        compacts when dead entries outnumber live ones."""
        slot = slots.pop(vrow)
        last = self.bb_used[box] - 1
        self._pay_live[box] -= int(self.bb_nvotes[box, slot])
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
        used = self._pay_used[box]
        if used - self._pay_live[box] > (used >> 1) and used > 64:
            self._compact_box(box)

    # ------------------------------------------------------------------
    # Ballot-box reads
    # ------------------------------------------------------------------
    def bb_slots(self, owner_row: int) -> Dict[int, int]:
        """The owner's ``voter row -> slot`` map (recency-ordered);
        empty for a peer whose box was never merged into."""
        box = self._box_of[owner_row]
        return self._slots[box] if box >= 0 else {}

    def _slot_of(self, owner_row: int, voter: str) -> Tuple[int, int]:
        """``(box, slot)`` for a stored voter, ``(-1, -1)`` otherwise."""
        box = self._box_of[owner_row]
        if box < 0:
            return -1, -1
        vrow = self.rows.get(voter)
        if vrow is None:
            return -1, -1
        slot = self._slots[box].get(vrow)
        return (box, slot) if slot is not None else (-1, -1)

    def _box_votes(self, box: int) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """All of one box's live ``(moderator ids, vote values)``,
        gathered from the slot segments with one ragged fancy-index."""
        used = self.bb_used[box]
        if used == 0:
            return None
        idx = _ragged_index(self.bb_off[box, :used], self.bb_nvotes[box, :used])
        if idx.size == 0:
            return None
        return self._pay_mod[box][idx], self._pay_val[box][idx]

    def bb_votes_of(self, owner_row: int, voter: str) -> List[Tuple[str, Vote, float]]:
        box, slot = self._slot_of(owner_row, voter)
        if box < 0:
            return []
        off = int(self.bb_off[box, slot])
        end = off + int(self.bb_nvotes[box, slot])
        ids = self.mods.ids
        return [
            (ids[m], Vote(v), a)
            for m, v, a in zip(
                self._pay_mod[box][off:end].tolist(),
                self._pay_val[box][off:end].tolist(),
                self._pay_at[box][off:end].tolist(),
            )
        ]

    def bb_vote_of(self, owner_row: int, voter: str, moderator_id: str):
        box, slot = self._slot_of(owner_row, voter)
        if box < 0:
            return None
        mid = self.mods.get(moderator_id)
        if mid is None:
            return None
        off = int(self.bb_off[box, slot])
        end = off + int(self.bb_nvotes[box, slot])
        hits = np.nonzero(self._pay_mod[box][off:end] == mid)[0]
        if hits.size == 0:
            return None
        return Vote(int(self._pay_val[box][off + int(hits[0])]))

    def bb_moderators(self, owner_row: int) -> List[str]:
        box = self._box_of[owner_row]
        if box < 0:
            return []
        gathered = self._box_votes(box)
        if gathered is None:
            return []
        ids = self.mods.ids
        return sorted(ids[m] for m in np.unique(gathered[0]).tolist())

    def bb_counts(self, owner_row: int, moderator_id: str) -> Tuple[int, int]:
        box = self._box_of[owner_row]
        if box < 0:
            return 0, 0
        mid = self.mods.get(moderator_id)
        if mid is None:
            return 0, 0
        gathered = self._box_votes(box)
        if gathered is None:
            return 0, 0
        mods_arr, vals_arr = gathered
        sel = mods_arr == mid
        tot = int(np.count_nonzero(sel))
        if tot == 0:
            return 0, 0
        pos = int(np.count_nonzero(vals_arr[sel] > 0))
        return pos, tot - pos

    def bb_all_counts(self, owner_row: int) -> Dict[str, Tuple[int, int]]:
        """``moderator → (positive, negative)`` as one pair of bincount
        scans over the box's interned moderator ids."""
        box = self._box_of[owner_row]
        if box < 0:
            return {}
        gathered = self._box_votes(box)
        if gathered is None:
            return {}
        mods_arr, vals_arr = gathered
        nbins = int(mods_arr.max()) + 1
        tot = np.bincount(mods_arr, minlength=nbins)
        pos = np.bincount(mods_arr[vals_arr > 0], minlength=nbins)
        ids = self.mods.ids
        out: Dict[str, Tuple[int, int]] = {}
        for mid in np.unique(mods_arr).tolist():
            p = int(pos[mid])
            out[ids[mid]] = (p, int(tot[mid]) - p)
        return out

    def bb_dispersion(self, owner_row: int) -> float:
        """Worst-case per-moderator disagreement (the adaptive-T
        signal): max over moderators with ≥ 2 votes of ``4·p·(1−p)``.
        Same bincount scan as :meth:`bb_all_counts`, but the tallies
        never materialise as a Python dict — this is the vectorised
        fast path behind :meth:`ColumnarBallotBox.dispersion`."""
        box = self._box_of[owner_row]
        if box < 0:
            return 0.0
        gathered = self._box_votes(box)
        if gathered is None:
            return 0.0
        mods_arr, vals_arr = gathered
        nbins = int(mods_arr.max()) + 1
        tot = np.bincount(mods_arr, minlength=nbins)
        mask = tot >= 2
        if not mask.any():
            return 0.0
        pos = np.bincount(mods_arr[vals_arr > 0], minlength=nbins)
        # int/int true division and 4·p·(1−p) are elementwise float64
        # ops — bit-identical to the scalar loop over all_counts().
        p = pos[mask] / tot[mask]
        return float((4.0 * p * (1.0 - p)).max())

    def bb_export_digest(
        self, owner_row: int
    ) -> List[Tuple[str, str, int, float]]:
        """Every stored vote of one box as flat ``(voter, moderator,
        vote, received_at)`` rows sorted by ``(voter, moderator)`` —
        the columnar side of :meth:`BallotBox.export_digest`, gathered
        straight from the packed payload slabs."""
        box = self._box_of[owner_row]
        if box < 0:
            return []
        mod_ids = self.mods.ids
        row_ids = self.rows.ids
        out: List[Tuple[str, str, int, float]] = []
        for vrow, slot in self._slots[box].items():
            voter = row_ids[vrow]
            off = int(self.bb_off[box, slot])
            end = off + int(self.bb_nvotes[box, slot])
            out.extend(
                (voter, mod_ids[m], int(v), float(a))
                for m, v, a in zip(
                    self._pay_mod[box][off:end].tolist(),
                    self._pay_val[box][off:end].tolist(),
                    self._pay_at[box][off:end].tolist(),
                )
            )
        out.sort(key=lambda r: (r[0], r[1]))
        return out

    def bb_last_received(self, owner_row: int, voter: str) -> float:
        box, slot = self._slot_of(owner_row, voter)
        return 0.0 if box < 0 else float(self.bb_last[box, slot])

    def bb_total_votes(self, owner_row: int) -> int:
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
            "pay_size": np.array([slab.size for slab in self._pay_mod], dtype=np.int64),
            "pay_used": np.array(self._pay_used, dtype=np.int64),
            "pay_live": np.array(self._pay_live, dtype=np.int64),
        }
        for name, _dtype, _fill in _ROW_COLUMNS:
            state[name] = getattr(self, name)[:n_rows].copy()
        for name, _dtype, _fill in _SLOT_COLUMNS:
            state[name] = getattr(self, name)[: used.size][occupied]
        for name, dtype in _SLABS:
            slabs = getattr(self, "_" + name)
            tails = [slab[:end] for slab, end in zip(slabs, self._pay_used)]
            state[name] = np.concatenate(tails) if tails else np.empty(0, dtype=dtype)
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
        sizes = take(state, "pay_size", np.int64, n_boxes).tolist()
        self._pay_used = take(state, "pay_used", np.int64, n_boxes).tolist()
        self._pay_live = take(state, "pay_live", np.int64, n_boxes).tolist()
        for name, dtype in _SLABS:
            tails = take(state, name, dtype, sum(self._pay_used))
            slabs = []
            start = 0
            for size, end in zip(sizes, self._pay_used):
                slab = np.empty(size, dtype=dtype)
                slab[:end] = tails[start : start + end]
                start += end
                slabs.append(slab)
            setattr(self, "_" + name, slabs)
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
        """Measured retained footprint: every numpy column, every
        payload slab, the per-box slot dicts and bookkeeping lists, and
        the moderator intern table's containers.  Peer/moderator id
        *strings* are shared with the rest of the system (the row
        tables hold one reference each) and excluded — the dict
        backend's :meth:`BallotBox.memory_bytes` draws the same line,
        so the two layouts are comparable like-for-like."""
        total = sum(
            getattr(self, name).nbytes
            for name, _dtype, _fill in _ROW_COLUMNS + _WIRE_COLUMNS + _SLOT_COLUMNS
        )
        total += self.vl_mod.nbytes + self.vl_val.nbytes
        for name, _dtype in _SLABS:
            slabs = getattr(self, "_" + name)
            total += sys.getsizeof(slabs) + sum(arr.nbytes for arr in slabs)
        for d in self._slots:
            total += sys.getsizeof(d)
        for container in (
            self._box_of,
            self.bb_used,
            self._bb_seq,
            self._slots,
            self._pay_used,
            self._pay_live,
            self._vl_lists,
            self._vl_self,
            self.mods.ids,
            self.mods.index,
        ):
            total += sys.getsizeof(container)
        return total

    def box_memory_bytes(self, owner_row: int) -> int:
        """One box's share of the retained footprint: its rows of the
        2-D columns, its payload slabs and its slot dict.  (The global
        intern table is shared and not attributed to any single box.)"""
        box = self._box_of[owner_row]
        if box < 0:
            return 0
        per_slot = sum(np.dtype(dtype).itemsize for _n, dtype, _f in _SLOT_COLUMNS)
        total = self._width * per_slot
        total += sum(getattr(self, "_" + name)[box].nbytes for name, _dtype in _SLABS)
        total += sys.getsizeof(self._slots[box])
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarStateStore(rows={len(self.rows)}, "
            f"boxes={self._n_boxes}, width={self._width}, "
            f"moderators={len(self.mods)})"
        )


class ColumnarBallotBox(BallotBox):
    """A :class:`BallotBox` whose state lives in a
    :class:`ColumnarStateStore`.

    Same public API and bit-identical semantics; the dict-backed
    attributes of the parent are never created.  The view holds only
    ``(store, owner_row, b_max)`` — equality of behaviour is enforced
    by the property tests, and the single-client node format works
    unchanged because it reads and writes through the public API only.
    """

    def __init__(self, store: ColumnarStateStore, owner_row: int, b_max: int = 100):
        if b_max < 1:
            raise ValueError("b_max must be >= 1")
        self.b_max = b_max
        self._store = store
        self._row = owner_row

    # -- mutations ------------------------------------------------------
    def merge(self, voter: str, entries: Iterable[VoteEntry], now: float) -> int:
        return self._store.bb_merge(self._row, self.b_max, voter, entries, now)

    def restore_voter(
        self,
        voter: str,
        votes: Iterable[Tuple[str, Vote, float]],
        last_received: float,
    ) -> None:
        self._store.bb_restore_voter(
            self._row, self.b_max, voter, votes, last_received
        )

    def remove_voter(self, voter: str) -> bool:
        return self._store.bb_remove_voter(self._row, voter)

    # -- reads ----------------------------------------------------------
    def num_unique_users(self) -> int:
        return len(self._store.bb_slots(self._row))

    def voters(self) -> List[str]:
        ids = self._store.rows.ids
        return sorted(ids[vrow] for vrow in self._store.bb_slots(self._row))

    def voters_by_recency(self) -> List[str]:
        ids = self._store.rows.ids
        return [ids[vrow] for vrow in self._store.bb_slots(self._row)]

    def votes_of(self, voter: str) -> List[Tuple[str, Vote, float]]:
        return self._store.bb_votes_of(self._row, voter)

    def last_received_of(self, voter: str) -> float:
        return self._store.bb_last_received(self._row, voter)

    def moderators(self) -> List[str]:
        return self._store.bb_moderators(self._row)

    def counts(self, moderator_id: str) -> Tuple[int, int]:
        return self._store.bb_counts(self._row, moderator_id)

    def all_counts(self) -> Dict[str, Tuple[int, int]]:
        return self._store.bb_all_counts(self._row)

    def total_votes(self) -> int:
        return self._store.bb_total_votes(self._row)

    def vote_of(self, voter: str, moderator_id: str):
        return self._store.bb_vote_of(self._row, voter, moderator_id)

    def export_digest(self) -> List[Tuple[str, str, int, float]]:
        return self._store.bb_export_digest(self._row)

    def dispersion(self) -> float:
        return self._store.bb_dispersion(self._row)

    def memory_bytes(self) -> int:
        return self._store.box_memory_bytes(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ColumnarBallotBox(voters={self.num_unique_users()}/"
            f"{self.b_max}, votes={self.total_votes()})"
        )
