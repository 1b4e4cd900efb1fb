"""Batch-deferred ballot merges against one-at-a-time merges and the
dict box.

The batched vote tick merges with ``bb_merge_packed(..., defer=True)``:
everything order-sensitive (slot, recency, eviction victim, occupancy)
is settled at once, but a fresh segment's write is queued, and the
whole batch's writes land in one ragged copy at ``bb_flush``.  Any read
of a box, any eviction or update of a slot whose write is queued, and
any compaction must see the same state one-at-a-time merging leaves.

Hypothesis generates batches of merges into a few boxes — the same
voter twice in one batch, two peers merging into each other's boxes,
``b_max`` shrinking and growing between merges, lists reaching the box
as pool slices or as above-cap pick copies, and ranking reads mid-batch
(what VoxPopuli's top-K answer reads) — and after every batch requires
the deferred store, a store merging one at a time and the dict boxes
of ``tests/reference_ballotbox.py`` to agree on every read, with the
payload pool within 2× its live entries above a small floor.  A seeded run then
checks that the awkward interleavings actually occurred.
"""

import random
import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import columnar
from repro.core.ballotbox import BallotBox
from repro.core.columnar import _POOL_FLOOR, ColumnarStateStore
from repro.core.votes import Vote, VoteEntry
from tests.reference_ballotbox import ReferenceBallotBox

OWNERS = ("o0", "o1", "o2", "o3")
VOTERS = OWNERS + ("f0", "f1", "f2", "f3")
N_MODS = 8
B_MAX = (1, 2, 3, 5)


class _Store(ColumnarStateStore):
    """A store that notes which awkward interleavings it went through."""

    def __init__(self):
        super().__init__()
        self.seen = set()
        self._why = ""

    def bb_merge_packed(self, owner_row, b_max, voter_row, mids, vals, now, defer=False):
        slots = self.bb_slots(owner_row)
        if voter_row in slots:
            self._why = "update of a queued slot"
        elif len(slots) >= b_max:
            self._why = "eviction of a queued slot"
            if len(slots) > b_max:
                self.seen.add("b_max shrink")
        return super().bb_merge_packed(owner_row, b_max, voter_row, mids, vals, now, defer)

    def bb_flush(self):
        if self._pend:
            caller = sys._getframe(1).f_code.co_name
            if caller == "bb_merge_packed" and self._why:
                self.seen.add(self._why)
            elif caller in ("_tallies", "_slot_of", "bb_export_digest"):
                self.seen.add("read of a queued box")
            if len(self._pend) >= columnar._FLUSH_BATCH:
                self.seen.add("ragged flush")
            if any(record[-1] for record in self._pend):
                self.seen.add("victim segment reused")
        self._why = ""
        super().bb_flush()

    def _pay_compact(self):
        if self._pend:
            self.seen.add("compaction mid-batch")
        super()._pay_compact()


class _Trio:
    """The same merges into a deferred store, a one-at-a-time store and
    one dict box per owner."""

    def __init__(self):
        self.deferred = _Store()
        self.direct = ColumnarStateStore()
        for store in (self.deferred, self.direct):
            for pid in VOTERS:
                store.ensure_row(pid)
            for m in range(N_MODS):
                store.mods.row(f"m{m}")
        self.ref = {owner: ReferenceBallotBox(1) for owner in OWNERS}
        self.now = 0.0

    def merge(self, owner, voter, votes, b_max, picks):
        if owner == voter:
            return
        self.now += 1.0
        mids = np.array([m for m, _v in votes], dtype=np.int32)
        vals = np.array([v for _m, v in votes], dtype=np.int8)
        if picks:
            # an above-cap selection: a copy of some positions
            idx = np.arange(len(votes))[::-2]
            mids, vals = mids[idx], vals[idx]
        else:
            # the whole list: a view of the sender's pool segment
            mids, vals = mids[:], vals[:]
        box = self.ref[owner]
        box.b_max = b_max
        stored = box.merge(
            voter,
            [VoteEntry(f"m{m}", Vote(v), self.now) for m, v in zip(mids.tolist(), vals.tolist())],
            self.now,
        )
        row = VOTERS.index(owner)
        vrow = VOTERS.index(voter)
        assert self.direct.bb_merge_packed(row, b_max, vrow, mids, vals, self.now) == stored
        assert (
            self.deferred.bb_merge_packed(row, b_max, vrow, mids, vals, self.now, True)
            == stored
        )

    def read(self, owner):
        """A ranking read mid-batch, as a VoxPopuli top-K answer makes."""
        view = BallotBox(1, self.deferred, VOTERS.index(owner))
        ref = self.ref[owner]
        assert view.moderators() == ref.moderators()
        assert view.all_counts() == ref.all_counts()

    def end_batch(self):
        self.deferred.bb_flush()
        for owner in OWNERS:
            row = VOTERS.index(owner)
            ref = self.ref[owner]
            expected = (
                ref.export_digest(),
                ref.voters_by_recency(),
                ref.num_unique_users(),
                ref.all_counts(),
                ref.dispersion(),
            )
            for store in (self.deferred, self.direct):
                view = BallotBox(1, store, row)
                assert (
                    view.export_digest(),
                    view.voters_by_recency(),
                    int(store.bb_unique[row]),
                    view.all_counts(),
                    view.dispersion(),
                ) == expected
        for store in (self.deferred, self.direct):
            n_boxes = store._n_boxes
            votes = int(store.bb_nvotes[:n_boxes].sum())
            assert votes <= store.pay_live == int(store.bb_segcap[:n_boxes].sum())
            assert store.pay_live <= store.pay_tail <= store.pay_mod.size
            assert store.pay_tail <= max(2 * store.pay_live, _POOL_FLOOR)

    def run(self, batches):
        for batch in batches:
            for op in batch:
                if op[0] == "merge":
                    self.merge(*op[1:])
                else:
                    self.read(op[1])
            self.end_batch()


_votes = st.lists(
    st.tuples(st.integers(0, N_MODS - 1), st.sampled_from((1, -1))),
    min_size=1,
    max_size=N_MODS,
    unique_by=lambda mv: mv[0],
)
_op = st.one_of(
    st.tuples(
        st.just("merge"),
        st.sampled_from(OWNERS),
        st.sampled_from(VOTERS),
        _votes,
        st.sampled_from(B_MAX),
        st.booleans(),
    ),
    st.tuples(st.just("read"), st.sampled_from(OWNERS)),
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.lists(_op, min_size=1, max_size=16), min_size=1, max_size=8),
    st.sampled_from((2, columnar._FLUSH_BATCH)),
)
def test_deferred_merges_equal_one_at_a_time_and_the_dict_box(batches, flush_batch):
    # Small thresholds send short queues down the one-copy flush too.
    with mock.patch.object(columnar, "_FLUSH_BATCH", flush_batch):
        _Trio().run(batches)


def _random_batches(rnd, n_batches):
    for _ in range(n_batches):
        batch = []
        for _ in range(rnd.randrange(1, 24)):
            if rnd.random() < 0.08:
                batch.append(("read", rnd.choice(OWNERS)))
                continue
            mods = rnd.sample(range(N_MODS), rnd.randrange(1, N_MODS + 1))
            votes = [(m, rnd.choice((1, -1))) for m in mods]
            batch.append((
                "merge",
                rnd.choice(OWNERS),
                rnd.choice(VOTERS),
                votes,
                rnd.choice(B_MAX),
                rnd.random() < 0.2,
            ))
        yield batch


def test_the_awkward_interleavings_occur():
    trio = _Trio()
    trio.run(_random_batches(random.Random(5), 400))
    with mock.patch.object(columnar, "_FLUSH_BATCH", 2):
        trio.run(_random_batches(random.Random(6), 200))
    assert trio.deferred.seen >= {
        "update of a queued slot",
        "eviction of a queued slot",
        "b_max shrink",
        "read of a queued box",
        "ragged flush",
        "victim segment reused",
        "compaction mid-batch",
    }
    assert trio.deferred.pay_compactions and trio.deferred.pay_flushes


def test_garbage_left_under_the_floor_goes_before_the_tail_passes_it():
    """Evictions in a pool still under the compaction floor leave their
    garbage; the reservation that would take the tail past the floor
    drops it first, so the 2× bound holds from there on."""
    store = ColumnarStateStore()
    owner = store.ensure_row("o")
    for n in range(1, 12):  # each newcomer outgrows its victim's segment
        voter = store.ensure_row(f"v{n}")
        votes = np.arange(n, dtype=np.int32)
        store.bb_merge_packed(owner, 1, voter, votes, np.ones(n, np.int8), float(n))
        assert store.pay_tail <= max(2 * store.pay_live, _POOL_FLOOR)
    assert store.pay_compactions == 1 and store.pay_tail == store.pay_live == 11
