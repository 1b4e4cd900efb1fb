"""Merge runs against one-at-a-time merges and the dict box.

The batched vote tick queues the merges of every slot whose only effect
is merging and hands them to the store as runs
(``ColumnarStateStore.bb_merge_run``): the run is grouped by box and
taken in per-box rank waves, and each fresh segment's write is deferred
until the run's pending writes land in one ragged gather from the wire
pool.  Any update or eviction of a slot whose write is pending, any
compaction mid-run and any read between runs must see the state
one-at-a-time merging leaves.

Hypothesis generates batches of merges into a few boxes — the same
voter twice in one run, two peers merging into each other's boxes,
boxes filling and evicting mid-run, ``b_max`` shrinking and growing
between runs, and ranking reads between queued merges (what VoxPopuli's
top-K answer reads, which settles the queue first) — and after every
batch requires a store taking them as runs, a store merging one at a
time and the dict boxes of ``tests/reference_ballotbox.py`` to agree on
every read, with the payload pool within 2× its live entries above a
small floor.  A seeded run then checks that the awkward interleavings
actually occurred.
"""

import random
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
    """A store that notes which awkward interleavings its runs went
    through."""

    def __init__(self):
        super().__init__()
        self.seen = set()
        self._run = None

    def bb_merge_run(self, b_max, owner_rows, voter_rows, src_off, src_len, times, wire):
        pairs = list(zip(owner_rows.tolist(), voter_rows.tolist()))
        if len(set(pairs)) < len(pairs):
            self.seen.add("same voter twice in one run")
        if any((v, o) in pairs for o, v in pairs):
            self.seen.add("merges into each other's boxes")
        if len(pairs) >= columnar._RUN_FROM:
            self.seen.add("wave pass")
            boxes = self._box_of[owner_rows]
            if (self.bb_used[boxes[boxes >= 0]] > b_max).any():
                self.seen.add("b_max shrink")
        self._run = b_max
        try:
            super().bb_merge_run(
                b_max, owner_rows, voter_rows, src_off, src_len, times, wire
            )
        finally:
            self._run = None

    def _land(self, pend, wire, src_off, src_len, times):
        boxes = np.concatenate([b for _w, b, _s in pend])
        slots = np.concatenate([s for _w, _b, s in pend])
        if (self.bb_segcap[boxes, slots] > 0).any():
            self.seen.add("victim segment reused")
        if len(boxes) > 1:
            self.seen.add("ragged landing")
        super()._land(pend, wire, src_off, src_len, times)

    def _seg_update(self, box, slot, mids, vals, now):
        if self._run is not None and not self.bb_nvotes[box, slot]:
            raise AssertionError("update of a slot whose write is pending")
        super()._seg_update(box, slot, mids, vals, now)

    def _pay_compact(self):
        if self._run is not None:
            self.seen.add("compaction mid-run")
        super()._pay_compact()


class _Trio:
    """The same merges into a store taking them as runs, a one-at-a-time
    store and one dict box per owner."""

    def __init__(self):
        self.runs = _Store()
        self.direct = ColumnarStateStore()
        for store in (self.runs, self.direct):
            for pid in VOTERS:
                store.ensure_row(pid)
            for m in range(N_MODS):
                store.mods.row(f"m{m}")
        self.ref = {owner: ReferenceBallotBox(1) for owner in OWNERS}
        self.now = 0.0
        #: the queued run: ``(owner, voter, mids, vals, now)`` and its b_max
        self.queue = []
        self.queue_b_max = None

    def merge(self, owner, voter, votes, b_max, picks):
        if owner == voter:
            return
        self.now += 1.0
        mids = np.array([m for m, _v in votes], dtype=np.int32)
        vals = np.array([v for _m, v in votes], dtype=np.int8)
        if picks:
            # an above-cap selection: some positions of the list
            idx = np.arange(len(votes))[::-2]
            mids, vals = mids[idx], vals[idx]
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
        assert stored == len(mids)
        if b_max != self.queue_b_max:
            self.settle()  # one b_max per run: a change starts the next
        self.queue.append((row, vrow, mids, vals, self.now))
        self.queue_b_max = b_max

    def settle(self):
        """Hand the queue to the run store as one run, its lists laid
        out back to back in a wire pool (as the vote tick's pre-pass
        packs them)."""
        queue, self.queue = self.queue, []
        if not queue:
            return
        store = self.runs
        owners, voters, mids, vals, times = zip(*queue)
        lens = np.array([len(m) for m in mids], dtype=np.int32)
        # A garbage entry in front, so no segment starts at offset 0.
        wire = (
            np.concatenate(([-1], *mids)).astype(np.int32),
            np.concatenate(([0], *vals)).astype(np.int8),
        )
        store.bb_merge_run(
            self.queue_b_max,
            np.array(owners, dtype=np.int64),
            np.array(voters, dtype=np.int64),
            1 + np.cumsum(lens) - lens,
            lens,
            np.array(times),
            wire,
        )
        self.check_pool(store)

    def read(self, owner):
        """A ranking read between queued merges, as a VoxPopuli top-K
        answer makes: the queue settles first."""
        self.settle()
        view = BallotBox(1, self.runs, VOTERS.index(owner))
        ref = self.ref[owner]
        assert view.moderators() == ref.moderators()
        assert view.all_counts() == ref.all_counts()
        assert view.num_unique_users() == ref.num_unique_users()

    @staticmethod
    def check_pool(store):
        n_boxes = store._n_boxes
        votes = int(store.bb_nvotes[:n_boxes].sum())
        assert votes <= store.pay_live == int(store.bb_segcap[:n_boxes].sum())
        assert store.pay_live <= store.pay_tail <= store.pay_mod.size
        assert store.pay_tail <= max(2 * store.pay_live, _POOL_FLOOR)

    def end_batch(self):
        self.settle()
        for owner in OWNERS:
            row = VOTERS.index(owner)
            ref = self.ref[owner]
            expected = (
                ref.export_digest(),
                ref.voters_by_recency(),
                ref.ballot(),
                ref.num_unique_users(),
                ref.all_counts(),
                ref.dispersion(),
            )
            for store in (self.runs, self.direct):
                view = BallotBox(1, store, row)
                assert (
                    view.export_digest(),
                    view.voters_by_recency(),
                    view.ballot(),
                    int(store.bb_unique[row]),
                    view.all_counts(),
                    view.dispersion(),
                ) == expected
        for store in (self.runs, self.direct):
            self.check_pool(store)

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
    st.sampled_from((1, 2, columnar._RUN_FROM)),
)
def test_deferred_merges_equal_one_at_a_time_and_the_dict_box(batches, run_from):
    # Small thresholds send short runs through the wave pass too.
    with mock.patch.object(columnar, "_RUN_FROM", run_from):
        _Trio().run(batches)


def _random_batches(rnd, n_batches, b_max_change=0.05):
    for _ in range(n_batches):
        batch = []
        b_max = rnd.choice(B_MAX)
        for _ in range(rnd.randrange(1, 24)):
            if rnd.random() < 0.08:
                batch.append(("read", rnd.choice(OWNERS)))
                continue
            if rnd.random() < b_max_change:
                b_max = rnd.choice(B_MAX)
            mods = rnd.sample(range(N_MODS), rnd.randrange(1, N_MODS + 1))
            votes = [(m, rnd.choice((1, -1))) for m in mods]
            batch.append((
                "merge",
                rnd.choice(OWNERS),
                rnd.choice(VOTERS),
                votes,
                b_max,
                rnd.random() < 0.2,
            ))
        yield batch


def test_the_awkward_interleavings_occur():
    trio = _Trio()
    trio.run(_random_batches(random.Random(5), 400))
    with mock.patch.object(columnar, "_RUN_FROM", 2):
        trio.run(_random_batches(random.Random(6), 200))
    assert trio.runs.seen >= {
        "same voter twice in one run",
        "merges into each other's boxes",
        "wave pass",
        "b_max shrink",
        "ragged landing",
        "victim segment reused",
        "compaction mid-run",
    }
    assert trio.runs.pay_compactions and trio.runs.pay_flushes
    assert trio.runs.bb_evictions == trio.direct.bb_evictions > 0


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
