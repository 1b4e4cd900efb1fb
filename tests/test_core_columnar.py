"""Columnar protocol state vs the dict-backed reference.

The :class:`ColumnarStateStore` promises *bit-identical* BallotBox
semantics to the dict box in ``tests/reference_ballotbox.py``.  These
tests enforce that promise two ways:

* randomized merge/evict/remove sequences against paired boxes
  (:class:`ReferenceBallotBox` vs :class:`BallotBox` views sharing one
  store), comparing every read — including ``voters_by_recency`` (the
  eviction order) and ``all_counts``;
* an eviction-victim regression against a from-first-principles
  min-recency-scan model (the semantics the amortised recency-ordered
  implementation replaced).
"""

import random

import numpy as np
import pytest

from repro.core.ballotbox import BallotBox
from repro.core.columnar import ColumnarStateStore, RowTable
from repro.core.votes import Vote, VoteEntry
from tests.reference_ballotbox import ReferenceBallotBox

VOTES = (Vote.POSITIVE, Vote.NEGATIVE)


def _assert_boxes_equal(ref: ReferenceBallotBox, col: BallotBox) -> None:
    assert ref.num_unique_users() == col.num_unique_users()
    assert ref.voters() == col.voters()
    assert ref.voters_by_recency() == col.voters_by_recency()
    assert ref.total_votes() == col.total_votes()
    assert ref.moderators() == col.moderators()
    assert ref.all_counts() == col.all_counts()
    for voter in ref.voters():
        assert sorted(ref.votes_of(voter)) == sorted(col.votes_of(voter))
        assert ref.last_received_of(voter) == col.last_received_of(voter)
    for moderator in ref.moderators():
        assert ref.counts(moderator) == col.counts(moderator)


# ----------------------------------------------------------------------
# Property: random op sequences leave both backings bit-identical
# ----------------------------------------------------------------------
def test_random_op_sequences_bit_identical():
    rng = random.Random(0xC01)
    for trial in range(6):
        b_max = rng.choice((1, 2, 3, 5, 8))
        store = ColumnarStateStore()
        owners = [f"o{i}" for i in range(4)]
        pairs = [
            (ReferenceBallotBox(b_max), BallotBox(b_max, store, store.ensure_row(o)))
            for o in owners
        ]
        voters = [f"v{i}" for i in range(10)] + owners
        # Voter ids double as moderators so self-votes (dropped) and
        # votes *about* voters both occur.
        mods = [f"m{i}" for i in range(6)] + voters[:4]
        now = 0.0
        for _step in range(400):
            ref, col = pairs[rng.randrange(len(pairs))]
            now += rng.random()
            roll = rng.random()
            if roll < 0.70:
                voter = rng.choice(voters)
                entries = [
                    VoteEntry(rng.choice(mods + [voter]), rng.choice(VOTES), now)
                    for _ in range(rng.randrange(0, 4))
                ]
                assert ref.merge(voter, entries, now) == col.merge(
                    voter, list(entries), now
                )
            else:
                voter = rng.choice(voters)
                assert ref.remove_voter(voter) == col.remove_voter(voter)
            # Eviction order must track every single step.
            assert ref.voters_by_recency() == col.voters_by_recency()
        for owner, (ref, col) in zip(owners, pairs):
            _assert_boxes_equal(ref, col)
            # The occupancy column mirrors the box, not just the view.
            assert int(store.bb_unique[store.rows.row(owner)]) == (
                ref.num_unique_users()
            )


# ----------------------------------------------------------------------
# Eviction-victim regression vs the min-scan reference semantics
# ----------------------------------------------------------------------
class _MinScanBox:
    """Pre-amortisation reference: on overflow, evict the voter whose
    recency stamp is the minimum (a scan per merge).  The recency-
    ordered dicts of both boxes must pick identical victims."""

    def __init__(self, b_max: int):
        self.b_max = b_max
        self._seq = 0
        self._stamp = {}
        self._voters = set()
        self.victims = []

    def merge(self, voter: str, entries, now: float) -> None:
        stored = [e for e in entries if e.moderator_id != voter]
        if not stored:
            return
        self._voters.add(voter)
        self._seq += 1
        self._stamp[voter] = self._seq
        while len(self._voters) > self.b_max:
            victim = min(self._voters, key=self._stamp.__getitem__)
            self._voters.discard(victim)
            self._stamp.pop(victim)
            self.victims.append(victim)

    def by_recency(self):
        return sorted(self._voters, key=self._stamp.__getitem__)


@pytest.mark.parametrize("b_max", [1, 3, 5])
def test_eviction_victims_match_min_scan_reference(b_max):
    rng = random.Random(b_max * 7919)
    box = ReferenceBallotBox(b_max)
    col = BallotBox(b_max)
    model = _MinScanBox(b_max)
    voters = [f"v{i}" for i in range(12)]
    for step in range(500):
        voter = rng.choice(voters)
        entries = [
            VoteEntry(rng.choice(("m1", "m2", voter)), rng.choice(VOTES), float(step))
            for _ in range(rng.randrange(0, 3))
        ]
        box.merge(voter, entries, float(step))
        col.merge(voter, list(entries), float(step))
        model.merge(voter, entries, float(step))
        assert box.voters_by_recency() == model.by_recency()
        assert col.voters_by_recency() == model.by_recency()
    assert len(model.victims) > 50  # the sweep actually evicted


def test_fused_evict_then_insert_matches_reference():
    """A full box receiving a new voter: the columnar path reuses the
    head victim's slot in place; state must match the dict box's
    insert-then-evict exactly."""
    ref = ReferenceBallotBox(2)
    col = BallotBox(2)
    for i, voter in enumerate(("a", "b", "c", "d")):
        entries = [VoteEntry("mod", Vote.POSITIVE, float(i))]
        ref.merge(voter, entries, float(i))
        col.merge(voter, entries, float(i))
        _assert_boxes_equal(ref, col)
    assert col.voters_by_recency() == ["c", "d"]


def test_shrunk_b_max_repeat_voter_edge():
    """Shrinking ``b_max`` between merges: the next repeat-voter merge
    must trim the box the same way in both backings (the columnar
    insert path bounds itself; the trailing guard covers this edge)."""
    ref = ReferenceBallotBox(4)
    col = BallotBox(4)
    for i, voter in enumerate(("a", "b", "c", "d")):
        entries = [VoteEntry("mod", Vote.NEGATIVE, float(i))]
        ref.merge(voter, entries, float(i))
        col.merge(voter, entries, float(i))
    ref.b_max = col.b_max = 2
    entries = [VoteEntry("mod", Vote.POSITIVE, 9.0)]
    ref.merge("c", entries, 9.0)
    col.merge("c", entries, 9.0)
    _assert_boxes_equal(ref, col)
    assert col.num_unique_users() == 2


def test_bb_merge_voter_row_param_matches_lookup():
    """Passing the voter's row and packed votes explicitly (the batched
    tick does) must be indistinguishable from the id-lookup path."""
    store = ColumnarStateStore()
    row_a = store.ensure_row("a")
    row_b = store.ensure_row("b")
    vrow = store.rows.row("voter")
    entries = [VoteEntry("mod", Vote.POSITIVE, 1.0)]
    assert store.bb_merge(row_a, 5, "voter", entries, 1.0) == 1
    mids = np.array([store.mods.index["mod"]], dtype=np.int32)
    vals = np.array([Vote.POSITIVE], dtype=np.int8)
    assert store.bb_merge_packed(row_b, 5, vrow, mids, vals, 1.0) == 1
    box_a = BallotBox(5, store, row_a)
    box_b = BallotBox(5, store, row_b)
    assert box_a.votes_of("voter") == box_b.votes_of("voter")
    assert box_a.voters_by_recency() == box_b.voters_by_recency()


def test_row_table_assignment_is_stable():
    table = RowTable()
    assert table.row("a") == 0
    assert table.row("b") == 1
    assert table.row("a") == 0
    assert table.get("c") is None
    assert len(table) == 2
    assert table.ids == ["a", "b"]


def test_memory_bytes_counts_columns():
    store = ColumnarStateStore()
    row = store.ensure_row("owner")
    base = store.memory_bytes()
    assert base > 0
    store.bb_merge(row, 4, "voter", [VoteEntry("m", Vote.POSITIVE, 0.0)], 0.0)
    assert store.memory_bytes() >= base
