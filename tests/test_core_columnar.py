"""Columnar protocol state vs the dict-backed reference.

The :class:`ColumnarStateStore` promises *bit-identical* BallotBox
semantics behind the same public API.  These tests enforce that
promise three ways:

* randomized merge/evict/remove/restore sequences against paired
  boxes (dict :class:`BallotBox` vs :class:`ColumnarBallotBox` views
  sharing one store), comparing every read — including
  ``voters_by_recency`` (the eviction order) and ``all_counts``;
* an eviction-victim regression against a from-first-principles
  min-recency-scan model (the semantics the amortised recency-ordered
  implementation replaced);
* FORMAT_VERSION persistence round trips across all four
  backing combinations (dict/columnar save → dict/columnar restore).
"""

import json
import random

import numpy as np
import pytest

from repro.core.ballotbox import BallotBox
from repro.core.columnar import ColumnarBallotBox, ColumnarStateStore, RowTable
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.persistence import FORMAT_VERSION, node_from_dict, node_to_dict
from repro.core.votes import Vote, VoteEntry

VOTES = (Vote.POSITIVE, Vote.NEGATIVE)


def _assert_boxes_equal(ref: BallotBox, col: ColumnarBallotBox) -> None:
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
            (BallotBox(b_max), ColumnarBallotBox(store, store.ensure_row(o), b_max))
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
            elif roll < 0.85:
                voter = rng.choice(voters)
                assert ref.remove_voter(voter) == col.remove_voter(voter)
            else:
                voter = rng.choice(voters)
                votes = [
                    (rng.choice(mods), rng.choice(VOTES), now)
                    for _ in range(rng.randrange(0, 3))
                ]
                ref.restore_voter(voter, votes, now)
                col.restore_voter(voter, list(votes), now)
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
    ordered dict in :class:`BallotBox` must pick identical victims."""

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
    box = BallotBox(b_max)
    store = ColumnarStateStore()
    col = ColumnarBallotBox(store, store.ensure_row("owner"), b_max)
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
    store = ColumnarStateStore()
    ref = BallotBox(2)
    col = ColumnarBallotBox(store, store.ensure_row("owner"), 2)
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
    store = ColumnarStateStore()
    ref = BallotBox(4)
    col = ColumnarBallotBox(store, store.ensure_row("owner"), 4)
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
    box_a = ColumnarBallotBox(store, row_a, 5)
    box_b = ColumnarBallotBox(store, row_b, 5)
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


# ----------------------------------------------------------------------
# FORMAT_VERSION persistence across backings
# ----------------------------------------------------------------------
def _populated_node(col_store=None) -> VoteSamplingNode:
    node = VoteSamplingNode(
        "owner",
        NodeConfig(b_min=1, b_max=3),
        np.random.default_rng(3),
        col_store=col_store,
    )
    node.create_moderation("t1", "first", now=1.0)
    node.cast_vote("modA", Vote.POSITIVE, 2.0)
    node.cast_vote("modB", Vote.NEGATIVE, 3.0)
    # Five voters through a b_max=3 box: evictions happen pre-save.
    for i in range(5):
        node.ballot_box.merge(
            f"v{i}",
            [
                VoteEntry("modA", Vote.POSITIVE if i % 2 else Vote.NEGATIVE, float(i)),
                VoteEntry("modB", Vote.NEGATIVE, float(i)),
            ],
            now=float(10 + i),
        )
    node.ballot_box.merge(  # recency bump of a mid-box voter
        "v3", [VoteEntry("modC", Vote.POSITIVE, 20.0)], now=20.0
    )
    node.ballot_box.remove_voter("v2")
    node.set_vote_intention("modC", Vote.POSITIVE)
    node._sync_membership()
    return node


def test_format_round_trip_across_backings():
    base = node_to_dict(_populated_node())
    assert base["format"] == FORMAT_VERSION
    for src_store in (None, ColumnarStateStore()):
        saved = node_to_dict(_populated_node(src_store))
        assert saved == base  # backing never leaks into the format
        payload = json.loads(json.dumps(saved))
        for dst_store in (None, ColumnarStateStore()):
            restored = node_from_dict(payload, col_store=dst_store)
            assert node_to_dict(restored) == base


def test_post_restore_evictions_identical_across_backings():
    """A restored box must pick the same future eviction victims
    whichever backing it was restored into."""
    payload = json.loads(json.dumps(node_to_dict(_populated_node())))
    nodes = [
        node_from_dict(payload, col_store=store)
        for store in (None, ColumnarStateStore())
    ]
    for i in range(4):
        for node in nodes:
            node.ballot_box.merge(
                f"w{i}", [VoteEntry("modZ", Vote.POSITIVE, 0.0)], now=float(30 + i)
            )
    recencies = [n.ballot_box.voters_by_recency() for n in nodes]
    counts = [n.ballot_box.all_counts() for n in nodes]
    assert recencies[0] == recencies[1]
    assert counts[0] == counts[1]
