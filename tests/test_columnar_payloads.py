"""Packed columnar vote payloads vs the dict reference.

``ColumnarStateStore`` packs vote payloads into one store-wide pool
(interned moderator ids + parallel value/timestamp columns) behind the
unchanged BallotBox API.  These tests lock down:

* the duplicate-moderator merge-count fix: a ``["m","m",...]``-style
  list stores one vote and must *report* one, on both backends
  (pre-fix, both counted every non-self entry);
* randomized dup-heavy / self-vote-only merge equality between the
  dict box of ``tests/reference_ballotbox.py`` and the packed columnar
  box, including ``all_counts``, ``voters_by_recency`` and ``vote_of``;
* eviction-order equivalence under a shrinking/growing ``b_max``
  (the evict-then-insert slot-reuse audit from the columnar merge
  fast path);
* the vectorised dispersion scan returning bit-identical floats to
  the scalar ``all_counts`` loop;
* ``memory_bytes`` actually counts the payloads (the pool's bound
  under churn is checked by ``tests/test_deferred_merges.py``).
"""

import random

import numpy as np
import pytest

from repro.core.ballotbox import BallotBox
from repro.core.columnar import ColumnarStateStore
from repro.core.experience import AdaptiveThresholdExperience
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import Vote, VoteEntry
from tests.reference_ballotbox import ReferenceBallotBox
from tests.reference_runtime import receive_votes

VOTES = (Vote.POSITIVE, Vote.NEGATIVE)


def _pair(b_max: int, owner: str = "owner"):
    store = ColumnarStateStore()
    return (
        ReferenceBallotBox(b_max),
        BallotBox(b_max, store, store.ensure_row(owner)),
        store,
    )


def _assert_equal(ref: ReferenceBallotBox, col: BallotBox) -> None:
    assert ref.voters_by_recency() == col.voters_by_recency()
    assert ref.all_counts() == col.all_counts()
    assert ref.total_votes() == col.total_votes()
    assert ref.moderators() == col.moderators()
    for voter in ref.voters():
        assert ref.votes_of(voter) == col.votes_of(voter)
        assert ref.last_received_of(voter) == col.last_received_of(voter)
        for moderator in ref.moderators():
            assert ref.vote_of(voter, moderator) == col.vote_of(voter, moderator)


# ----------------------------------------------------------------------
# Satellite: duplicate-moderator merge counts (both backends)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["dict", "columnar"])
def test_duplicate_moderator_list_counts_once(backend):
    """A list repeating one moderator stores one vote (last wins) and
    must report exactly one stored entry — pre-fix both backends
    reported len(list)."""
    ref, col, _ = _pair(b_max=10)
    box = ref if backend == "dict" else col
    entries = [
        VoteEntry("m", Vote.POSITIVE, 0.0),
        VoteEntry("m", Vote.NEGATIVE, 0.0),
        VoteEntry("m", Vote.POSITIVE, 0.0),
    ]
    assert box.merge("v1", entries, now=1.0) == 1
    assert box.counts("m") == (1, 0)  # last vote wins
    assert box.total_votes() == 1


@pytest.mark.parametrize("backend", ["dict", "columnar"])
def test_mixed_duplicates_count_distinct_moderators(backend):
    ref, col, _ = _pair(b_max=10)
    box = ref if backend == "dict" else col
    entries = [
        VoteEntry("a", Vote.POSITIVE, 0.0),
        VoteEntry("b", Vote.NEGATIVE, 0.0),
        VoteEntry("a", Vote.NEGATIVE, 0.0),
        VoteEntry("v1", Vote.POSITIVE, 0.0),  # self-vote, dropped
        VoteEntry("b", Vote.NEGATIVE, 0.0),
    ]
    assert box.merge("v1", entries, now=1.0) == 2
    assert box.all_counts() == {"a": (0, 1), "b": (0, 1)}


def test_node_votes_merged_telemetry_not_inflated_by_duplicates():
    """The stored-votes counter a node accumulates from merge returns
    must not give dup-heavy lists free weight."""
    node = VoteSamplingNode("owner", NodeConfig(b_max=10), np.random.default_rng(0))
    entries = [VoteEntry("m", Vote.POSITIVE, 0.0)] * 5
    receive_votes(node, "v1", entries, now=1.0, experienced=True)
    assert node.votes_merged == 1


# ----------------------------------------------------------------------
# Satellite: randomized merge equality (dup-heavy / self-only)
# ----------------------------------------------------------------------
def test_randomized_dup_heavy_sequences_bit_identical():
    rng = random.Random(0xBEEF)
    for trial in range(8):
        b_max = rng.choice((1, 2, 4, 7))
        ref, col, _ = _pair(b_max)
        voters = [f"v{i}" for i in range(9)]
        mods = [f"m{i}" for i in range(5)]
        now = 0.0
        for _step in range(300):
            now += rng.random()
            voter = rng.choice(voters)
            roll = rng.random()
            if roll < 0.15:
                # Self-vote-only list: must store nothing, bump nothing.
                entries = [
                    VoteEntry(voter, rng.choice(VOTES), now)
                    for _ in range(rng.randrange(1, 4))
                ]
            else:
                # Dup-heavy: few distinct moderators, many repeats.
                pool = rng.sample(mods, rng.randrange(1, 4)) + [voter]
                entries = [
                    VoteEntry(rng.choice(pool), rng.choice(VOTES), now)
                    for _ in range(rng.randrange(1, 8))
                ]
            assert ref.merge(voter, entries, now) == col.merge(
                voter, list(entries), now
            )
            assert ref.voters_by_recency() == col.voters_by_recency()
        _assert_equal(ref, col)


# ----------------------------------------------------------------------
# Satellite: shrinking/growing b_max eviction-order equivalence
# ----------------------------------------------------------------------
def test_randomized_shrinking_b_max_eviction_equivalence():
    """``b_max`` shrinks and grows between merges while voters repeat:
    the columnar evict-then-insert slot-reuse path and the trailing
    shrunk-b_max guard must pick the dict box's victims exactly."""
    rng = random.Random(0x5EED)
    for trial in range(6):
        ref, col, _ = _pair(b_max=6)
        voters = [f"v{i}" for i in range(10)]
        now = 0.0
        for _step in range(400):
            now += 1.0
            if rng.random() < 0.25:
                new_b_max = rng.randrange(1, 8)
                ref.b_max = col.b_max = new_b_max
            voter = rng.choice(voters)
            entries = [
                VoteEntry(rng.choice(("m1", "m2", "m3", voter)), rng.choice(VOTES), now)
                for _ in range(rng.randrange(0, 3))
            ]
            stored = ref.merge(voter, entries, now)
            assert stored == col.merge(voter, list(entries), now)
            assert ref.voters_by_recency() == col.voters_by_recency()
            assert ref.num_unique_users() == col.num_unique_users()
            if stored:
                # A shrunk b_max takes effect at the next *storing*
                # merge; store-nothing merges leave the box untrimmed
                # (identically on both backends, checked above).
                assert ref.num_unique_users() <= ref.b_max
        _assert_equal(ref, col)


def test_shrunk_b_max_stale_stamp_not_visible():
    """After b_max shrinks, a repeat-voter merge trims the box; the
    survivor set and their recency stamps must match the dict box
    (no stale bb_last/bb_order leaking from reused slots)."""
    ref, col, _ = _pair(b_max=5)
    for i, voter in enumerate(("a", "b", "c", "d", "e")):
        entries = [VoteEntry("mod", Vote.POSITIVE, float(i))]
        ref.merge(voter, entries, float(i))
        col.merge(voter, entries, float(i))
    ref.b_max = col.b_max = 2
    entries = [VoteEntry("mod2", Vote.NEGATIVE, 10.0)]
    ref.merge("c", entries, 10.0)
    col.merge("c", entries, 10.0)
    _assert_equal(ref, col)
    # Survivors then face a fresh newcomer: victims must still agree.
    entries = [VoteEntry("mod", Vote.POSITIVE, 11.0)]
    ref.merge("f", entries, 11.0)
    col.merge("f", entries, 11.0)
    _assert_equal(ref, col)


# ----------------------------------------------------------------------
# Tentpole: vectorised dispersion scan
# ----------------------------------------------------------------------
def test_dispersion_vectorised_scan_bit_identical():
    rng = random.Random(0xD15)
    ref, col, _ = _pair(b_max=64)
    for v in range(40):
        entries = [
            VoteEntry(f"m{j}", rng.choice(VOTES), 0.0)
            for j in rng.sample(range(30), rng.randrange(1, 12))
        ]
        now = float(v)
        ref.merge(f"v{v}", entries, now)
        col.merge(f"v{v}", list(entries), now)
    d_ref = AdaptiveThresholdExperience.dispersion(ref)
    d_col = AdaptiveThresholdExperience.dispersion(col)
    assert d_ref == d_col  # exact float equality, not approx
    assert 0.0 <= d_col <= 1.0


def test_dispersion_empty_and_single_vote_cases():
    ref, col, _ = _pair(b_max=4)
    assert ref.dispersion() == col.dispersion() == 0.0
    ref.merge("v1", [VoteEntry("m", Vote.POSITIVE, 0.0)], 1.0)
    col.merge("v1", [VoteEntry("m", Vote.POSITIVE, 0.0)], 1.0)
    # One vote per moderator: below the two-vote floor, dispersion 0.
    assert ref.dispersion() == col.dispersion() == 0.0
    ref.merge("v2", [VoteEntry("m", Vote.NEGATIVE, 0.0)], 2.0)
    col.merge("v2", [VoteEntry("m", Vote.NEGATIVE, 0.0)], 2.0)
    assert ref.dispersion() == col.dispersion() == 1.0  # 50/50 split


# ----------------------------------------------------------------------
# Honest memory accounting and segment relocation
# ----------------------------------------------------------------------
def test_memory_bytes_counts_payload_slabs():
    store = ColumnarStateStore()
    row = store.ensure_row("owner")
    box = BallotBox(64, store, row)
    before = store.memory_bytes()
    entries = [VoteEntry(f"m{i}", Vote.POSITIVE, 0.0) for i in range(500)]
    box.merge("v1", entries, 1.0)
    grown = store.memory_bytes() - before
    # 500 packed votes cost at least 13 bytes each (int32+int8+float64).
    assert grown >= 500 * 13
    assert box.memory_bytes() >= 500 * 13


def test_segment_relocation_preserves_contents():
    """A voter whose vote set keeps growing relocates its segment to
    the pool tail repeatedly; contents and order must survive."""
    ref, col, _ = _pair(b_max=4)
    for i in range(40):
        entries = [VoteEntry(f"m{i}", VOTES[i % 2], 0.0)]
        ref.merge("v1", entries, float(i))
        col.merge("v1", entries, float(i))
    _assert_equal(ref, col)
    assert [m for m, _v, _a in col.votes_of("v1")] == [f"m{i}" for i in range(40)]


def test_moderator_intern_table_is_global_and_stable():
    store = ColumnarStateStore()
    box_a = BallotBox(4, store, store.ensure_row("a"))
    box_b = BallotBox(4, store, store.ensure_row("b"))
    box_a.merge("v1", [VoteEntry("shared_mod", Vote.POSITIVE, 0.0)], 1.0)
    before = len(store.mods)
    box_b.merge("v2", [VoteEntry("shared_mod", Vote.NEGATIVE, 0.0)], 2.0)
    # The second box reuses the interned id: no new table entry.
    assert len(store.mods) == before
    assert store.mods.get("shared_mod") is not None
    box_a.remove_voter("v1")
    # Intern table is append-only: ids survive payload removal.
    assert store.mods.get("shared_mod") is not None


# ----------------------------------------------------------------------
# Row-to-row merges: the packed wire form vs the entries front-end
# ----------------------------------------------------------------------
def _live_pool_positions(state):
    """Indices into a dump's payload pool that hold live votes (garbage
    and capacity slack below the tail may hold stale bytes)."""
    starts = state["bb_off"]
    lens = state["bb_nvotes"].astype(np.int64)
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(lens.sum())


def _assert_same_dump(a, b):
    assert a.keys() == b.keys()
    live = _live_pool_positions(a)
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            assert value.dtype == b[key].dtype and value.shape == b[key].shape, key
            if key in ("pay_mod", "pay_val", "pay_at"):
                assert value[live].tobytes() == b[key][live].tobytes(), key
            else:
                assert value.tobytes() == b[key].tobytes(), key
        else:
            assert value == b[key], key


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_row_to_row_merge_leaves_the_dump_bb_merge_leaves(seed):
    """One random history — casts (first votes, changes of mind, a
    list's owner voting on itself), exchanges into boxes that evict,
    relocate and compact under a ``b_max`` that moves — applied twice:
    to one store as ``bb_merge(entries)``, to the other row to row as
    ``bb_merge_packed(*vl_wire(voter_row))``.  Same ``dump_state()`` to
    the byte, interned ids and pool layout included."""
    rnd = random.Random(seed)
    peers = [f"p{i:02d}" for i in range(14)]
    mods = [f"m{i}" for i in range(12)] + peers[:3]
    by_entries, row_to_row = ColumnarStateStore(), ColumnarStateStore()
    lists, twins = ({
        pid: VoteSamplingNode(pid, col_store=store).vote_list for pid in peers
    } for store in (row_to_row, by_entries))
    b_max = {pid: rnd.choice((2, 3, 5)) for pid in peers}
    now = 0.0
    fresh_segments = repacks = packed = 0
    for _step in range(3000):
        now += rnd.random()
        voter = rnd.choice(peers)
        vrow = row_to_row.rows.index[voter]
        roll = rnd.random()
        if roll < 0.2:
            # ties on cast time are broken on the moderator id
            cast = (rnd.choice(mods), rnd.choice(VOTES), float(int(now)))
            lists[voter].cast(*cast)
            twins[voter].cast(*cast)
            assert row_to_row.vl_size[vrow] == len(lists[voter])
            continue
        owner = rnd.choice([pid for pid in peers if pid != voter])
        orow = row_to_row.rows.index[owner]
        if roll < 0.25:
            b_max[owner] = rnd.choice((1, 2, 3, 5))
        if not len(lists[voter]):
            continue
        stale = bool(row_to_row.vl_stale[vrow])
        mids, vals = row_to_row.vl_wire(vrow)
        repacks += stale
        packed += stale * len(mids)
        assert not row_to_row.vl_stale[vrow]
        fresh_segments += voter not in row_to_row.bb_voters(orow)
        stored = row_to_row.bb_merge_packed(orow, b_max[owner], vrow, mids, vals, now)
        assert stored == by_entries.bb_merge(
            orow, b_max[owner], voter, twins[voter].entries(), now
        )
        if _step % 250 == 0:
            _assert_same_dump(by_entries.dump_state(), row_to_row.dump_state())
    _assert_same_dump(by_entries.dump_state(), row_to_row.dump_state())
    assert repacks > 50 and fresh_segments > 100
    assert any(pid in {e.moderator_id for e in lists[pid].entries()} for pid in peers)
    # the pool dropped its garbage instead of growing with every repack
    live = int(row_to_row.vl_len.sum())
    assert row_to_row._vl_live == live
    assert packed > 2 * row_to_row.vl_mod.size  # so it compacted, twice
    assert row_to_row._vl_used <= max(2 * live, 1024)
    assert row_to_row.memory_bytes() > by_entries.memory_bytes()


def test_wire_form_above_the_cap_takes_the_selected_positions():
    """``picks`` are positions in the *full* exchange order, the
    owner's own id included; the wire form has dropped it."""
    store = ColumnarStateStore()
    node = VoteSamplingNode("me", col_store=store)
    for i, moderator in enumerate(["a", "b", "me", "c", "d", "e"]):
        node.vote_list.cast(moderator, VOTES[i % 2], float(i))
    order = [e.moderator_id for e in node.vote_list.entries()]
    assert order == ["e", "d", "c", "me", "b", "a"]
    assert store.vl_size[node.row] == 6

    def sent(picks):
        mids, vals = store.vl_wire(node.row, picks)
        return [(store.mods.ids[m], Vote(v)) for m, v in zip(mids.tolist(), vals.tolist())]

    votes = {e.moderator_id: e.vote for e in node.vote_list.entries()}
    for picks in ([0, 1, 2], [2, 3, 4], [3], [0, 3, 5], [4, 5]):
        assert sent(picks) == [
            (order[p], votes[order[p]]) for p in picks if order[p] != "me"
        ]
    assert sent(None) == [(m, votes[m]) for m in order if m != "me"]
    assert "me" not in store.mods.index  # never interned, as in bb_merge
