"""The columns are the checkpoint: dump → load keeps everything.

Seeded random operation sequences drive a :class:`ColumnarStateStore`
into awkward states — foreign ids
interned mid-run, boxes evicting under a shrinking ``b_max``, segments
relocated and the payload pool compacted with garbage still in it — then dump,
load into a fresh store (through a real checkpoint file) and require
equality on every read, on the row numbers of every interned id, and
on everything the *same further operations* do to both afterwards.
(The scheduler's half — peers offline with a tick pending, jitter
cursors mid-chunk — rides on ``test_window_matches_object_engine_under_
adversarial_interleavings``, whose checkpoint leg reloads the
scheduler from its own dump at every slice.)
"""

import random

import numpy as np
import pytest

from repro.core.checkpoint import (
    CheckpointError,
    pack_strings,
    read_sections,
    take,
    unpack_strings,
    write_sections,
)
from repro.core.ballotbox import BallotBox
from repro.core.columnar import ColumnarStateStore, RowTable
from repro.core.votes import Vote, VoteEntry
from repro.sim.engine import Engine
from repro.sim.population import PopulationEngine
from repro.sim.rng import RngRegistry

VOTES = (Vote.POSITIVE, Vote.NEGATIVE)


def _through_file(state, path):
    """Write one component to a checkpoint file and read it back."""
    write_sections(path, {}, {"c": state})
    return read_sections(path)[1]["c"]


def _assert_same_state(a, b, skip=()):
    assert a.keys() == b.keys()
    for key, value in a.items():
        if key in skip:
            continue
        if isinstance(value, np.ndarray):
            assert value.dtype == b[key].dtype, key
            assert np.array_equal(value, b[key], equal_nan=value.dtype.kind == "f"), key
        else:
            assert value == b[key], key


# ----------------------------------------------------------------------
# Container helpers
# ----------------------------------------------------------------------
def test_pack_strings_round_trip_and_guards():
    for ids in ([], [""], ["a"], ["s00p00001", "x", "", "ünï"]):
        state = {"ids": pack_strings(ids)}
        assert unpack_strings(state, "ids", len(ids)) == ids
    with pytest.raises(ValueError, match="NUL"):
        pack_strings(["a\0b"])
    with pytest.raises(CheckpointError, match="'ids'"):
        unpack_strings({"ids": pack_strings(["a", "b"])}, "ids", 3)


def test_take_names_the_section_and_the_mismatch():
    state = {"x": np.zeros((2, 3), dtype=np.int32), "n": 5}
    assert take(state, "x", np.int32, 2, 3) is state["x"]
    assert take(state, "x", np.int32, None, 3) is state["x"]
    for name, dtype, shape in (
        ("x", np.int64, (2, 3)),
        ("x", np.int32, (3, 2)),
        ("x", np.int32, (6,)),
        ("n", np.int32, ()),
        ("missing", np.int32, (1,)),
    ):
        with pytest.raises(CheckpointError, match=repr(name)):
            take(state, name, dtype, *shape)


# ----------------------------------------------------------------------
# ColumnarStateStore
# ----------------------------------------------------------------------
class _StoreDriver:
    """One random op stream applied to any number of stores."""

    def __init__(self, seed):
        self.rnd = random.Random(seed)
        self.owners = [f"o{i}" for i in range(6)]
        self.b_max = {owner: self.rnd.choice((2, 3, 5, 8)) for owner in self.owners}
        #: local voters (the owners vote into each other's boxes) plus
        #: foreign ids that are only ever interned by a merge
        self.voters = self.owners + [f"f{i}" for i in range(14)]
        self.mods = [f"m{i}" for i in range(9)] + self.owners[:2]
        self.now = 0.0

    def make(self):
        store = ColumnarStateStore()
        for owner in self.owners:
            store.ensure_row(owner)
        return store

    def step(self, stores):
        rnd = self.rnd
        self.now += rnd.random()
        owner = rnd.choice(self.owners)
        voter = rnd.choice(self.voters)
        roll = rnd.random()
        if roll < 0.08:
            self.b_max[owner] = rnd.choice((1, 2, 3, 5, 8))  # shrink / grow
        b_max = self.b_max[owner]
        if roll < 0.70:
            # dup-heavy list with self-votes mixed in
            pool = rnd.sample(self.mods, rnd.randrange(1, 6)) + [voter]
            entries = [
                VoteEntry(rnd.choice(pool), rnd.choice(VOTES), self.now)
                for _ in range(rnd.randrange(1, 9))
            ]
        elif roll < 0.85:
            # remote-digest merge: one entry, foreign voter and moderator
            voter = f"remote-{rnd.randrange(40)}"
            entries = [
                VoteEntry(f"rm{rnd.randrange(6)}", rnd.choice(VOTES), self.now)
            ]
        else:
            for store in stores:
                store.bb_remove_voter(store.rows.index[owner], voter)
            return
        stored = {
            store.bb_merge(store.rows.index[owner], b_max, voter, list(entries), self.now)
            for store in stores
        }
        assert len(stored) == 1


def _assert_stores_equal(a, b, owners):
    assert a.rows.ids == b.rows.ids and a.rows.index == b.rows.index
    assert a.mods.ids == b.mods.ids and a.mods.index == b.mods.index
    for owner in owners:
        box_a = BallotBox(1, a, a.rows.index[owner])
        box_b = BallotBox(1, b, b.rows.index[owner])
        assert box_a.voters_by_recency() == box_b.voters_by_recency()
        assert box_a.all_counts() == box_b.all_counts()
        assert box_a.export_digest() == box_b.export_digest()
        for voter in box_a.voters():
            assert box_a.votes_of(voter) == box_b.votes_of(voter)
            assert box_a.last_received_of(voter) == box_b.last_received_of(voter)
    # ... and not just the reads: the layout itself — every offset,
    # capacity and the pool's tail (the pool's bytes are compared
    # through the reads above; capacity slack may hold stale bytes)
    _assert_same_state(
        a.dump_state(), b.dump_state(), skip=("pay_mod", "pay_val", "pay_at")
    )


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_store_dump_load_keeps_reads_layout_and_future(seed, tmp_path, monkeypatch):
    compactions = []
    real_compact = ColumnarStateStore._pay_compact
    monkeypatch.setattr(
        ColumnarStateStore,
        "_pay_compact",
        lambda self: (compactions.append(self.pay_tail), real_compact(self))[1],
    )
    driver = _StoreDriver(seed)
    stores = [driver.make()]
    garbage_seen = relocated = False
    for _round in range(4):
        for _step in range(600):
            driver.step(stores)
        original = stores[0]
        garbage_seen |= original.pay_tail > original.pay_live
        relocated |= bool(
            (original.bb_off[: original._n_boxes] > 0).any()
            and (original.bb_segcap[: original._n_boxes] > 2).any()
        )
        loaded = ColumnarStateStore()
        loaded.load_state(_through_file(original.dump_state(), tmp_path / "store"))
        _assert_stores_equal(original, loaded, driver.owners)
        # every later round drives the original and all loaded copies
        stores.append(loaded)
        # same next eviction victim: a newcomer into every box
        for owner in driver.owners:
            for store in stores:
                store.bb_merge(
                    store.rows.index[owner],
                    driver.b_max[owner],
                    f"newcomer-{_round}",
                    [VoteEntry("m0", Vote.POSITIVE, driver.now)],
                    driver.now,
                )
        _assert_stores_equal(original, loaded, driver.owners)
    for copy in stores[1:]:
        _assert_stores_equal(stores[0], copy, driver.owners)
    assert compactions and garbage_seen and relocated
    assert any(v.startswith("remote-") for v in stores[0].rows.ids)


def test_store_load_refuses_a_used_store_and_checks_shapes():
    driver = _StoreDriver(5)
    store = driver.make()
    for _ in range(200):
        driver.step([store])
    state = store.dump_state()
    with pytest.raises(ValueError, match="empty store"):
        store.load_state(state)
    for name in ("bb_last", "pay_at", "vl_size", "bb_seq"):
        clipped = dict(state)
        clipped[name] = state[name][:-1]
        with pytest.raises(CheckpointError, match=repr(name)):
            ColumnarStateStore().load_state(clipped)


def test_wire_form_is_rebuilt_after_load_not_stored():
    """The packed vote lists are derived state: packing them changes
    nothing a dump holds, a loaded store marks every non-empty list for
    repacking, and the restored lists pack to what the original sent."""
    from repro.core.node import VoteSamplingNode

    original = ColumnarStateStore()
    nodes = [VoteSamplingNode(pid, col_store=original) for pid in ("a", "b", "c")]
    nodes[0].cast_vote("m1", Vote.POSITIVE, 1.0)
    nodes[0].cast_vote("m2", Vote.NEGATIVE, 2.0)
    nodes[1].cast_vote("m1", Vote.NEGATIVE, 3.0)
    before = original.dump_state()
    wires = [[part.tolist() for part in original.vl_wire(n.row)] for n in nodes]
    assert wires[0] == [[0, 1], [-1, 1]]  # newest first: m2 interned as 0
    after = original.dump_state()
    assert not any(key.startswith("vl_") and key != "vl_size" for key in after)
    # only the moderators interned by packing are new
    _assert_same_state(before, after, skip=("n_mods", "mod_ids"))
    assert original.memory_bytes() >= original.vl_mod.nbytes + original.vl_val.nbytes

    loaded = ColumnarStateStore()
    loaded.load_state(after)
    assert loaded.vl_stale[:3].tolist() == [True, True, False]
    for node in nodes:
        twin = VoteSamplingNode(node.peer_id, col_store=loaded)
        for entry in node.vote_list.entries():
            twin.vote_list.cast(entry.moderator_id, entry.vote, entry.cast_at)
    assert [[part.tolist() for part in loaded.vl_wire(n.row)] for n in nodes] == wires
    _assert_same_state(loaded.dump_state(), after)


# ----------------------------------------------------------------------
# PopulationEngine (its dump → load → continue property rides on the
# adversarial-interleavings differential test in test_sim_population)
# ----------------------------------------------------------------------
def _scheduler(ids):
    rows = RowTable()
    for pid in ids:
        rows.row(pid)
    return PopulationEngine(
        Engine(),
        RngRegistry(1),
        [("fast", 7.0, lambda pid: None), ("slow", 29.0, lambda pid: None)],
        jitter_fraction=0.1,
        rows=rows,
    )


def test_scheduler_restore_checks_rows_protocols_and_shapes():
    original = _scheduler([])
    original.peer_online("a", 0.0)
    original.peer_online("b", 0.0)
    state = original.schedule_state()
    loaded = _scheduler(["a", "b"])
    loaded.restore_schedule_state(state)
    _assert_same_state(loaded.schedule_state(), state)
    with pytest.raises(ValueError, match="row mismatch"):
        _scheduler(["a"]).restore_schedule_state(state)
    with pytest.raises(ValueError, match="protocol mismatch"):
        _scheduler(["a", "b"]).restore_schedule_state({**state, "names": ["fast"]})
    with pytest.raises(CheckpointError, match="'next'"):
        _scheduler(["a", "b"]).restore_schedule_state(
            {**state, "next": state["next"][:1]}
        )
