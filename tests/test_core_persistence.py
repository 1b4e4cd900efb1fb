"""Round-trip tests for node-state persistence."""

import numpy as np
import pytest

from repro.core.moderation import Moderation
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.persistence import (
    load_node,
    node_from_dict,
    node_to_dict,
    save_node,
)
from repro.core.votes import Vote, VoteEntry
from tests.reference_runtime import receive_votes


@pytest.fixture()
def populated_node():
    node = VoteSamplingNode(
        "me", NodeConfig(b_min=3, k=4, exchange_policy="recency"),
        np.random.default_rng(0),
    )
    node.create_moderation("my-torrent", "mine", now=5.0)
    node.receive_moderations(
        [
            Moderation("friend", "t1", "good stuff", created_at=1.0, version=2),
            Moderation("other", "t2", "meh"),
        ],
        now=6.0,
    )
    node.cast_vote("friend", Vote.POSITIVE, 7.0)
    node.cast_vote("enemy", Vote.NEGATIVE, 8.0)
    receive_votes(node,
        "v1",
        [VoteEntry("friend", Vote.POSITIVE, 0.0), VoteEntry("x", Vote.NEGATIVE, 0.0)],
        9.0,
        experienced=True,
    )
    receive_votes(node, "v2", [VoteEntry("x", Vote.POSITIVE, 0.0)], 10.0, True)
    node.receive_top_k(["a", "b"])
    node.set_vote_intention("future-mod", Vote.POSITIVE)
    return node


def test_round_trip_preserves_everything(populated_node, tmp_path):
    path = tmp_path / "node.json"
    save_node(populated_node, path)
    restored = load_node(path)

    assert restored.peer_id == "me"
    assert restored.config == populated_node.config
    # moderations
    assert len(restored.store) == len(populated_node.store)
    assert restored.store.get("friend", "t1").version == 2
    # own votes
    assert restored.vote_list.vote_on("friend") is Vote.POSITIVE
    assert restored.vote_list.vote_on("enemy") is Vote.NEGATIVE
    # ballot box
    assert restored.ballot_box.num_unique_users() == 2
    assert restored.ballot_box.counts("x") == (1, 1)
    # voxpopuli cache and intentions
    assert restored.topk_cache.known_moderators() == ["a", "b"]
    assert restored.vote_intentions["future-mod"] is Vote.POSITIVE


def test_restored_node_ranks_identically(populated_node, tmp_path):
    path = tmp_path / "node.json"
    save_node(populated_node, path)
    restored = load_node(path)
    assert restored.ballot_ranking() == populated_node.ballot_ranking()
    assert restored.needs_bootstrap() == populated_node.needs_bootstrap()


def test_volatile_state_not_persisted(populated_node, tmp_path):
    populated_node.online = True
    populated_node.votes_merged = 99
    path = tmp_path / "node.json"
    save_node(populated_node, path)
    restored = load_node(path)
    assert restored.online is False
    assert restored.votes_merged == 0


def test_unsupported_format_rejected(populated_node):
    data = node_to_dict(populated_node)
    for fmt in (1, 2, 99, None):  # one format; its predecessors are gone
        data["format"] = fmt
        with pytest.raises(ValueError, match="format"):
            node_from_dict(data)


def test_empty_node_round_trips(tmp_path):
    node = VoteSamplingNode("empty", NodeConfig(), np.random.default_rng(1))
    path = tmp_path / "n.json"
    save_node(node, path)
    restored = load_node(path)
    assert len(restored.store) == 0
    assert restored.current_ranking() == []


def test_disapproval_semantics_survive(populated_node, tmp_path):
    """A restored node still refuses the disapproved moderator."""
    path = tmp_path / "node.json"
    save_node(populated_node, path)
    restored = load_node(path)
    got = restored.receive_moderations(
        [Moderation("enemy", "t9", "sneaky")], now=20.0
    )
    assert got == 0


def test_ballot_recency_survives_round_trip(tmp_path):
    """Regression: a flat, timestamp-free ballot format re-merged every
    voter at now=0.0 in alphabetical order, so a restored box evicted
    B_max victims alphabetically instead of oldest-received-first."""
    node = VoteSamplingNode("me", NodeConfig(b_min=1, b_max=2), np.random.default_rng(0))
    # "z" received first (oldest), "a" last (newest) — the reverse of
    # alphabetical order, so the old restore path picks the wrong victim.
    receive_votes(node, "z", [VoteEntry("m1", Vote.POSITIVE, 0.0)], 1.0, True)
    receive_votes(node, "a", [VoteEntry("m2", Vote.NEGATIVE, 0.0)], 2.0, True)
    path = tmp_path / "node.json"
    save_node(node, path)
    restored = load_node(path)
    assert restored.ballot_box.voters_by_recency() == ["z", "a"]
    assert restored.ballot_box.last_received_of("z") == 1.0
    assert restored.ballot_box.last_received_of("a") == 2.0
    # Merging past b_max must evict the oldest-received voter ("z"),
    # exactly as the never-persisted box would have.
    receive_votes(restored, "q", [VoteEntry("m3", Vote.POSITIVE, 0.0)], 3.0, True)
    assert restored.ballot_box.voters() == ["a", "q"]
    assert node is not restored


def test_ballot_vote_timestamps_survive_round_trip(populated_node, tmp_path):
    path = tmp_path / "node.json"
    save_node(populated_node, path)
    restored = load_node(path)
    for voter in populated_node.ballot_box.voters():
        assert sorted(restored.ballot_box.votes_of(voter)) == sorted(
            populated_node.ballot_box.votes_of(voter)
        )


def test_moderation_recency_survives_version_refresh():
    """Regression: node_to_dict walked the store in storage order, where
    a refreshed item keeps its old position, so ``insert(A v1);
    insert(B); insert(A v2)`` restored as if B were the newest — wrong
    ``recency_order()`` (what ModerationCast forwards first) and the
    wrong capacity-eviction victim."""
    node = VoteSamplingNode("me", NodeConfig(), np.random.default_rng(0))
    node.receive_moderations([Moderation("a", "t", "v1", version=1)], 1.0)
    node.receive_moderations([Moderation("b", "t", "only")], 2.0)
    node.receive_moderations([Moderation("a", "t", "v2", version=2)], 3.0)
    assert [m.title for m in node.store.recency_order()] == ["v2", "only"]

    restored = node_from_dict(node_to_dict(node))
    assert restored.store.recency_order() == node.store.recency_order()
    assert restored.store.received_at(restored.store.get("a", "t")) == 3.0
    # A rebooted client counts mutations afresh (nothing derived from
    # the old counter survives a restart), one per stored item.
    assert node.store.mutation_count == 3
    assert restored.store.mutation_count == len(restored.store) == 2
    for store in (node.store, restored.store):
        store.capacity = 1
        store.enforce_capacity()
        assert [m.title for m in store.all_items()] == ["v2"]
    # Nothing refreshed: output is what storage order always gave.
    plain = VoteSamplingNode("me", NodeConfig(), np.random.default_rng(0))
    plain.receive_moderations(
        [Moderation("b", "t", "1"), Moderation("a", "t", "2")], 1.0
    )
    assert [m["moderator_id"] for m in node_to_dict(plain)["moderations"]] == ["b", "a"]


# ----------------------------------------------------------------------
# Columnar restore through load_node (bugfix regression)
# ----------------------------------------------------------------------
def test_load_node_restores_into_columnar_store(populated_node, tmp_path):
    """Regression: load_node dropped the col_store parameter that
    node_from_dict supports, so an on-disk checkpoint could never be
    restored into a columnar-backed node."""
    from repro.core.columnar import ColumnarStateStore

    path = tmp_path / "node.json"
    save_node(populated_node, path)
    store = ColumnarStateStore()
    restored = load_node(path, col_store=store)
    assert "me" in store.rows.index
    assert store.vl_size[store.rows.index["me"]] == len(
        populated_node.vote_list.entries()
    )
    assert node_to_dict(restored) == node_to_dict(populated_node)


# ----------------------------------------------------------------------
# Atomic checkpoint writes (bugfix regression)
# ----------------------------------------------------------------------
def test_partial_write_preserves_previous_checkpoint(
    populated_node, tmp_path, monkeypatch
):
    """Regression: save_node wrote with a bare Path.write_text, so a
    crash mid-write left a torn JSON prefix in place of the previous
    checkpoint.  The write layer below is made to fail after 20 bytes;
    the on-disk checkpoint must survive intact."""
    import builtins
    import io

    path = tmp_path / "node.json"
    save_node(populated_node, path)
    before = path.read_text(encoding="utf-8")
    populated_node.cast_vote("late-mod", Vote.POSITIVE, 99.0)

    real_open = builtins.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if isinstance(mode, str) and "w" in mode:
            class TornFile:
                def write(self, text):
                    fh.write(text[:20])
                    fh.flush()
                    raise OSError("disk full")

                def __enter__(self):
                    return self

                def __exit__(self, *exc_info):
                    fh.close()
                    return False

                def __getattr__(self, name):
                    return getattr(fh, name)

            return TornFile()
        return fh

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", torn_open)
        patch.setattr(io, "open", torn_open)
        with pytest.raises(OSError, match="disk full"):
            save_node(populated_node, path)

    assert path.read_text(encoding="utf-8") == before
    restored = load_node(path)
    assert restored.vote_list.vote_on("late-mod") is None
    # No temp-file litter left behind by the failed attempt.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["node.json"]


# ----------------------------------------------------------------------
# RNG stream persistence (bugfix regression)
# ----------------------------------------------------------------------
def test_rng_stream_survives_restore(tmp_path):
    """Regression: node_from_dict fell back to default_rng(0), so a
    "restored" node replayed a different random series than the node
    that was saved would have continued."""
    node = VoteSamplingNode("me", NodeConfig(), np.random.default_rng(1234))
    node.rng.random(17)  # advance mid-run
    path = tmp_path / "node.json"
    save_node(node, path)
    expected = node.rng.random(8)  # the uninterrupted continuation
    restored = load_node(path)
    assert np.array_equal(restored.rng.random(8), expected)


def test_explicit_rng_override_still_wins(populated_node, tmp_path):
    path = tmp_path / "node.json"
    save_node(populated_node, path)
    override = np.random.default_rng(5)
    restored = load_node(path, rng=override)
    assert restored.rng is override


def test_format_is_v3_with_rng_state(populated_node):
    data = node_to_dict(populated_node)
    assert data["format"] == 3
    assert data["rng_state"]["bit_generator"] == "PCG64"


# ----------------------------------------------------------------------
# Forward-compatible config payloads (bugfix regression)
# ----------------------------------------------------------------------
def test_unknown_config_key_warns_and_is_ignored(populated_node):
    """Regression: NodeConfig(**data["config"]) crashed older readers
    with an opaque TypeError when a newer build added a config field."""
    data = node_to_dict(populated_node)
    data["config"] = dict(data["config"], future_knob=11, other_knob="x")
    with pytest.warns(RuntimeWarning, match="future_knob, other_knob"):
        restored = node_from_dict(data)
    assert restored.config == populated_node.config


def test_missing_config_key_uses_dataclass_default(populated_node):
    data = node_to_dict(populated_node)
    config = dict(data["config"])
    del config["k"]
    data["config"] = config
    restored = node_from_dict(data)
    assert restored.config.k == NodeConfig().k
