"""Node state through persistence.

A node's durable state survives the shard checkpoint — its state
store's columns plus :func:`nodes_to_columns`, written to and read from
one checkpoint file, rebuilt with :func:`nodes_from_columns` as
:class:`~repro.sim.service.ServiceShard` does it.  :func:`node_to_dict`
is the plain-JSON view the identity tests compare, and
:func:`atomic_write_text` the torn-write guard of the service's JSON
files.
"""

import json

import numpy as np
import pytest

from repro.core.checkpoint import read_sections, write_sections
from repro.core.columnar import ColumnarStateStore
from repro.core.moderation import Moderation
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.persistence import (
    atomic_write_text,
    node_to_dict,
    nodes_from_columns,
    nodes_to_columns,
)
from repro.core.votes import Vote, VoteEntry
from tests.reference_runtime import receive_votes


def restore(node, path):
    """``node`` rebuilt as a shard restore rebuilds it: the store's and
    the node's columns through one checkpoint file, then an empty node
    on the loaded store, filled from its columns."""
    write_sections(
        path,
        {},
        {
            "store": node.ballot_box._store.dump_state(),
            "nodes": nodes_to_columns([node]),
        },
    )
    _state, components = read_sections(path)
    store = ColumnarStateStore()
    store.load_state(components["store"])
    (restored,) = nodes_from_columns(
        components["nodes"],
        lambda pid: VoteSamplingNode(
            pid, node.config, np.random.default_rng(0), col_store=store
        ),
    )
    return restored


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
    restored = restore(populated_node, tmp_path / "node.ckpt")

    assert restored.peer_id == "me"
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
    # the rest of node_to_dict: the RNG is the shard registry's, not the node's
    assert {**node_to_dict(restored), "rng_state": None} == {
        **node_to_dict(populated_node),
        "rng_state": None,
    }


def test_restored_node_ranks_identically(populated_node, tmp_path):
    restored = restore(populated_node, tmp_path / "node.ckpt")
    assert restored.ballot_ranking() == populated_node.ballot_ranking()
    assert restored.needs_bootstrap() == populated_node.needs_bootstrap()


def test_empty_node_round_trips(tmp_path):
    node = VoteSamplingNode("empty", NodeConfig(), np.random.default_rng(1))
    restored = restore(node, tmp_path / "n.ckpt")
    assert len(restored.store) == 0
    assert restored.current_ranking() == []


def test_disapproval_semantics_survive(populated_node, tmp_path):
    """A restored node still refuses the disapproved moderator."""
    restored = restore(populated_node, tmp_path / "node.ckpt")
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
    # alphabetical order, so an alphabetical restore picks the wrong victim.
    receive_votes(node, "z", [VoteEntry("m1", Vote.POSITIVE, 0.0)], 1.0, True)
    receive_votes(node, "a", [VoteEntry("m2", Vote.NEGATIVE, 0.0)], 2.0, True)
    restored = restore(node, tmp_path / "node.ckpt")
    assert restored.ballot_box.voters_by_recency() == ["z", "a"]
    assert restored.ballot_box.last_received_of("z") == 1.0
    assert restored.ballot_box.last_received_of("a") == 2.0
    # Merging past b_max must evict the oldest-received voter ("z"),
    # exactly as the never-persisted box would have.
    receive_votes(restored, "q", [VoteEntry("m3", Vote.POSITIVE, 0.0)], 3.0, True)
    assert restored.ballot_box.voters() == ["a", "q"]
    assert node is not restored


def test_ballot_vote_timestamps_survive_round_trip(populated_node, tmp_path):
    restored = restore(populated_node, tmp_path / "node.ckpt")
    for voter in populated_node.ballot_box.voters():
        assert sorted(restored.ballot_box.votes_of(voter)) == sorted(
            populated_node.ballot_box.votes_of(voter)
        )


def test_moderation_recency_survives_version_refresh(tmp_path):
    """Regression: walking the store in storage order, where a
    refreshed item keeps its old position, restored ``insert(A v1);
    insert(B); insert(A v2)`` as if B were the newest — wrong
    ``recency_order()`` (what ModerationCast forwards first) and the
    wrong capacity-eviction victim."""
    node = VoteSamplingNode("me", NodeConfig(), np.random.default_rng(0))
    node.receive_moderations([Moderation("a", "t", "v1", version=1)], 1.0)
    node.receive_moderations([Moderation("b", "t", "only")], 2.0)
    node.receive_moderations([Moderation("a", "t", "v2", version=2)], 3.0)
    assert [m.title for m in node.store.recency_order()] == ["v2", "only"]

    restored = restore(node, tmp_path / "node.ckpt")
    assert restored.store.recency_order() == node.store.recency_order()
    assert restored.store.received_at(restored.store.get("a", "t")) == 3.0
    # A restored shard keeps counting where it stopped.
    assert restored.store.mutation_count == node.store.mutation_count == 3
    for store in (node.store, restored.store):
        store.capacity = 1
        store.enforce_capacity()
        assert [m.title for m in store.all_items()] == ["v2"]
    # node_to_dict lists oldest received first; nothing refreshed, so
    # that is storage order.
    plain = VoteSamplingNode("me", NodeConfig(), np.random.default_rng(0))
    plain.receive_moderations(
        [Moderation("b", "t", "1"), Moderation("a", "t", "2")], 1.0
    )
    assert [m["moderator_id"] for m in node_to_dict(plain)["moderations"]] == ["b", "a"]


# ----------------------------------------------------------------------
# Atomic writes (bugfix regression)
# ----------------------------------------------------------------------
def test_partial_write_preserves_previous_checkpoint(tmp_path, monkeypatch):
    """Regression: a bare ``Path.write_text`` left a torn JSON prefix in
    place of the previous file when a write crashed.  The write layer
    below is made to fail after 20 bytes; the file on disk must survive
    intact."""
    import builtins
    import io

    path = tmp_path / "status.json"
    atomic_write_text(path, json.dumps({"slice": 1, "votes": list(range(40))}))
    before = path.read_text(encoding="utf-8")

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
            atomic_write_text(path, json.dumps({"slice": 2, "votes": []}))

    assert path.read_text(encoding="utf-8") == before
    assert json.loads(before)["slice"] == 1
    # No temp-file litter left behind by the failed attempt.
    assert sorted(p.name for p in tmp_path.iterdir()) == ["status.json"]


def test_format_is_v3_with_rng_state(populated_node):
    data = node_to_dict(populated_node)
    assert data["format"] == 3
    assert data["rng_state"]["bit_generator"] == "PCG64"
