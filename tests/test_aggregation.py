"""Inter-shard DHT-routed vote aggregation.

Covers the digest round-trip contract (export → merge on an empty box
≡ direct merge, identical across dict and columnar backings), the
rate-limit/pending semantics, Chord cost accounting with dead-owner
retry/backoff, and the lockstep cluster's crash contract: a shard
discarded and restored from its checkpoint replays bit-identically.
"""

import json
from dataclasses import replace

import pytest

from repro.core.ballotbox import BallotBox
from repro.core.checkpoint import read_sections
from repro.core.node import NodeConfig
from repro.core.votes import Vote, VoteEntry
from repro.sim.aggregation import (
    AggregationConfig,
    DirectoryDigestBoard,
    InMemoryDigestBoard,
    ShardAggregator,
    ShardCluster,
    build_shard_digest,
    max_cross_shard_rank_distance,
    rank_distance,
    shard_ring_name,
    shard_top_k,
)
from repro.sim.rng import RngRegistry
from repro.sim.service import (
    CHECKPOINT_FILE,
    ServiceConfig,
    ServiceShard,
    ShardConfig,
)
from tests.reference_ballotbox import ReferenceBallotBox
from tests import reference_ballotbox as ballots


def _agg_config(**overrides):
    defaults = dict(shards=3, max_votes_per_interval=150)
    defaults.update(overrides)
    return AggregationConfig(**defaults)


def _cluster_config(**overrides):
    agg = overrides.pop("aggregation", _agg_config())
    shard_defaults = dict(
        peers=16,
        seed=9,
        moderators=3,
        moderations_per_moderator=2,
        node=NodeConfig(b_max=30),
        aggregation=agg,
    )
    shard_defaults.update(overrides.pop("shard", {}))
    defaults = dict(
        shards=3,
        until=3 * 3600.0,
        checkpoint_interval=3600.0,
        shard=ShardConfig(**shard_defaults),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


# ----------------------------------------------------------------------
# Config validation
# ----------------------------------------------------------------------
def test_config_validation():
    with pytest.raises(ValueError):
        AggregationConfig(shards=0)
    with pytest.raises(ValueError):
        AggregationConfig(max_votes_per_interval=0)
    with pytest.raises(ValueError):
        AggregationConfig(merge_fanout=0)
    with pytest.raises(ValueError):
        ShardAggregator(_agg_config(shards=2), 2, RngRegistry(0))


# ----------------------------------------------------------------------
# Digest export round-trips, dict and columnar backings
# ----------------------------------------------------------------------
def _both_backings(b_max=10):
    return [ReferenceBallotBox(b_max), BallotBox(b_max)]


def _fill(box):
    box.merge("v1", [VoteEntry("m1", Vote.POSITIVE, 0.0)], 10.0)
    box.merge(
        "v2",
        [VoteEntry("m1", Vote.NEGATIVE, 1.0), VoteEntry("m2", Vote.POSITIVE, 1.0)],
        20.0,
    )
    box.merge("v1", [VoteEntry("m2", Vote.NEGATIVE, 2.0)], 30.0)
    box.merge("v3", [VoteEntry("v3", Vote.POSITIVE, 3.0)], 40.0)  # self-vote only


def test_export_digest_identical_across_backings():
    dict_box, col_box = _both_backings()
    _fill(dict_box)
    _fill(col_box)
    exported = dict_box.export_digest()
    assert exported == col_box.export_digest()
    assert exported == [
        ("v1", "m1", 1, 10.0),
        ("v1", "m2", -1, 30.0),
        ("v2", "m1", -1, 20.0),
        ("v2", "m2", 1, 20.0),
    ]


@pytest.mark.parametrize("backing", ["dict", "columnar"])
def test_digest_round_trip_equals_direct_merge(backing):
    """Replaying an exported digest into an empty box stores exactly
    what direct merges stored — same voters, votes, timestamps."""
    source, col_source = _both_backings()
    boxes = {"dict": source, "columnar": col_source}
    _fill(boxes[backing])
    exported = boxes[backing].export_digest()

    replayed = BallotBox(10)
    stored = sum(
        replayed.merge(
            voter, [VoteEntry(moderator, Vote(vote), received_at)], received_at
        )
        for voter, moderator, vote, received_at in sorted(
            exported, key=lambda r: r[3]
        )
    )
    assert stored == len(exported)
    assert replayed.voters() == boxes[backing].voters()
    assert replayed.all_counts() == boxes[backing].all_counts()
    assert replayed.export_digest() == exported
    for voter in replayed.voters():
        assert sorted(ballots.votes_of(replayed, voter)) == sorted(
            ballots.votes_of(boxes[backing], voter)
        )


def test_build_shard_digest_latest_received_wins():
    class _Node:
        def __init__(self, box):
            self.ballot_box = box

    early, late = BallotBox(10), BallotBox(10)
    early.merge("v1", [VoteEntry("m1", Vote.POSITIVE, 0.0)], 10.0)
    late.merge("v1", [VoteEntry("m1", Vote.NEGATIVE, 5.0)], 20.0)
    forward = build_shard_digest({"a": _Node(early), "b": _Node(late)})
    backward = build_shard_digest({"b": _Node(late), "a": _Node(early)})
    assert forward == backward == {"m1": [["v1", -1]]}


# ----------------------------------------------------------------------
# Rate limit & pending semantics
# ----------------------------------------------------------------------
def _one_shard(agg=None, **overrides):
    config = ShardConfig(
        shard_id=0,
        peers=12,
        seed=5,
        moderators=2,
        node=NodeConfig(b_max=30),
        aggregation=agg or _agg_config(shards=2, max_votes_per_interval=5),
    )
    shard = ServiceShard(config)
    shard.start()
    shard.run_until(600.0)
    return shard


def test_rate_limit_leaves_excess_pending():
    shard = _one_shard()
    agg = shard.aggregator
    votes = [[f"x{i:02d}", 1] for i in range(12)]
    agg._stage("shard-01", 1, "remote-mod", votes)
    assert agg._pending_votes() == 12

    merged = agg.merge_pending(shard)
    # budget 5, fanout 2 targets: 5 offered, 10 stored
    assert agg.ops["remote_votes_offered"] == 5
    assert merged == 10
    assert agg._pending_votes() == 7
    merged_again = agg.merge_pending(shard)
    assert merged_again == 10
    assert agg._pending_votes() == 2
    agg.merge_pending(shard)
    assert agg._pending_votes() == 0
    assert shard.runtime.traffic.counters["aggregation"].items == 12


def test_newer_epoch_supersedes_pending_entry():
    shard = _one_shard()
    agg = shard.aggregator
    agg._stage("shard-01", 1, "remote-mod", [["x00", 1], ["x01", 1]])
    agg._stage("shard-01", 2, "remote-mod", [["x00", -1]])
    assert len(agg.pending) == 1
    assert agg.pending[0]["epoch"] == 2
    assert agg._pending_votes() == 1


def test_remote_merges_respect_ballot_box_rules():
    """Remote votes go through BallotBox.merge: fanout-sampled targets,
    self-votes dropped, one-node-one-vote structural."""
    shard = _one_shard()
    agg = shard.aggregator
    target_ids = shard.config.peer_ids()
    agg._stage("shard-01", 1, "remote-mod", [["xv", 1]])
    agg.merge_pending(shard)
    stored = [
        pid
        for pid in target_ids
        if ballots.vote_of(shard.runtime.nodes[pid].ballot_box, "xv", "remote-mod")
        is not None
    ]
    assert len(stored) == 2  # merge_fanout distinct targets
    for pid in target_ids:
        votes = ballots.votes_of(shard.runtime.nodes[pid].ballot_box, "xv")
        assert len(votes) <= 1  # never duplicated

    # A self-vote (voter == moderator) is information-free and the
    # merge path drops it — remote digests cannot smuggle one in.
    agg._stage("shard-01", 2, "self-lover", [["self-lover", 1]])
    merged = agg.merge_pending(shard)
    assert merged == 0
    assert agg._pending_votes() == 0
    for pid in target_ids:
        assert ballots.votes_of(shard.runtime.nodes[pid].ballot_box, "self-lover") == []


# ----------------------------------------------------------------------
# Chord costs, dead owners, retry/backoff
# ----------------------------------------------------------------------
class _FlakyBoard(InMemoryDigestBoard):
    """Fails every fetch until ``heal()`` is called."""

    def __init__(self):
        super().__init__()
        self.failing = True
        self.fetches = 0

    def heal(self):
        self.failing = False

    def fetch(self, publisher, epoch):
        self.fetches += 1
        if self.failing:
            return None
        return super().fetch(publisher, epoch)


def test_publish_and_pull_pay_dht_messages():
    shard = _one_shard()
    board = InMemoryDigestBoard()
    agg = shard.aggregator
    paid = agg.publish(shard, board)
    assert paid > 0
    assert agg.epoch == 1
    assert agg.ops["dht_messages"] == paid
    assert board.epochs(shard_ring_name(0)) == [1]
    assert shard.runtime.traffic.counters["dht"].items == paid


def test_dead_owner_retries_backoff_and_recovery():
    shard = _one_shard(agg=_agg_config(shards=2, max_retries=3))
    agg = shard.aggregator
    board = _FlakyBoard()
    publisher = shard_ring_name(1)
    board.publish(publisher, 1, {"remote-mod": [["xv", 1]]})

    paid = agg.pull(shard, board)
    assert board.fetches == 3  # max_retries attempts
    assert agg.ops["fetch_retries"] == 3
    assert agg.ops["pull_failures"] == 1
    assert agg.cursors[publisher] == 0  # not advanced
    assert agg.backoff[publisher] == 1
    assert publisher in agg.dead  # failure detected on the ring
    assert paid > 0

    # Backed off: the next interval does not even try.
    fetches_before = board.fetches
    agg.pull(shard, board)
    assert board.fetches == fetches_before
    assert agg.backoff[publisher] == 0

    # Healed: fetch succeeds, cursor advances, owner rejoins the ring.
    board.heal()
    agg.pull(shard, board)
    assert agg.cursors[publisher] == 1
    assert agg.fail_streak[publisher] == 0
    assert publisher not in agg.dead
    assert agg.ops["digests_pulled"] == 1
    assert agg._pending_votes() == 1


def test_directory_board_round_trip(tmp_path):
    board = DirectoryDigestBoard(tmp_path / "dht")
    digest = {"m1": [["v1", 1], ["v2", -1]]}
    board.publish("shard-00", 3, digest)
    board.publish("shard-00", 1, {"m1": [["v1", 1]]})
    assert board.epochs("shard-00") == [1, 3]
    assert board.epochs("shard-01") == []
    assert board.fetch("shard-00", 3) == digest
    assert board.fetch("shard-00", 9) is None
    (tmp_path / "dht" / "shard-00-e000001.json").write_text("{torn", "utf-8")
    assert board.fetch("shard-00", 1) is None


# ----------------------------------------------------------------------
# Rank-distance metric
# ----------------------------------------------------------------------
def test_rank_distance_bounds():
    assert rank_distance([], []) == 0.0
    assert rank_distance(["a", "b"], ["a", "b"]) == 0.0
    assert rank_distance(["a", "b"], ["c", "d"]) == 1.0
    assert rank_distance(["a", "b"], ["b", "c"]) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# Lockstep cluster: convergence + crash contract
# ----------------------------------------------------------------------
def test_cluster_converges_vs_isolated_shards(tmp_path):
    config = _cluster_config()
    cluster = ShardCluster(config, directory=tmp_path)
    cluster.run()

    isolated_cfg = _cluster_config(aggregation=None)
    isolated = []
    for shard_id in range(isolated_cfg.shards):
        shard = ServiceShard(isolated_cfg.shard_config(shard_id))
        shard.start()
        shard.run_service(isolated_cfg.until, isolated_cfg.checkpoint_interval)
        isolated.append(shard)

    k = 6
    aggregated_distance = max_cross_shard_rank_distance(cluster.shards, k)
    isolated_distance = max_cross_shard_rank_distance(isolated, k)
    assert isolated_distance == 1.0  # disjoint moderator sets
    assert aggregated_distance < isolated_distance
    # each shard's ranking now contains foreign moderators
    for shard in cluster.shards:
        own = f"s{shard.config.shard_id:02d}"
        assert any(not m.startswith(own) for m in shard_top_k(shard, k))
    for shard in cluster.shards:
        ops = shard.aggregator.ops
        assert ops["digests_published"] > 0
        assert ops["digests_pulled"] > 0
        assert ops["dht_messages"] > 0
        assert ops["remote_votes_merged"] > 0
    # The routing cost stays bounded: Chord lookups on the private ring
    # of shard names, not a flood (≈2 routed messages per digest op).
    ops = [shard.aggregator.ops for shard in cluster.shards]
    messages = sum(o["dht_messages"] for o in ops)
    digest_ops = sum(o["digests_published"] + o["digests_pulled"] for o in ops)
    assert messages / digest_ops <= 16


def test_cluster_restore_replays_bit_identically(tmp_path):
    config = _cluster_config()
    reference = ShardCluster(config, directory=tmp_path / "ref")
    reference.run()

    crashed = ShardCluster(config, directory=tmp_path / "crashed")
    crashed.run(until=config.checkpoint_interval)
    crashed.restore_shard(1)  # in-process kill -9 at the boundary
    crashed.run()

    for shard_id in range(config.shards):
        assert (
            crashed.shards[shard_id].identity_state()
            == reference.shards[shard_id].identity_state()
        )
    assert crashed.shards[1].ops["restores"] == 1
    # the comparison must cover real aggregation traffic
    ref_state = reference.shards[1].identity_state()
    assert ref_state["aggregation"]["ops"]["remote_votes_merged"] > 0


def test_cluster_restore_replays_bit_identically_columnar(tmp_path):
    """Same crash contract one boundary later, when remote digest
    merges have interned *foreign* voter ids into the shared row table
    in arrival order — a restore must reproduce those row numbers
    exactly (the checkpoint dumps the intern tables themselves)."""
    config = _cluster_config(
        shard={"population_engine": "soa", "columnar_state": "on"}
    )
    reference = ShardCluster(config, directory=tmp_path / "ref")
    reference.run()

    crashed = ShardCluster(config, directory=tmp_path / "crashed")
    crashed.run(until=2 * config.checkpoint_interval)
    crashed.restore_shard(0)
    crashed.run()

    for shard_id in range(config.shards):
        assert (
            crashed.shards[shard_id].identity_state()
            == reference.shards[shard_id].identity_state()
        )
    # the restored shard really interned foreign voters
    store = crashed.shards[0].runtime._col_store
    own = set(crashed.shards[0].config.peer_ids())
    assert any(pid not in own for pid in store.rows.ids)


def test_cluster_rejects_mismatched_roster():
    config = _cluster_config(shards=2)  # aggregation roster says 3
    with pytest.raises(ValueError, match="roster"):
        ShardCluster(config)
    with pytest.raises(ValueError, match="aggregation"):
        ShardCluster(_cluster_config(aggregation=None))


# ----------------------------------------------------------------------
# Aggregation state in the shard checkpoint
# ----------------------------------------------------------------------
def test_aggregation_state_round_trips_through_json(tmp_path):
    """The aggregation section is JSON in the checkpoint header."""
    config = _cluster_config()
    cluster = ShardCluster(config, directory=tmp_path)
    cluster.run(until=2 * config.checkpoint_interval)
    shard = cluster.shards[0]
    saved, _components = read_sections(cluster.shard_dir(0) / CHECKPOINT_FILE)
    assert saved["aggregation"]["epoch"] == 2
    assert saved["aggregation"] == json.loads(
        json.dumps(shard.aggregator.state_dict())
    )
    cluster.restore_shard(0)
    assert cluster.shards[0].aggregator.state_dict() == shard.aggregator.state_dict()


def test_restore_rejects_aggregation_mismatch(tmp_path):
    config = _cluster_config()
    cluster = ShardCluster(config, directory=tmp_path)
    cluster.run(until=config.checkpoint_interval)

    plain_config = replace(config.shard_config(0), aggregation=None)
    with pytest.raises(ValueError, match="disables aggregation"):
        ServiceShard.restore_from(plain_config, cluster.shard_dir(0))

    plain = ServiceShard(plain_config)
    plain.start()
    plain.write_checkpoint(tmp_path / "plain")
    with pytest.raises(ValueError, match="no aggregation state"):
        ServiceShard.restore_from(config.shard_config(0), tmp_path / "plain")
