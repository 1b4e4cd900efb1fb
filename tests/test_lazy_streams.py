"""Per-peer random streams are state, built only when something draws.

A peer's jitter stream is a row of PCG64 words in the scheduler's
column, and its node stream is derived on the node's first draw; a
VoxPopuli cache allocates nothing until a list arrives.  Every draw
must still be the one a per-peer ``Generator`` would have made, and a
checkpoint must carry the positions of both streams: a restored shard
finishes like one that never stopped.
"""

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.bittorrent.session import SessionConfig
from repro.core.checkpoint import CheckpointError, read_sections, write_sections
from repro.core.node import NodeConfig
from repro.core.runtime import RuntimeConfig
from repro.core.votes import Vote
from repro.experiments.common import SimulationStack
from repro.sim.rng import RngRegistry
from repro.sim.service import CHECKPOINT_FILE, ServiceShard, ShardConfig
from repro.traces.model import PeerProfile, Trace

#: A checkpoint of :func:`_shard_config` at t = 600 s, written when every
#: node built its ``("node", pid)`` generator up front and the registry
#: held the jitter generators (every ``rng.node`` row filled).
EAGER_CHECKPOINT = Path(__file__).parent / "data" / "eager_streams_shard.ckpt"


def _steady_stack(n_peers, seed=7, **node):
    """The benchmark's steady-vote shape: everyone online from t=0,
    votes every 60 s, VoxPopuli and moderation off, lists of 30 votes
    under the 50-vote exchange budget — no scalar path draws."""
    pids = [f"p{i:05d}" for i in range(n_peers)]
    trace = Trace(
        duration=300.0,
        peers={pid: PeerProfile(peer_id=pid) for pid in pids},
        swarms={},
        events=[],
    )
    stack = SimulationStack.build(
        trace,
        seed=seed,
        session_config=SessionConfig(round_interval=1e9),
        runtime_config=RuntimeConfig(
            node=NodeConfig(
                b_min=1, b_max=50, v_max=10, voxpopuli_enabled=False, **node
            ),
            moderation_interval=1e9,
            vote_interval=60.0,
            bartercast_interval=1e9,
            experience_threshold=0.0,
        ),
    )
    runtime = stack.runtime
    mods = pids[:60]
    for i, pid in enumerate(pids):
        node = runtime.ensure_node(pid)
        if i % 4 == 0:
            for j in range(30):
                m = mods[(i + j) % len(mods)]
                if m != pid:
                    node.cast_vote(m, Vote.POSITIVE if (i + j) % 3 else Vote.NEGATIVE, 0.0)
        runtime.bring_online(pid, 0.0)
    stack.session.start()
    return stack


def test_steady_run_builds_no_per_peer_generator():
    stack = _steady_stack(2000)
    stack.engine.run_until(300.0)
    runtime = stack.runtime
    assert runtime.run_summary()["nodes"]["votes_merged"] > 0
    per_peer = [
        key for key in runtime._rng.streams() if key[0] in ("node", "jitter")
    ]
    assert per_peer == []
    assert not any(
        isinstance(node._rng, np.random.Generator) for node in runtime.nodes.values()
    )
    assert not any(node.topk_cache._lists for node in runtime.nodes.values())
    # ... yet every peer drew its jitter: the positions are in the column
    population = runtime.materialize_population()
    assert population._jit_state[: len(runtime.nodes), 3].all()


def test_first_lazy_draw_is_the_registry_stream():
    stack = _steady_stack(40, seed=13)
    runtime = stack.runtime
    node = runtime.ensure_node("p00007")
    assert not isinstance(node._rng, np.random.Generator)
    expected = RngRegistry(13).stream("node", "p00007").random(8)
    assert np.array_equal(node.rng.random(8), expected)
    assert runtime._rng.streams()[("node", "p00007")] is node.rng


def test_over_budget_exchanges_build_only_the_drawing_nodes():
    """Lists of 30 votes over a budget of 5: the voters draw their
    selections (and build their streams); the rest never do."""
    stack = _steady_stack(200, seed=13, votes_per_exchange=5)
    stack.engine.run_until(300.0)
    runtime = stack.runtime
    built = {
        pid
        for pid, node in runtime.nodes.items()
        if isinstance(node._rng, np.random.Generator)
    }
    voters = {pid for pid, node in runtime.nodes.items() if len(node.vote_list) > 5}
    assert built == voters and voters
    assert {key[1] for key in runtime._rng.streams() if key[0] == "node"} == built


def _shard_config(moderations_per_exchange=2):
    """12 peers ticking every 150 s (BarterCast every 600 s): by
    t = 600 s every peer has drawn 12 jitter doubles — one refill done,
    the next due before t = 1800 s.  Four moderators' 12 items over an
    exchange budget of 2 make the nodes draw too."""
    return ShardConfig(
        shard_id=0,
        peers=12,
        seed=11,
        moderation_interval=150.0,
        vote_interval=150.0,
        bartercast_interval=600.0,
        node=NodeConfig(b_max=20, moderations_per_exchange=moderations_per_exchange),
    )


def _uninterrupted(config, until):
    shard = ServiceShard(config)
    shard.start()
    shard.run_until(600.0)
    shard.run_until(until)
    return shard


@pytest.mark.parametrize("budget", [2, 25], ids=["node-draws", "no-node-draws"])
def test_checkpoint_between_jitter_refills_replays_bit_identically(tmp_path, budget):
    config = _shard_config(budget)
    until = 1800.0
    shard = ServiceShard(config)
    shard.start()
    shard.run_until(600.0)
    shard.write_checkpoint(tmp_path)
    _, components = read_sections(tmp_path / CHECKPOINT_FILE)
    # every row between two refills: the chunk is part spent, and only
    # the saved words can continue the stream
    pos = components["sched"]["jit_pos"]
    assert ((0 < pos) & (pos < 16)).all()
    saved = components["rng"]["jitter"]
    assert saved[:, 3].all() and not saved[:, 4:].any()
    assert "jit_state" not in components["sched"]  # saved once, as rng.jitter
    assert components["rng"]["node"][:, 3].any() == (budget == 2)

    resumed = ServiceShard.restore_from(config, tmp_path)
    restored_nodes = resumed.runtime.nodes.values()
    assert not any(isinstance(n._rng, np.random.Generator) for n in restored_nodes)
    resumed.run_until(until)
    after = resumed.runtime.materialize_population().schedule_state()
    assert not np.array_equal(after["jit_state"], saved)  # refilled from the words
    reference = _uninterrupted(config, until)
    expected = reference.runtime.materialize_population().schedule_state()
    for key, value in expected.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(after[key], value, equal_nan=True), key
    assert resumed.identity_state() == reference.identity_state()


def test_serialising_nodes_builds_no_node_stream(tmp_path):
    """``identity_state`` serialises every node's stream position.  A
    stream that never drew is read from where it starts, so asking
    registers no generator; one a restore placed mid-stream is read
    from the registry, where the node's first draw would find it."""
    shard = ServiceShard(_shard_config(25))
    shard.start()
    shard.run_until(600.0)
    before = set(shard.rng.streams())
    assert not any(key[0] == "node" for key in before)
    nodes = shard.identity_state()["nodes"]
    assert set(shard.rng.streams()) == before
    for data in nodes:
        built = shard.rng.stream("node", data["peer_id"])
        assert data["rng_state"] == built.bit_generator.state

    drawing = ServiceShard(_shard_config(2))
    drawing.start()
    drawing.run_until(600.0)
    drawing.write_checkpoint(tmp_path)
    resumed = ServiceShard.restore_from(_shard_config(2), tmp_path)
    registered = set(resumed.rng.streams())
    assert resumed.identity_state()["nodes"] == drawing.identity_state()["nodes"]
    assert set(resumed.rng.streams()) == registered


def test_eager_stream_checkpoint_restores_bit_identically(tmp_path):
    """A checkpoint whose every node row holds a built generator's
    position (as all did before node streams were derived lazily)
    restores them and finishes like the uninterrupted run."""
    _, components = read_sections(EAGER_CHECKPOINT)
    assert components["rng"]["node"][:, 3].all()
    shutil.copy(EAGER_CHECKPOINT, tmp_path / CHECKPOINT_FILE)
    config = _shard_config()
    resumed = ServiceShard.restore_from(config, tmp_path)
    assert {key[0] for key in resumed.rng.streams()} >= {"node"}
    resumed.run_until(1800.0)
    reference = _uninterrupted(config, 1800.0)
    assert resumed.identity_state() == reference.identity_state()


def test_jitter_row_with_a_buffered_word_is_refused(tmp_path):
    """No double draw leaves a uint32 buffered; a jitter row holding
    one cannot be continued in the column and is refused, never
    reseeded."""
    header, components = read_sections(EAGER_CHECKPOINT)
    jitter = components["rng"]["jitter"].copy()
    jitter[5, 4] = 1
    jitter[5, 5] = 0xDEADBEEF
    changed = dict(components, rng=dict(components["rng"], jitter=jitter))
    write_sections(tmp_path / CHECKPOINT_FILE, header, changed)
    with pytest.raises(CheckpointError, match="row 5 holds a buffered uint32"):
        ServiceShard.restore_from(_shard_config(), tmp_path)
