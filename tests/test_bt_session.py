"""Tests for the trace-driven BitTorrent session."""

import pytest

from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import HOUR
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.model import (
    EventKind,
    PeerProfile,
    SwarmSpec,
    Trace,
    TraceEvent,
)


def hand_trace():
    """Tiny hand-built trace: a seeder online throughout, one leecher."""
    peers = {
        "seed": PeerProfile("seed", upload_capacity=200_000.0),
        "leech": PeerProfile("leech"),
    }
    swarms = {"s0": SwarmSpec("s0", file_size=4 * 256 * 1024, initial_seeder="seed")}
    events = sorted(
        [
            TraceEvent(0.0, "seed", EventKind.SESSION_START),
            TraceEvent(0.0, "seed", EventKind.SWARM_JOIN, "s0"),
            TraceEvent(10.0, "leech", EventKind.SESSION_START),
            TraceEvent(10.0, "leech", EventKind.SWARM_JOIN, "s0"),
            TraceEvent(3000.0, "leech", EventKind.SWARM_LEAVE, "s0"),
            TraceEvent(3000.0, "leech", EventKind.SESSION_END),
            TraceEvent(3600.0, "seed", EventKind.SWARM_LEAVE, "s0"),
            TraceEvent(3600.0, "seed", EventKind.SESSION_END),
        ],
        key=TraceEvent.sort_key,
    )
    t = Trace(duration=3600.0, peers=peers, swarms=swarms, events=events)
    t.validate()
    return t


def test_replay_tracks_online_status():
    eng = Engine()
    sess = BitTorrentSession(eng, hand_trace(), RngRegistry(0))
    sess.start()
    eng.run_until(5.0)
    assert sess.registry.is_online("seed")
    assert not sess.registry.is_online("leech")
    eng.run_until(100.0)
    assert sess.registry.is_online("leech")
    eng.run_until(3600.0)
    assert sess.registry.online_count() == 0


def test_online_offline_listeners_fire():
    eng = Engine()
    sess = BitTorrentSession(eng, hand_trace(), RngRegistry(0))
    ups, downs = [], []
    sess.on_peer_online(lambda pid, t: ups.append((pid, t)))
    sess.on_peer_offline(lambda pid, t: downs.append((pid, t)))
    sess.run()
    assert ("seed", 0.0) in ups and ("leech", 10.0) in ups
    assert ("leech", 3000.0) in downs and ("seed", 3600.0) in downs


def test_leecher_completes_download():
    eng = Engine()
    sess = BitTorrentSession(eng, hand_trace(), RngRegistry(0))
    sess.run()
    assert sess.swarms["s0"].progress_of("leech") == 1.0
    assert sess.ledger.sent("seed", "leech") == pytest.approx(4 * 256 * 1024, rel=1e-6)


def test_cannot_start_twice():
    eng = Engine()
    sess = BitTorrentSession(eng, hand_trace(), RngRegistry(0))
    sess.start()
    with pytest.raises(RuntimeError):
        sess.start()


def test_session_end_forces_swarm_departure():
    """Even without explicit SWARM_LEAVE the peer exits its swarms."""
    peers = {
        "seed": PeerProfile("seed"),
        "x": PeerProfile("x"),
    }
    swarms = {"s0": SwarmSpec("s0", file_size=256 * 1024, initial_seeder="seed")}
    events = sorted(
        [
            TraceEvent(0.0, "seed", EventKind.SESSION_START),
            TraceEvent(0.0, "seed", EventKind.SWARM_JOIN, "s0"),
            TraceEvent(0.0, "x", EventKind.SESSION_START),
            TraceEvent(0.0, "x", EventKind.SWARM_JOIN, "s0"),
            TraceEvent(100.0, "x", EventKind.SESSION_END),
        ],
        key=TraceEvent.sort_key,
    )
    # Note: trace.validate() would flag the dangling join, so build raw.
    trace = Trace(duration=200.0, peers=peers, swarms=swarms, events=events)
    eng = Engine()
    sess = BitTorrentSession(eng, trace, RngRegistry(0))
    sess.start()
    eng.run_until(200.0)
    assert "x" not in sess.swarms["s0"].active


def test_generated_trace_runs_end_to_end():
    cfg = TraceGeneratorConfig(n_peers=20, duration=6 * HOUR, n_swarms=3)
    trace = TraceGenerator(cfg, seed=2).generate()
    eng = Engine()
    sess = BitTorrentSession(
        eng, trace, RngRegistry(2), config=SessionConfig(round_interval=60.0)
    )
    sess.run()
    assert sess.ledger.total_bytes > 0
    # Someone actually finished a file (seeders exist and files are small
    # enough given six hours of transfer at configured rates) — weaker
    # assertion: meaningful progress happened somewhere.
    progress = [
        sw.progress_of(pid)
        for sw in sess.swarms.values()
        for pid in sw.members
        if pid != sw.spec.initial_seeder
    ]
    assert max(progress, default=0.0) > 0.05


def test_determinism_end_to_end():
    cfg = TraceGeneratorConfig(n_peers=12, duration=3 * HOUR, n_swarms=2)
    trace = TraceGenerator(cfg, seed=4).generate()

    def run():
        eng = Engine()
        sess = BitTorrentSession(
            eng, trace, RngRegistry(4), config=SessionConfig(round_interval=60.0)
        )
        sess.run()
        return sess.ledger.total_bytes, sorted(sess.ledger.edges())

    assert run() == run()


def test_config_validation():
    with pytest.raises(ValueError):
        SessionConfig(round_interval=0.0)
