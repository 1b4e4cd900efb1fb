"""State persistence across sessions (§I: "local database services
allowing state to be maintained over sessions").

Nodes keep their moderation database, vote list, ballot box, BarterCast
records and partial downloads through churn — only *liveness* changes.
"""

import pytest

from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import HOUR
from repro.traces.model import (
    EventKind,
    PeerProfile,
    SwarmSpec,
    Trace,
    TraceEvent,
)


@pytest.fixture()
def churny_world():
    """p1 has two sessions separated by a long offline gap."""
    peers = {
        "seed": PeerProfile("seed", upload_capacity=40_000.0),
        "p1": PeerProfile("p1"),
        "p2": PeerProfile("p2"),
    }
    # Big enough that one hour at the seed's 40 kB/s cannot finish it.
    swarms = {
        "s0": SwarmSpec("s0", file_size=2000 * 256 * 1024, initial_seeder="seed")
    }
    events = sorted(
        [
            TraceEvent(0.0, "seed", EventKind.SESSION_START),
            TraceEvent(0.0, "seed", EventKind.SWARM_JOIN, "s0"),
            TraceEvent(0.0, "p2", EventKind.SESSION_START),
            # p1: session 1
            TraceEvent(0.0, "p1", EventKind.SESSION_START),
            TraceEvent(0.0, "p1", EventKind.SWARM_JOIN, "s0"),
            TraceEvent(3600.0, "p1", EventKind.SWARM_LEAVE, "s0"),
            TraceEvent(3600.0, "p1", EventKind.SESSION_END),
            # p1: session 2 after 4h offline
            TraceEvent(5 * 3600.0, "p1", EventKind.SESSION_START),
            TraceEvent(5 * 3600.0, "p1", EventKind.SWARM_JOIN, "s0"),
        ],
        key=TraceEvent.sort_key,
    )
    trace = Trace(duration=8 * HOUR, peers=peers, swarms=swarms, events=events)
    engine = Engine()
    rng = RngRegistry(7)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=60.0)
    )
    runtime = ProtocolRuntime(
        session,
        rng,
        config=RuntimeConfig(
            moderation_interval=120.0,
            vote_interval=120.0,
            bartercast_interval=300.0,
        ),
    )
    return engine, session, runtime


def test_partial_download_resumes(churny_world):
    engine, session, runtime = churny_world
    session.start()
    engine.run_until(3600.0)
    progress_before = session.swarms["s0"].progress_of("p1")
    assert 0 < progress_before < 1
    engine.run_until(5 * 3600.0 - 1)
    assert session.swarms["s0"].progress_of("p1") == progress_before
    engine.run_until(8 * HOUR)
    assert session.swarms["s0"].progress_of("p1") > progress_before


def test_votes_and_moderations_survive_offline_gap(churny_world):
    engine, session, runtime = churny_world
    node = runtime.ensure_node("p1")
    session.start()
    engine.run_until(1800.0)
    node.cast_vote("someone", Vote.POSITIVE, engine.now)
    node.create_moderation("my-torrent", "my upload", engine.now)
    engine.run_until(5 * 3600.0 - 1)  # p1 offline
    assert not session.registry.is_online("p1")
    assert node.vote_list.vote_on("someone") is Vote.POSITIVE
    assert node.store.has_moderator("p1")
    engine.run_until(6 * 3600.0)  # back online
    assert session.registry.is_online("p1")
    assert node.vote_list.vote_on("someone") is Vote.POSITIVE


def test_bartercast_credit_survives_offline_gap(churny_world):
    engine, session, runtime = churny_world
    session.start()
    engine.run_until(3600.0)
    credit_before = runtime.bartercast.contribution("p1", "seed")
    assert credit_before > 0  # p1 downloaded from the seed
    engine.run_until(5 * 3600.0 - 1)
    assert runtime.bartercast.contribution("p1", "seed") >= credit_before


def test_protocol_processes_pause_while_offline(churny_world):
    engine, session, runtime = churny_world
    protocols = ("moderation", "vote", "bartercast")
    p1_ticks = []
    real_batch = runtime._vote_tick_batch

    def counted(times, pids, rows, protos):
        # Every gossip tick is an entry of a batch-handler call.
        p1_ticks.extend(
            (t, protocols[p]) for t, pid, p in zip(times, pids, protos) if pid == "p1"
        )
        return real_batch(times, pids, rows, protos)

    runtime._vote_tick_batch = counted

    def per_protocol(start, end):
        return [sum(start < t <= end and n == name for t, n in p1_ticks)
                for name in protocols]

    session.start()
    engine.run_until(2 * 3600.0)  # p1 offline since 1h
    assert not runtime.materialize_population().is_online("p1")
    engine.run_until(6 * 3600.0)
    assert runtime.materialize_population().is_online("p1")
    assert all(per_protocol(0.0, 3600.0))  # every loop ran in session 1 ...
    assert per_protocol(3600.0, 5 * 3600.0) == [0, 0, 0]  # ... none offline
    assert all(per_protocol(5 * 3600.0, 6 * 3600.0))  # ... and all resumed
