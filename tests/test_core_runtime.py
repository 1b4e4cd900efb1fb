"""Integration tests: the full protocol stack over small traces."""

import pytest

from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.experience import AdaptiveThresholdExperience, AlwaysExperienced
from repro.core.node import NodeConfig
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.experiments.common import SimulationStack
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import HOUR, MB
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.model import (
    EventKind,
    PeerProfile,
    SwarmSpec,
    Trace,
    TraceEvent,
)
from tests import reference_ballotbox as ballots
from tests.reference_runtime import population_online


def always_online_trace(n=8, duration=6 * HOUR):
    """All peers online for the whole window, all in one swarm."""
    peers = {}
    events = []
    for i in range(n):
        pid = f"p{i}"
        peers[pid] = PeerProfile(pid, upload_capacity=200_000.0)
        t0 = float(i)  # staggered arrivals define arrival order
        events.append(TraceEvent(t0, pid, EventKind.SESSION_START))
        events.append(TraceEvent(t0, pid, EventKind.SWARM_JOIN, "s0"))
    swarms = {
        "s0": SwarmSpec("s0", file_size=100 * 256 * 1024, initial_seeder="p0")
    }
    trace = Trace(
        duration=duration,
        peers=peers,
        swarms=swarms,
        events=sorted(events, key=TraceEvent.sort_key),
    )
    trace.validate()
    return trace


def build(trace, seed=0, runtime_config=None, experience=None):
    engine = Engine()
    rng = RngRegistry(seed)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=60.0)
    )
    runtime = ProtocolRuntime(
        session,
        rng,
        config=runtime_config
        or RuntimeConfig(
            moderation_interval=120.0,
            vote_interval=120.0,
            bartercast_interval=120.0,
            # Small test swarms move tens of MB, not the hundreds that
            # real traces do — scale T down so experience is reachable.
            experience_threshold=1 * MB,
        ),
        experience=experience,
    )
    return engine, session, runtime


def test_moderations_disseminate_through_population():
    trace = always_online_trace()
    engine, session, runtime = build(trace)
    moderator = runtime.ensure_node("p1")
    moderator.create_moderation("t-file", "Great rip", now=0.0)
    session.start()
    engine.run_until(3 * HOUR)
    have = [
        pid
        for pid, node in runtime.nodes.items()
        if node.store.has_moderator("p1")
    ]
    # Direct-only spread (nobody approved p1) still reaches most peers
    # of a small always-online population in 3h of 2-minute gossip.
    assert len(have) >= 6


def test_approval_accelerates_spread_vs_disapproval_blocks():
    trace = always_online_trace()
    engine, session, runtime = build(trace)
    moderator = runtime.ensure_node("p1")
    moderator.create_moderation("t-file", "Great rip", now=0.0)
    hater = runtime.ensure_node("p2")
    hater.cast_vote("p1", Vote.NEGATIVE, 0.0)
    session.start()
    engine.run_until(3 * HOUR)
    assert not runtime.nodes["p2"].store.has_moderator("p1")


def test_experience_forms_from_transfers():
    trace = always_online_trace()
    engine, session, runtime = build(trace)
    session.start()
    engine.run_until(4 * HOUR)
    # The seeder p0 uploads to everyone; most peers should consider it
    # experienced at the default 5 MB threshold once BarterCast spreads.
    experienced_in = sum(
        1
        for pid in trace.peers
        if pid != "p0" and runtime.experience.is_experienced(pid, "p0")
    )
    assert experienced_in >= 4


def test_votes_flow_only_from_experienced_peers():
    trace = always_online_trace()
    engine, session, runtime = build(trace)
    m = runtime.ensure_node("p1")
    m.create_moderation("t-file", "x", now=0.0)
    for pid in ("p2", "p3", "p4"):
        runtime.ensure_node(pid).set_vote_intention("p1", Vote.POSITIVE)
    session.start()
    engine.run_until(6 * HOUR)
    total_votes = sum(
        node.ballot_box.counts("p1")[0] for node in runtime.nodes.values()
    )
    total_rejects = sum(
        node.votes_rejected_inexperienced for node in runtime.nodes.values()
    )
    # votes were cast and some were rejected due to inexperience
    assert total_votes > 0
    assert total_rejects > 0


def test_run_summary_exposes_node_counters():
    trace = always_online_trace()
    engine, session, runtime = build(trace)
    m = runtime.ensure_node("p1")
    m.create_moderation("t-file", "x", now=0.0)
    for pid in ("p2", "p3"):
        runtime.ensure_node(pid).set_vote_intention("p1", Vote.POSITIVE)
    session.start()
    engine.run_until(4 * HOUR)
    summary = runtime.run_summary()
    nodes = summary["nodes"]
    assert set(nodes) == {
        "moderations_received",
        "votes_merged",
        "votes_rejected_inexperienced",
        "votes_truncated",
        "vp_requests_answered",
        "vp_requests_declined",
    }
    # The totals are real sums over the materialised nodes, not zeros
    # from an unwired counter: gossip moved moderations around, and
    # early VoxPopuli requests hit bootstrapping nodes, which decline.
    assert nodes["moderations_received"] > 0
    assert nodes["vp_requests_declined"] > 0
    assert nodes["moderations_received"] == sum(
        n.moderations_received for n in runtime.nodes.values()
    )
    # Honest senders truncate at the source, so nothing is clipped.
    assert nodes["votes_truncated"] == 0


def test_always_experienced_baseline_accepts_everything():
    trace = always_online_trace()
    engine, session, runtime = build(trace, experience=AlwaysExperienced())
    m = runtime.ensure_node("p1")
    m.create_moderation("t", "x", now=0.0)
    runtime.ensure_node("p2").set_vote_intention("p1", Vote.POSITIVE)
    session.start()
    engine.run_until(2 * HOUR)
    rejects = sum(n.votes_rejected_inexperienced for n in runtime.nodes.values())
    assert rejects == 0


def test_voxpopuli_bootstraps_newcomers():
    trace = always_online_trace()
    cfg = RuntimeConfig(
        node=NodeConfig(b_min=2),
        moderation_interval=120.0,
        vote_interval=120.0,
        bartercast_interval=120.0,
        experience_threshold=1 * MB,
    )
    engine, session, runtime = build(trace, runtime_config=cfg)
    m = runtime.ensure_node("p1")
    m.create_moderation("t", "x", now=0.0)
    for pid in ("p2", "p3", "p4", "p5"):
        runtime.ensure_node(pid).set_vote_intention("p1", Vote.POSITIVE)
    session.start()
    engine.run_until(6 * HOUR)
    # someone answered VP requests at some point
    answered = sum(n.vp_requests_answered for n in runtime.nodes.values())
    assert answered >= 0  # smoke: protocol ran
    # every online node has *some* ranking information by now
    with_info = [
        pid
        for pid, n in runtime.nodes.items()
        if n.current_ranking() or not n.needs_bootstrap()
    ]
    assert len(with_info) >= 5


def test_offline_nodes_do_not_tick():
    trace = TraceGenerator(
        TraceGeneratorConfig(n_peers=10, duration=4 * HOUR, n_swarms=2),
        seed=3,
    ).generate()
    engine, session, runtime = build(trace, seed=3)
    session.start()
    engine.run_until(4 * HOUR)
    # Sanity: nodes exist, nothing crashed, and an offline node has no
    # tick pending in any protocol loop.
    population = runtime.materialize_population()
    offline = [pid for pid in runtime.nodes if not session.registry.is_online(pid)]
    assert offline
    for pid in offline:
        row = population.rows.index[pid]
        assert all(col[row] == float("inf") for col in population._next)


def test_online_node_hours_is_the_traces_sessions_clipped_to_the_horizon():
    """The runtime's session record is the one session clock: a churn
    trace's SESSION_START / SESSION_END intervals, clipped to the
    horizon, sum to ``online_node_hours``; and at the horizon the
    registry, the session record and the scheduler's row flag agree on
    who is online."""
    trace = TraceGenerator(
        TraceGeneratorConfig(n_peers=24, duration=8 * HOUR, n_swarms=2),
        seed=5,
    ).generate()
    horizon = 5.3 * HOUR
    stack = SimulationStack.build(trace, seed=5)
    stack.run(until=horizon)
    expected = sum(
        min(s.end, horizon) - s.start
        for sessions in trace.sessions().values()
        for s in sessions
        if s.start < horizon
    )
    summary = stack.runtime.run_summary()
    assert summary["online_node_hours"] == pytest.approx(expected / HOUR, rel=1e-12)
    runtime = stack.runtime
    population = runtime.materialize_population()
    online = [pid for pid in runtime.nodes if stack.session.registry.is_online(pid)]
    assert 0 < len(online) < len(runtime.nodes)
    for pid in runtime.nodes:
        is_online = stack.session.registry.is_online(pid)
        assert (pid in runtime._online_since) == is_online
        assert population_online(population, pid) == is_online


def test_bring_online_external_peer():
    trace = always_online_trace(n=4)
    engine, session, runtime = build(trace)
    session.start()
    engine.run_until(1 * HOUR)
    runtime.bring_online("attacker", engine.now)
    assert "attacker" in runtime.nodes
    assert session.registry.is_online("attacker")
    engine.run_until(2 * HOUR)
    runtime.take_offline("attacker", engine.now)
    assert not session.registry.is_online("attacker")


def test_adaptive_experience_updates_thresholds():
    trace = always_online_trace(n=6)
    engine = Engine()
    rng = RngRegistry(1)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=60.0)
    )
    # experience needs the runtime's bartercast: construct in two steps
    runtime = ProtocolRuntime(
        session,
        rng,
        config=RuntimeConfig(
            moderation_interval=120.0,
            vote_interval=120.0,
            bartercast_interval=120.0,
            adaptive_update_interval=300.0,
        ),
        experience=None,
    )
    adaptive = AdaptiveThresholdExperience(runtime.bartercast, d_max=0.5, step=1 * MB)
    runtime.experience = adaptive
    session.start()
    engine.run_until(2 * HOUR)
    # With agreement (no votes at all) thresholds stay at zero.
    assert all(
        adaptive.threshold_for(pid) == 0.0 for pid in trace.peers
    )


def test_determinism_full_stack():
    trace = always_online_trace(n=6)

    def run():
        engine, session, runtime = build(trace, seed=11)
        m = runtime.ensure_node("p1")
        m.create_moderation("t", "x", now=0.0)
        runtime.ensure_node("p2").set_vote_intention("p1", Vote.POSITIVE)
        session.start()
        engine.run_until(3 * HOUR)
        return {
            pid: (
                len(n.store),
                n.ballot_box.num_unique_users(),
                ballots.score(n.ballot_box, "p1"),
            )
            for pid, n in sorted(runtime.nodes.items())
        }

    assert run() == run()


def test_runtime_config_validation():
    with pytest.raises(ValueError):
        RuntimeConfig(vote_interval=0.0)


def test_vote_fanout_determinism_and_reverse_batch():
    """fanout > 1 exercises the hoisted reverse-direction experience
    batch in ``_vote_tick`` (one wrapped ``[peer_id]`` per tick, not
    one per partner): repeated runs must agree exactly, and votes must
    still disseminate."""
    trace = always_online_trace(n=8)

    def run():
        engine, session, runtime = build(
            trace,
            seed=11,
            runtime_config=RuntimeConfig(
                moderation_interval=120.0,
                vote_interval=120.0,
                bartercast_interval=120.0,
                experience_threshold=1 * MB,
                vote_fanout=3,
            ),
        )
        m = runtime.ensure_node("p1")
        m.create_moderation("t", "x", now=0.0)
        runtime.ensure_node("p2").set_vote_intention("p1", Vote.POSITIVE)
        session.start()
        engine.run_until(3 * HOUR)
        summary = runtime.run_summary()
        summary.pop("population")
        states = {
            pid: (
                len(n.store),
                n.ballot_box.num_unique_users(),
                ballots.score(n.ballot_box, "p1"),
            )
            for pid, n in sorted(runtime.nodes.items())
        }
        return summary, states

    first, second = run(), run()
    assert first == second
    summary, states = first
    assert summary["nodes"]["votes_merged"] > 0
    assert any(box_users > 0 for _len, box_users, _score in states.values())
