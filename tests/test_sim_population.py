"""The structure-of-arrays population engine vs the reference scheduler.

The production runtime ticks through the SoA scheduler over the
columnar store; :class:`tests.reference_runtime.ReferenceRuntime` is
the executable spec (one ``PeriodicProcess`` per peer per protocol,
dict ballot boxes).  The contract is *bit-identity*: same tick
schedule, same RNG stream consumption, same results — only faster.
These tests pin it at every level: raw jitter arithmetic, the engine
merge order, full-stack runs with churn on and off, and the Fig 5 /
Fig 6 series.
"""

import numpy as np
import pytest

from repro.attacks.spam import FlashCrowd
from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.experience import AdaptiveThresholdExperience
from repro.core.node import NodeConfig
import repro.core.runtime as runtime_mod
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.columnar import RowTable
from repro.core.votes import Vote
from repro.sim.engine import Engine
from repro.sim.population import PopulationEngine
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
from tests.reference_runtime import PeriodicProcess, ReferenceRuntime, population_online
from tests import reference_ballotbox as ballots


# ----------------------------------------------------------------------
# Jitter arithmetic guard
# ----------------------------------------------------------------------
def test_vectorised_jitter_matches_scalar_uniform():
    """The SoA gap formula consumes ``Generator.random()`` doubles and
    must reproduce ``Generator.uniform(-j, +j)`` bit-for-bit, including
    chunked pre-draws — the foundation of schedule bit-identity."""
    jitters = [30.0, 12.0, 90.0, 6.0, 90.0]
    scalar_gen = RngRegistry(7).stream("jitter", "p1")
    scalar = [
        300.0 + scalar_gen.uniform(-j, j) for j in jitters for _ in range(4)
    ]
    chunked_gen = RngRegistry(7).stream("jitter", "p1")
    raw = np.concatenate([chunked_gen.random(4) for _ in range(5)]).tolist()
    vectorised = [
        300.0 + ((-j) + (j + j) * raw[k * 4 + i])
        for k, j in enumerate(jitters)
        for i in range(4)
    ]
    assert scalar == vectorised


@pytest.mark.parametrize("primed", [True, False], ids=["primed", "unprimed"])
def test_jitter_column_draws_the_registry_stream(primed):
    """Chunk after chunk, the doubles refilled through the row's words
    are the ones ``rng.stream("jitter", pid)`` yields — and no
    generator is registered for the stream."""
    rng = RngRegistry(5)
    if primed:
        rng.prime("jitter", ["a", "b"])
    pop = PopulationEngine(Engine(), rng, [("loop", 10.0, lambda pid: None)], 0.2)
    pop.peer_online("a", 0.0)
    pop.peer_online("b", 0.0)
    row = pop.rows.index["b"]
    drawn = [pop._draw(row) for _ in range(3 * 16 + 4)]
    expected = RngRegistry(5).stream("jitter", "b").random(4 * 16)
    assert drawn == expected[1 : 1 + len(drawn)].tolist()  # [0] went to peer_online
    assert rng.streams() == {}


# ----------------------------------------------------------------------
# PopulationEngine unit behaviour
# ----------------------------------------------------------------------
def test_population_engine_basic_ticking():
    eng = Engine()
    hits = []
    pop = PopulationEngine(
        eng,
        RngRegistry(0),
        [("loop", 10.0, lambda pid: hits.append((eng.now, pid)))],
        jitter_fraction=0.1,
    )
    eng.attach_source(pop)
    pop.peer_online("x", 0.0)
    pop.peer_online("y", 0.0)
    eng.run_until(100.0)
    assert len(hits) == 19  # ~10 ticks per peer within 100 s, jittered
    times = [t for t, _pid in hits]
    assert times == sorted(times)
    assert eng.events_fired == 19


def test_population_engine_offline_stops_ticks():
    eng = Engine()
    hits = []
    pop = PopulationEngine(
        eng, RngRegistry(0), [("loop", 10.0, lambda pid: hits.append(pid))]
    )
    eng.attach_source(pop)
    pop.peer_online("x", 0.0)
    eng.run_until(35.0)
    assert hits == ["x", "x", "x"]
    pop.peer_offline("x")
    eng.run_until(100.0)
    assert hits == ["x", "x", "x"]
    assert not population_online(pop, "x")


def test_population_engine_growth_past_one_block():
    """More peers than one 2048-wide index block and one growth step."""
    eng = Engine()
    count = [0]
    pop = PopulationEngine(
        eng, RngRegistry(1), [("loop", 50.0, lambda pid: count.__setitem__(0, count[0] + 1))]
    )
    eng.attach_source(pop)
    n = 3000
    for i in range(n):
        pop.peer_online(f"p{i}", 0.0)
    assert len(pop.rows) == n
    eng.run_until(60.0)
    assert count[0] == n  # each peer ticked exactly once within 50±0 s
    telemetry = pop.telemetry()
    assert telemetry["peers_online"] == n
    assert telemetry["ticks"] == n
    assert telemetry["max_batch_size"] >= 1


def test_population_engine_validation():
    eng = Engine()
    with pytest.raises(ValueError):
        PopulationEngine(eng, RngRegistry(0), [])
    with pytest.raises(ValueError):
        PopulationEngine(eng, RngRegistry(0), [("a", 0.0, lambda pid: None)])
    with pytest.raises(ValueError):
        PopulationEngine(
            eng, RngRegistry(0), [("a", 1.0, lambda pid: None)], jitter_fraction=1.0
        )


def test_attach_source_twice_raises():
    from repro.sim.engine import SimulationError

    eng = Engine()
    pop = PopulationEngine(eng, RngRegistry(0), [("a", 1.0, lambda pid: None)])
    eng.attach_source(pop)
    with pytest.raises(SimulationError):
        eng.attach_source(pop)


def test_ticks_interleave_with_heap_events_in_time_order():
    eng = Engine()
    order = []
    pop = PopulationEngine(
        eng, RngRegistry(0), [("loop", 10.0, lambda pid: order.append(("tick", eng.now)))]
    )
    eng.attach_source(pop)
    pop.peer_online("x", 0.0)
    for t in (5.0, 15.0, 25.0):
        eng.schedule(t, lambda: order.append(("heap", eng.now)))
    eng.run_until(30.0)
    times = [t for _kind, t in order]
    assert times == sorted(times)
    assert [k for k, _t in order].count("heap") == 3


def test_schedule_state_refused_only_from_inside_an_action():
    engine = Engine()
    states = []
    population = PopulationEngine(
        engine,
        RngRegistry(0),
        [("loop", 10.0, lambda pid: states.append(population.schedule_state()))],
        jitter_fraction=0.1,
    )
    engine.attach_source(population)
    for i in range(4):
        population.peer_online(f"p{i}", 0.0)
    # From a heap event that fires while the window is open: allowed.
    engine.schedule_at(10.0, lambda: states.append(population.schedule_state()))
    with pytest.raises(RuntimeError, match="cannot checkpoint mid-batch"):
        engine.run_until(30.0)
    assert states == []  # the first tick's own action was refused
    population._actions[0] = lambda pid: None
    engine.run_until(30.0)
    # ... with part of the window executed and part still pending.
    assert len(states) == 1 and 0 < states[0]["ticks_by_protocol"][0] < 4


# ----------------------------------------------------------------------
# Full-stack equivalence
# ----------------------------------------------------------------------
def always_online_trace(n=8, duration=6 * HOUR):
    peers = {}
    events = []
    for i in range(n):
        pid = f"p{i}"
        peers[pid] = PeerProfile(pid, upload_capacity=200_000.0)
        t0 = float(i)
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


def churn_trace(n=30, duration=6 * HOUR, seed=5):
    return TraceGenerator(
        TraceGeneratorConfig(n_peers=n, duration=duration, n_swarms=4),
        seed=seed,
    ).generate()


def run_stack(runtime_cls, trace, seed=11, hours=6, config_kwargs=None, adaptive=False):
    """One full protocol run on ``runtime_cls`` (production or
    reference); returns (tick log, run_summary minus population,
    per-node fingerprint, population telemetry)."""
    engine = Engine()
    rng = RngRegistry(seed)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=60.0)
    )
    kwargs = dict(
        moderation_interval=120.0,
        vote_interval=120.0,
        bartercast_interval=300.0,
        experience_threshold=1 * MB,
    )
    kwargs.update(config_kwargs or {})
    runtime = runtime_cls(session, rng, config=RuntimeConfig(**kwargs))
    if adaptive:
        runtime.experience = AdaptiveThresholdExperience(
            runtime.bartercast, d_max=0.5, step=1 * MB
        )
    log = []
    gossip = ("_moderation_tick", "_vote_tick", "_bartercast_tick")
    if isinstance(runtime, ReferenceRuntime):
        wrapped = gossip + ("_newscast_tick", "_adaptive_tick")
    else:
        # Every production gossip tick — batched runs and runs of one
        # alike — is an entry of a batch-handler call.
        wrapped = ("_newscast_tick", "_adaptive_tick")
        real_batch = runtime._vote_tick_batch

        def spy(times, pids, rows, protos):
            log.extend(
                (t, gossip[p], pid) for t, pid, p in zip(times, pids, protos)
            )
            return real_batch(times, pids, rows, protos)

        runtime._vote_tick_batch = spy
    for name in wrapped:
        orig = getattr(runtime, name)

        def wrap(orig=orig, name=name):
            def tick(pid):
                log.append((engine.now, name, pid))
                return orig(pid)

            return tick

        setattr(runtime, name, wrap())
    pids = sorted(trace.peers)
    moderator = runtime.ensure_node(pids[0])
    moderator.create_moderation("t-file", "x", now=0.0)
    runtime.ensure_node(pids[1]).set_vote_intention(pids[0], Vote.POSITIVE)
    session.start()
    engine.run_until(hours * HOUR)
    summary = runtime.run_summary()
    population = summary.pop("population")
    states = {
        pid: (
            len(node.store),
            node.ballot_box.num_unique_users(),
            ballots.score(node.ballot_box, pids[0]),
            runtime.registry.is_online(pid),
        )
        for pid, node in sorted(runtime.nodes.items())
    }
    return log, summary, states, population


def assert_engines_equivalent(trace, **kwargs):
    log_o, summary_o, states_o, pop_o = run_stack(ReferenceRuntime, trace, **kwargs)
    log_s, summary_s, states_s, pop_s = run_stack(ProtocolRuntime, trace, **kwargs)
    assert log_o == log_s  # bit-identical tick schedule
    assert summary_o == summary_s
    assert states_o == states_s
    assert pop_o["ticks"] == pop_s["ticks"]
    assert pop_o["ticks_by_protocol"] == pop_s["ticks_by_protocol"]
    assert pop_o["peers_online"] == pop_s["peers_online"]
    return pop_s


def test_engines_identical_under_churn():
    pop = assert_engines_equivalent(churn_trace())
    # Batching actually happened (the point of the SoA engine).
    assert pop["batches"] < pop["ticks"]
    assert pop["mean_batch_size"] > 1.0


def test_engines_identical_always_online():
    assert_engines_equivalent(always_online_trace())


def test_engines_identical_with_newscast_and_message_loss():
    assert_engines_equivalent(
        churn_trace(n=20),
        config_kwargs={"use_newscast": True, "message_loss": 0.1},
    )


def test_engines_identical_with_adaptive_experience_and_fanout():
    assert_engines_equivalent(
        churn_trace(n=20), config_kwargs={"vote_fanout": 3}, adaptive=True
    )


def test_bring_online_external_peer_under_soa():
    trace = always_online_trace(n=4)
    engine = Engine()
    rng = RngRegistry(0)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=60.0)
    )
    runtime = ProtocolRuntime(
        session,
        rng,
        config=RuntimeConfig(
            moderation_interval=120.0,
            vote_interval=120.0,
            bartercast_interval=120.0,
        ),
    )
    session.start()
    engine.run_until(1 * HOUR)
    runtime.bring_online("attacker", engine.now)
    assert runtime.registry.is_online("attacker")
    assert population_online(runtime._population, "attacker")
    engine.run_until(2 * HOUR)
    runtime.take_offline("attacker", engine.now)
    assert not runtime.registry.is_online("attacker")
    assert not population_online(runtime._population, "attacker")


def test_population_telemetry_in_run_summary():
    trace = churn_trace(n=10, duration=2 * HOUR)
    for runtime_cls in (ReferenceRuntime, ProtocolRuntime):
        _log, _summary, _states, pop = run_stack(runtime_cls, trace, hours=2)
        assert pop["ticks"] > 0
        assert pop["batches"] > 0
        assert pop["mean_batch_size"] >= 1.0
        assert pop["max_batch_size"] >= 1
        assert set(pop["ticks_by_protocol"]) == {
            "moderation",
            "vote",
            "bartercast",
        }
        assert sum(pop["ticks_by_protocol"].values()) == pop["ticks"]


def test_runtime_config_validates_population_engine():
    """The two remaining fields accept the production path only."""
    RuntimeConfig(population_engine="soa", columnar_state="on")
    for engine_kind in ("object", "auto", "threads"):
        with pytest.raises(ValueError, match="population_engine='soa'"):
            RuntimeConfig(population_engine=engine_kind)
    for columnar in ("off", "auto"):
        with pytest.raises(ValueError, match="columnar_state='on'"):
            RuntimeConfig(columnar_state=columnar)
    with pytest.raises(TypeError):
        RuntimeConfig(population_engine_threshold=10)


# ----------------------------------------------------------------------
# Figure-level equivalence (satellite: Fig 5 / Fig 6 series)
# ----------------------------------------------------------------------
def _series_arrays(result):
    return {
        key: series.values.copy() for key, series in sorted(result.series.items())
    }


def _run_on(monkeypatch, runtime_cls, experiment):
    """Run ``experiment`` with every stack it builds on ``runtime_cls``."""
    import repro.experiments.common as common

    with monkeypatch.context() as patch:
        patch.setattr(common, "ProtocolRuntime", runtime_cls)
        return experiment.run()


def test_fig6_series_identical_across_engines(monkeypatch):
    from repro.core.node import NodeConfig
    from repro.experiments.vote_sampling import (
        VoteSamplingConfig,
        VoteSamplingExperiment,
    )

    def run(runtime_cls):
        node = NodeConfig(b_min=5, b_max=100, v_max=10, k=3)
        cfg = VoteSamplingConfig(
            seed=3,
            duration=6 * HOUR,
            trace=TraceGeneratorConfig(n_peers=30, n_swarms=4, duration=6 * HOUR),
            node=node,
            runtime=RuntimeConfig(node=node, experience_threshold=5 * MB),
        )
        return _run_on(monkeypatch, runtime_cls, VoteSamplingExperiment(cfg))

    result_object = run(ReferenceRuntime)
    result_soa = run(ProtocolRuntime)
    series_object = _series_arrays(result_object)
    series_soa = _series_arrays(result_soa)
    assert list(series_object) == list(series_soa)
    for key in series_object:
        assert np.array_equal(series_object[key], series_soa[key]), key
    meta_o = result_object.metadata["run_summary"]
    meta_s = result_soa.metadata["run_summary"]
    meta_o.pop("population")
    meta_s.pop("population")
    assert meta_o == meta_s


def test_fig5_series_identical_across_engines(monkeypatch):
    from repro.experiments.experience_formation import (
        ExperienceFormationConfig,
        ExperienceFormationExperiment,
    )

    def run(runtime_cls):
        cfg = ExperienceFormationConfig(
            seed=3,
            duration=6 * HOUR,
            thresholds=(2 * MB, 5 * MB),
            trace=TraceGeneratorConfig(n_peers=25, n_swarms=3, duration=6 * HOUR),
        )
        experiment = ExperienceFormationExperiment(cfg)
        return _run_on(monkeypatch, runtime_cls, experiment)

    series_object = _series_arrays(run(ReferenceRuntime))
    series_soa = _series_arrays(run(ProtocolRuntime))
    assert list(series_object) == list(series_soa)
    for key in series_object:
        assert np.array_equal(series_object[key], series_soa[key]), key


# ----------------------------------------------------------------------
# Batched vote tick (columnar state store)
# ----------------------------------------------------------------------
def _cast_vote_round(runtime, pids, r, now):
    """Round ``r`` of the vote-heavy scenario: every second peer holds
    6–10 votes (round 0; cast times tie on purpose), then at each later
    round changes its mind on its ``r + 1`` oldest votes — which also
    moves them to the head of the exchange order — and votes on one
    moderator nobody has heard of.  One list holds its owner's id,
    put there past ``cast_vote``."""
    mods = [f"mod{j:02d}" for j in range(12)]
    for i, pid in enumerate(pids[::2]):
        node = runtime.ensure_node(pid)
        if r == 0:
            for j in range(6 + i % 5):
                vote = Vote.POSITIVE if (i + j) % 3 else Vote.NEGATIVE
                node.cast_vote(mods[(i + j) % len(mods)], vote, float(j % 3))
            continue
        for entry in node.vote_list.entries()[-(r + 1):]:
            if entry.moderator_id != pid:
                node.cast_vote(entry.moderator_id, Vote(-entry.vote), now)
        node.cast_vote(f"late{r}-{i % 3}", Vote.POSITIVE, now)
    if r == 0:
        runtime.ensure_node(pids[2]).vote_list.cast(pids[2], Vote.POSITIVE, 5.0)


def run_stack_batched(runtime_cls, trace, seed=11, hours=6, config_kwargs=None,
                      adaptive=False, vote_rounds=0):
    """Like :func:`run_stack`, but counting batch-handler invocations
    instead of logging ticks, and comparing on the summary plus *full*
    per-node serialised state.  With ``vote_rounds`` the run is cut
    into that many slices and :func:`_cast_vote_round` casts before
    each."""
    from repro.core.persistence import node_to_dict

    engine = Engine()
    rng = RngRegistry(seed)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=60.0)
    )
    kwargs = dict(
        moderation_interval=120.0,
        vote_interval=120.0,
        bartercast_interval=300.0,
        experience_threshold=1 * MB,
    )
    kwargs.update(config_kwargs or {})
    runtime = runtime_cls(session, rng, config=RuntimeConfig(**kwargs))
    if adaptive:
        runtime.experience = AdaptiveThresholdExperience(
            runtime.bartercast, d_max=0.5, step=1 * MB
        )
    calls = []
    orig_batch = runtime._vote_tick_batch

    def counting_batch(times, pids, rows, protos):
        calls.append(len(pids))
        return orig_batch(times, pids, rows, protos)

    runtime._vote_tick_batch = counting_batch
    pids = sorted(trace.peers)
    runtime.ensure_node(pids[0]).create_moderation("t-file", "x", now=0.0)
    runtime.ensure_node(pids[1]).set_vote_intention(pids[0], Vote.POSITIVE)
    session.start()
    for r in range(vote_rounds):
        _cast_vote_round(runtime, pids, r, engine.now)
        engine.run_until((r + 1) * hours * HOUR / vote_rounds)
    engine.run_until(hours * HOUR)
    summary = runtime.run_summary()
    summary.pop("population")
    states = {
        pid: node_to_dict(node) for pid, node in sorted(runtime.nodes.items())
    }
    return summary, states, calls


@pytest.mark.parametrize(
    "config_kwargs,adaptive,heavy",
    [
        (None, False, None),
        ({"message_loss": 0.1}, False, None),
        ({"experience_threshold": 0.0}, False, None),
        (None, True, None),
        # Vote-heavy (see _cast_vote_round): lists longer than
        # ``votes_per_exchange`` under each selection policy ...
        ({"experience_threshold": 0.0}, False, {"exchange_policy": "recency_random"}),
        ({"experience_threshold": 0.0}, False, {"exchange_policy": "recency"}),
        ({"experience_threshold": 0.0}, False, {"exchange_policy": "random"}),
        # ... a ``b_max`` small enough to evict inside a batch ...
        ({"experience_threshold": 0.0}, False, {"b_min": 2, "b_max": 3}),
        # ... and a real gate: both sides draw their selection whatever
        # the verdicts turn out to be.
        (None, False, {"exchange_policy": "random"}),
    ],
    ids=[
        "base", "message_loss", "fast_experience", "adaptive",
        "heavy_recency_random", "heavy_recency", "heavy_random",
        "heavy_evicting", "heavy_gated",
    ],
)
def test_batched_vote_tick_identical_to_object_engine(
    config_kwargs, adaptive, heavy, monkeypatch
):
    from repro.core.columnar import ColumnarStateStore

    # Which segment paths the columnar run went through.
    seen = set()
    real_update = ColumnarStateStore._seg_update
    real_merge = ColumnarStateStore.bb_merge_packed

    def spy_update(self, box, slot, mids, vals, now):
        before = (int(self.bb_nvotes[box, slot]), int(self.bb_off[box, slot]))
        real_update(self, box, slot, mids, vals, now)
        after = (int(self.bb_nvotes[box, slot]), int(self.bb_off[box, slot]))
        if after == before:
            seen.add("overwrite")
        else:
            seen.add("append" if after[1] == before[1] else "relocate")

    def spy_merge(self, *args):
        evictions = self.bb_evictions
        stored = real_merge(self, *args)
        if self.bb_evictions > evictions:
            seen.add("evict")
        return stored

    monkeypatch.setattr(ColumnarStateStore, "_seg_update", spy_update)
    monkeypatch.setattr(ColumnarStateStore, "bb_merge_packed", spy_merge)
    # 25 peers make short runs: force the column pre-pass onto them.
    monkeypatch.setattr("repro.core.gossip._PREPASS_FROM", 1)
    kwargs = dict(config_kwargs or {})
    vote_rounds = 0
    if heavy is not None:
        kwargs["node"] = NodeConfig(votes_per_exchange=4, **heavy)
        vote_rounds = 3
    trace = churn_trace(n=25)
    summary_o, states_o, calls_o = run_stack_batched(
        ReferenceRuntime, trace, config_kwargs=kwargs, adaptive=adaptive,
        vote_rounds=vote_rounds,
    )
    assert not seen  # dict boxes under the reference
    summary_s, states_s, calls_s = run_stack_batched(
        ProtocolRuntime, trace, config_kwargs=kwargs, adaptive=adaptive,
        vote_rounds=vote_rounds,
    )
    assert summary_o == summary_s
    assert states_o == states_s
    # The reference never batches; the production columnar vote path
    # must actually have carried multi-peer batches.
    assert calls_o == []
    assert calls_s and max(calls_s) >= 2
    if heavy is not None and "experience_threshold" in kwargs:
        assert summary_s["nodes"]["votes_merged"] > 1000
        if heavy.get("b_max") == 3:
            assert "evict" in seen
        elif heavy["exchange_policy"] == "recency":
            # always the 4 newest: a full capacity-4 segment, so every
            # append is also a relocation
            assert {"overwrite", "relocate"} <= seen
        else:
            assert {"overwrite", "append", "relocate"} <= seen


def test_direct_vote_list_cast_reaches_the_batched_tick():
    """Regression: ``vl_size`` was refreshed only by the node's own
    methods, so a ``vote_list.cast`` past ``cast_vote`` (restore paths,
    attackers, tests) left the column at 0 and the batched tick proved
    the exchange empty and skipped it."""
    pids = [f"p{i}" for i in range(8)]
    trace = Trace(
        duration=600.0,
        peers={pid: PeerProfile(peer_id=pid) for pid in pids},
        swarms={},
        events=[],
    )
    engine = Engine()
    rng = RngRegistry(5)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=1e9)
    )
    runtime = ProtocolRuntime(
        session,
        rng,
        config=RuntimeConfig(
            moderation_interval=1e9,
            vote_interval=60.0,
            bartercast_interval=1e9,
            experience_threshold=0.0,
        ),
    )
    batches = []
    real_batch = runtime._vote_tick_batch
    runtime._vote_tick_batch = lambda *a: (batches.append(len(a[1])), real_batch(*a))[1]
    for pid in pids:
        runtime.bring_online(pid, 0.0)
    voter = runtime.nodes["p3"]
    voter.vote_list.cast("some-moderator", Vote.NEGATIVE, 0.0)
    store = runtime._col_store
    assert store.vl_size[voter.row] == len(voter.vote_list) == 1
    session.start()
    engine.run_until(600.0)
    assert max(batches) >= 2
    heard = [
        node.peer_id
        for node in runtime.nodes.values()
        if ballots.vote_of(node.ballot_box, "p3", "some-moderator") is Vote.NEGATIVE
    ]
    assert heard and "p3" not in heard
    assert runtime.run_summary()["nodes"]["votes_merged"] >= len(heard)


def test_batch_handler_contract_violation_raises():
    """A batch handler that schedules an event breaks the dispatch
    bookkeeping; the engine must fail loudly, not corrupt the run."""
    trace = churn_trace(n=15)
    engine = Engine()
    rng = RngRegistry(11)
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

    def rogue_batch(times, pids, rows, protos):
        engine.schedule_at(engine.now + 1.0, lambda: None)

    runtime._vote_tick_batch = rogue_batch
    session.start()
    with pytest.raises(RuntimeError, match="batch protocol handler"):
        engine.run_until(6 * HOUR)


# ----------------------------------------------------------------------
# One gossip batch: moderation, vote and BarterCast entries in one run
# ----------------------------------------------------------------------
def run_gossip_mix(runtime_cls, trace, scenario, seed=11, hours=3):
    """One run with the three gossip loops at one interval, so runs of
    due entries interleave them.  Returns the summary (minus the
    scheduler section), every node's serialised state, every node's RNG
    state, what the batch handler saw (per call, the protocols it
    carried; counts of the interleavings the scenario is about) and
    the scheduler section."""
    from repro.core import node as node_mod
    from repro.core.node import VoteSamplingNode
    from repro.core.persistence import node_to_dict

    engine = Engine()
    rng = RngRegistry(seed)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=60.0)
    )
    kwargs = dict(
        moderation_interval=120.0,
        vote_interval=120.0,
        bartercast_interval=120.0,
        experience_threshold=1 * MB,
    )
    if scenario == "intention_then_vote":
        # The column fast path: an all-accepting gate and no VoxPopuli,
        # so the pre-pass proves vote entries between empty lists
        # inert — until an intention fires inside the run.
        kwargs["experience_threshold"] = 0.0
        kwargs["node"] = NodeConfig(voxpopuli_enabled=False)
    if scenario == "overbudget_interleaved":
        kwargs["node"] = NodeConfig(moderations_per_exchange=2, votes_per_exchange=2)
    if scenario == "message_loss":
        kwargs["message_loss"] = 0.15
    if scenario == "newscast":
        kwargs.update(use_newscast=True, message_loss=0.1)
    if scenario == "fanout":
        kwargs["vote_fanout"] = 3
    if scenario == "crowd":
        # An open gate, so honest boxes take the crowd's list — cut by
        # the receiver-side cap of 2.
        kwargs["experience_threshold"] = 0.0
        kwargs["node"] = NodeConfig(votes_per_exchange=2)
    runtime = runtime_cls(session, rng, config=RuntimeConfig(**kwargs))
    if scenario == "adaptive":
        runtime.experience = AdaptiveThresholdExperience(
            runtime.bartercast, d_max=0.3, step=1 * MB
        )
    seen = {"protocols": [], "cast_then_vote": 0, "extract_draws": 0}
    run = {}  # the handler call in progress
    real_batch = runtime._vote_tick_batch

    def spy(times, pids, rows, protos):
        seen["protocols"].append(set(protos))
        run.update(times=times, pids=pids, protos=protos)
        try:
            return real_batch(times, pids, rows, protos)
        finally:
            run.clear()

    runtime._vote_tick_batch = spy
    real_cast = VoteSamplingNode.cast_vote
    real_select = node_mod.select_moderations

    def cast_vote(node, moderator_id, vote, now):
        if run:
            # A cast inside a run: does the caster's own vote tick come
            # later in the same run?
            seen["cast_then_vote"] += any(
                pid == node.peer_id and p == runtime_mod._VOTE and t > now
                for t, pid, p in zip(run["times"], run["pids"], run["protos"])
            )
        return real_cast(node, moderator_id, vote, now)

    def select_moderations(eligible, max_items, node_rng):
        if run and len(eligible) > max_items:
            seen["extract_draws"] += 1
        return real_select(eligible, max_items, node_rng)

    pids = sorted(trace.peers)
    moderators = pids[:3]
    for m in moderators:
        for t in range(3):
            runtime.ensure_node(m).create_moderation(f"t-{m}-{t}", "x", now=0.0)
    for i, pid in enumerate(pids[3:]):
        node = runtime.ensure_node(pid)
        for j, m in enumerate(moderators):
            # Intentions fire as ModerationCast brings each moderator's
            # metadata; a third of them disapprove (and purge).
            vote = Vote.NEGATIVE if (i + j) % 3 == 0 else Vote.POSITIVE
            node.set_vote_intention(m, vote)
        if scenario == "overbudget_interleaved" and i % 2 == 0:
            for j in range(4):
                node.cast_vote(f"other{j}", Vote.POSITIVE, 0.0)
    if scenario == "crowd":
        crowd = FlashCrowd(runtime, size=6, decoys=["x1", "x2", "x3"])
        crowd.arrive(0.0)

        def depart(now):
            for pid in crowd.members:
                runtime.take_offline(pid, now)

        engine.schedule_at(1.5 * HOUR, depart, 1.5 * HOUR)
        engine.schedule_at(2.0 * HOUR, crowd.arrive, 2.0 * HOUR)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(VoteSamplingNode, "cast_vote", cast_vote)
        patch.setattr(node_mod, "select_moderations", select_moderations)
        session.start()
        engine.run_until(hours * HOUR)
    summary = runtime.run_summary()
    population = summary.pop("population")
    states = {pid: node_to_dict(node) for pid, node in sorted(runtime.nodes.items())}
    rngs = {
        pid: node.rng.bit_generator.state for pid, node in sorted(runtime.nodes.items())
    }
    return summary, states, rngs, seen, population


@pytest.mark.parametrize("prepass_from", [1, None], ids=["prepass", "live"])
@pytest.mark.parametrize(
    "scenario",
    [
        "intention_then_vote",
        "overbudget_interleaved",
        "message_loss",
        "adaptive",
        "newscast",
        "fanout",
        "crowd",
    ],
)
def test_gossip_batch_identical_to_reference(scenario, prepass_from, monkeypatch):
    """Moderation, vote and BarterCast entries share one batch handler
    call; every exchange, draw and counter must land as the reference's
    per-peer processes and scalar ticks put them — with and without the
    vote slots' column pre-pass (small runs skip it), on Newscast, at a
    vote fan-out of 3 and with a flash crowd of behaviour rows."""
    if prepass_from is not None:
        monkeypatch.setattr("repro.core.gossip._PREPASS_FROM", prepass_from)
    trace = churn_trace(n=25)
    ref = run_gossip_mix(ReferenceRuntime, trace, scenario)
    got = run_gossip_mix(ProtocolRuntime, trace, scenario)
    summary_o, states_o, rngs_o, seen_o, population_o = ref
    summary_s, states_s, rngs_s, seen_s, population = got
    assert summary_o == summary_s
    assert states_o == states_s
    assert rngs_o == rngs_s
    assert population_o["ticks_by_protocol"] == population["ticks_by_protocol"]
    assert seen_o["protocols"] == []  # the reference never batches
    assert max(len(protocols) for protocols in seen_s["protocols"]) >= 2
    assert 0 < population["batch_calls"] < population["ticks"]
    if scenario == "intention_then_vote":
        assert seen_s["cast_then_vote"] > 0
    elif scenario == "overbudget_interleaved":
        assert seen_s["extract_draws"] > 0
        assert summary_s["nodes"]["votes_merged"] > 0
    elif scenario == "message_loss":
        assert summary_s["dropped_exchanges"] > 0
    elif scenario == "newscast":
        assert summary_s["traffic"]["newscast"]["exchanges"] > 0
        assert summary_s["dropped_exchanges"] > 0
    elif scenario == "fanout":
        vote_ticks = population["ticks_by_protocol"]["vote"]
        assert summary_s["traffic"]["ballotbox"]["exchanges"] > vote_ticks
    elif scenario == "crowd":
        nodes = summary_s["nodes"]
        assert nodes["votes_truncated"] > 0 and nodes["votes_merged"] > 0
        assert summary_s["traffic"]["voxpopuli"]["exchanges"] > 0


def _fig8_crowd():
    from repro.experiments.spam_attack import SpamAttackConfig, SpamAttackExperiment

    duration = 2.0 * HOUR
    return SpamAttackExperiment(
        SpamAttackConfig(
            seed=7,
            duration=duration,
            core_size=8,
            crowd_size=12,
            crowd_slanders_honest=True,
            trace=TraceGeneratorConfig(n_peers=30, n_swarms=3, duration=duration),
        )
    )


def _fig6_runtime(**runtime_kwargs):
    from repro.experiments.vote_sampling import (
        VoteSamplingConfig,
        VoteSamplingExperiment,
    )

    duration = 2.0 * HOUR
    base = VoteSamplingConfig(
        seed=7,
        duration=duration,
        trace=TraceGeneratorConfig(n_peers=30, n_swarms=3, duration=duration),
    )
    runtime = RuntimeConfig(
        node=base.node, experience_threshold=base.experience_threshold, **runtime_kwargs
    )
    return VoteSamplingExperiment(
        VoteSamplingConfig(**{**base.__dict__, "runtime": runtime})
    )


@pytest.mark.parametrize(
    "experiment",
    [
        _fig8_crowd,
        lambda: _fig6_runtime(use_newscast=True),
        lambda: _fig6_runtime(vote_fanout=4),
    ],
    ids=["fig8_crowd", "a3_newscast", "a9_fanout4"],
)
def test_every_gossip_tick_goes_through_the_batch_handler(experiment, monkeypatch):
    """The shapes that used to tick scalar — a flash crowd, Newscast, a
    vote fan-out — dispatch every moderation, vote and BarterCast tick
    as an entry of a ``_vote_tick_batch`` call."""
    entries = {}
    real_batch = ProtocolRuntime._vote_tick_batch

    def spy(runtime, times, pids, rows, protos):
        counts = entries.setdefault(runtime, [0, 0, 0])
        for p in protos:
            counts[p] += 1
        return real_batch(runtime, times, pids, rows, protos)

    monkeypatch.setattr(ProtocolRuntime, "_vote_tick_batch", spy)
    experiment().run()
    ((runtime, counts),) = entries.items()
    ticks = runtime.population_summary()["ticks_by_protocol"]
    assert counts == [ticks["moderation"], ticks["vote"], ticks["bartercast"]]
    assert min(counts) > 0
    if runtime._col_store.behaviour:
        assert len(runtime._col_store.behaviour) == 12


# ----------------------------------------------------------------------
# The resumable tick window under adversarial interleavings
# ----------------------------------------------------------------------
_WINDOW_PROTOCOLS = (("a", 10.0), ("b", 10.0), ("c", 35.0))


class _Interleaver:
    """One scheduler (object ``PeriodicProcess`` loops or the SoA
    engine) driven by a fixed script of heap events, with tick actions
    that themselves schedule events and flip peers.  Everything the
    script and the actions decide is a function of the run so far, so
    two correct schedulers produce the same run."""

    def __init__(self, kind, seed, jitter, script):
        self.kind = kind
        self.engine = Engine()
        self.rng = RngRegistry(seed)
        self.jitter = jitter
        self.log = []
        self.online = set()
        self.known = []  # peers in first-online order
        self.ticks = 0
        self.coverage = dict.fromkeys(
            (
                "pending_offline",
                "same_window_return",
                "horizon_lowered",
                "before_head",
                "by_action",
            ),
            0,
        )
        self._offlined_in = {}  # peer -> the window it went offline under
        self.pop = None
        self.procs = {}
        if kind == "soa":
            self._attach_scheduler(RowTable())
        for time, prio, op, pid, spawn_at in script:
            if spawn_at is None:
                self.engine.schedule_at(time, self._apply, op, pid, priority=prio)
            else:  # claimed late: a larger seq than the ticks it ties with
                self.engine.schedule_at(
                    spawn_at, self._spawn, time, prio, op, pid
                )

    def _attach_scheduler(self, rows):
        self.pop = PopulationEngine(
            self.engine,
            self.rng,
            [
                (name, interval, lambda pid, name=name: self._tick(name, pid))
                for name, interval in _WINDOW_PROTOCOLS
            ],
            jitter_fraction=self.jitter,
            rows=rows,
        )
        self.engine._source = None
        self.engine.attach_source(self.pop)

    def _reload_scheduler(self):
        """A checkpoint: dump the scheduler (which closes the open
        window) and carry on with a fresh one loaded from the dump."""
        state = self.pop.schedule_state()
        rows = RowTable()
        for pid in self.pop.rows.ids:
            rows.row(pid)
        self._attach_scheduler(rows)
        self.pop.restore_schedule_state(state)

    def _spawn(self, time, prio, op, pid):
        self.engine.schedule_at(time, self._apply, op, pid, priority=prio)

    def _apply(self, op, pid):
        if op == "on":
            self.set_online(pid)
        elif op == "off":
            self.set_offline(pid)
        elif op == "toggle":
            (self.set_offline if pid in self.online else self.set_online)(pid)

    def set_online(self, pid):
        if pid in self.online:
            return
        self.online.add(pid)
        if pid not in self.known:
            self.known.append(pid)
        now = self.engine.now
        if self.pop is None:
            procs = self.procs.get(pid)
            if procs is None:
                stream = self.rng.stream("jitter", pid)
                procs = self.procs[pid] = [
                    PeriodicProcess(
                        self.engine,
                        interval,
                        lambda name=name: self._tick(name, pid),
                        jitter=interval * self.jitter,
                        rng=stream if self.jitter else None,
                    )
                    for name, interval in _WINDOW_PROTOCOLS
                ]
            for proc in procs:
                proc.start()
            return
        win = self.pop._win
        if win is None or win.k == win.n:
            self.pop.peer_online(pid, now)
            return
        if self._offlined_in.get(pid) is win:
            self.coverage["same_window_return"] += 1
        head, horizon = win.t[win.k], win.horizon
        self.pop.peer_online(pid, now)
        row = self.pop.rows.index[pid]
        first = min(float(col[row]) for col in self.pop._next)
        if first < horizon:
            # (c) the horizon-lowering rule: the window keeps nothing
            # that the newcomer's first tick should precede
            assert win.horizon == first
            assert all(t < first for t in win.t[win.k : win.n])
            self.coverage["horizon_lowered"] += 1
            if first < head:
                assert win.n == win.k
                self.coverage["before_head"] += 1

    def set_offline(self, pid):
        if pid not in self.online:
            return
        self.online.discard(pid)
        if self.pop is None:
            for proc in self.procs[pid]:
                proc.stop()
            return
        win = self.pop._win
        if win is not None:
            self._offlined_in[pid] = win
            if self.pop.rows.index[pid] in win.row[win.k : win.n]:
                self.coverage["pending_offline"] += 1
        self.pop.peer_offline(pid)

    def _tick(self, name, pid):
        now = self.engine.now
        self.log.append((now, name, pid))
        self.ticks += 1
        n = self.ticks
        target = self.known[n % len(self.known)]
        if n % 7 == 3:
            # (d) an event scheduled by a tick's own action, mid-slice
            self.coverage["by_action"] += 1
            self.engine.schedule_at(
                now + (0.0, 0.25, 2.0, 6.5)[n % 4],
                self._apply,
                "toggle",
                target,
                priority=(-1, 0, 10)[n % 3],
            )
        elif n % 11 == 5 and target != pid:
            # churn straight from inside the action
            self._apply("toggle", target)

    def next_draws(self, pid, count=2 * 16 + 3):
        """The peer's next jitter doubles — equal iff the two
        schedulers left its stream at the same position."""
        if self.pop is None:
            return self.rng.stream("jitter", pid).random(count).tolist()
        row = self.pop.rows.index[pid]
        return [self.pop._draw(row) for _ in range(count)]

    def run(self, until, slices=1, checkpoint=False):
        for i in range(1, slices + 1):
            self.engine.run_until(until * i / slices)
            if checkpoint and self.pop is not None:
                self._reload_scheduler()
        if self.pop is not None:
            self.pop.schedule_state()
        return self


def _random_script(rnd, until):
    """Heap events at priorities -1/0/+10: peers going offline and
    (often) returning within a few seconds, brand-new arrivals."""
    script = [(rnd.uniform(0.0, 2.0), 0, "on", f"p{i}", None) for i in range(3)]
    t, fresh = 3.0, 0
    while True:
        t += rnd.expovariate(1 / 5.0)
        if t >= until:
            return script
        prio = rnd.choice((-1, 0, 10))
        r = rnd.random()
        if r < 0.35:
            pid = f"p{rnd.randrange(3)}"
            script.append((t, prio, "off", pid, None))
            if rnd.random() < 0.7:
                script.append((t + rnd.uniform(0.0, 4.0), prio, "on", pid, None))
        elif r < 0.5:
            script.append((t, prio, "on", f"p{rnd.randrange(3)}", None))
        else:
            fresh += 1
            script.append((t, prio, "on", f"n{fresh}", None))
            if rnd.random() < 0.5:
                script.append(
                    (t + rnd.uniform(5.0, 40.0), prio, "off", f"n{fresh}", None)
                )


def _add_tick_ties(rnd, seed, jitter, script, until, rounds=6):
    """(e) events that share a timestamp with a tick.  The reference
    run says when ticks fire; each round ties one event to a tick later
    than the previous tie and re-runs, because the event changes what
    follows.  Ties scheduled up front sort before the tick at priority
    0 (smaller seq), ties scheduled by a late spawner after it."""
    script = list(script)
    after, ties = 0.0, 0
    for _ in range(rounds):
        log = _Interleaver("object", seed, jitter, script).run(until).log
        later = [entry for entry in log if entry[0] > after + 1.0]
        if not later:
            break
        t, _name, pid = later[rnd.randrange(min(8, len(later)))]
        spawn_at = t - 0.5 if rnd.random() < 0.5 else None
        op = rnd.choice(("off", "toggle", "noop"))
        script.append((t, (-1, 0, 10)[ties % 3], op, pid, spawn_at))
        after, ties = t, ties + 1
    return script, ties


@pytest.mark.parametrize("jitter", [0.3, 0.0], ids=["jitter", "lockstep"])
def test_window_matches_object_engine_under_adversarial_interleavings(jitter):
    import random

    until = 150.0
    coverage = {}
    ties = windows = ticks = 0
    for seed in range(25):
        rnd = random.Random(seed)
        script, n_ties = _add_tick_ties(
            rnd, seed, jitter, _random_script(rnd, until), until
        )
        ties += n_ties
        reference = _Interleaver("object", seed, jitter, script).run(until)
        assert len(reference.log) > 50
        draws = {pid: reference.next_draws(pid) for pid in reference.known}
        for slices, checkpoint in ((1, False), (4, False), (7, True)):
            soa = _Interleaver("soa", seed, jitter, script).run(
                until, slices=slices, checkpoint=checkpoint
            )
            assert soa.log == reference.log, (seed, slices)
            assert soa.engine.events_fired == reference.engine.events_fired
            assert soa.engine._seq == reference.engine._seq
            assert soa.known == reference.known
            for pid in reference.known:
                assert soa.next_draws(pid) == draws[pid], pid
            for key, count in soa.coverage.items():
                coverage[key] = coverage.get(key, 0) + count
            windows += soa.pop.batches
            ticks += len(soa.log)
    # Windows outlive heap events: far fewer extractions than ticks.
    assert windows * 3 < ticks
    # Every interleaving the window has a rule for actually happened.
    assert ties >= 25 * 3
    if not jitter:
        # a lockstep newcomer ticks a full interval out: never first
        assert coverage.pop("before_head") == 0
    assert all(count > 0 for count in coverage.values()), coverage
