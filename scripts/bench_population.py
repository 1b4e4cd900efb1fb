#!/usr/bin/env python
"""Population-engine benchmark: object heap entries vs columnar batches.

Three sections:

* **engine_identity** — a churny full-stack run (40 peers, 6 h) under
  both tick schedulers, logging every protocol tick fired: the
  ``(time, protocol, peer)`` schedule, the ``run_summary()`` (minus
  its ``population`` section, which describes the scheduler itself)
  and per-node end states must be **bit-identical**.  Always gated.
* **peers_per_sec** — scheduler capacity at 50 k peers with a
  null-action protocol: per-peer :class:`PeriodicProcess` heap entries
  vs one :class:`PopulationEngine` batch source, both drawing the same
  per-peer jitter streams.  Tick counts must agree exactly (always
  gated); the SoA engine must beat the object engine by
  ``--min-speedup`` (default 5×) on multi-core runners — single-core
  boxes log a skip, like the other speedup gates.
* **columnar_state** — the real vote-exchange protocol at 50 k peers
  (5 % voters, the paper's voter density) under three configurations:
  the object scheduler, the PR-6 SoA scheduler with per-node dict
  state, and the SoA scheduler with the columnar state store driving
  the batched vote tick.  All three must produce bit-identical run
  summaries and per-node end states (always gated); the columnar path
  must beat the dict-state SoA path by ``--min-columnar-speedup``
  (default 2×) per tick — gated unconditionally, since the legs run
  sequentially on one core either way.  Also records the ballot-state
  memory comparison and the ``population_engine="auto"`` crossover
  (auto must resolve to the object engine below the threshold, so it
  never picks a slower configuration at small N).
* **columnar_payloads** — the packed vote-payload layout vs dict-state
  SoA on a vote-heavy 20 k-peer scenario (25 % voters, 30 votes each):
  bit-identical summaries + strided per-node states (always gated), a
  ``--min-payload-memory-ratio`` (default 3×) reduction in *measured*
  retained ballot memory, and a recorded (not gated) speedup of the
  vectorised adaptive-T dispersion scan, whose floats must match the
  scalar loop exactly.
* **service** — the long-lived service mode (``repro.sim.service``)
  at smoke scale: one shard run uninterrupted (in process, writing a
  checkpoint per interval) versus the same shard run under the
  supervisor, SIGKILLed mid-run and restarted from its last
  checkpoint.  Gated: the killed-and-restored shard's final identity
  state (summaries minus cache/memory telemetry, plus every node's
  full state including RNG positions) must be **bit-identical** to the
  uninterrupted run, and total checkpoint wall time must stay under
  ``--max-checkpoint-overhead`` (default 2 %; measured ≈ 1 %) of the
  shard's wall-clock.  Recorded: one checkpoint's bytes per peer and
  write/restore milliseconds at 200 and at 20 000 peers.
* **aggregation** — the inter-shard DHT aggregation path
  (``repro.sim.aggregation``) at smoke scale: a 4-shard lockstep
  cluster exchanging ballot digests over the Chord ring.  Gated: (a) a
  shard discarded after a checkpoint and restored from disk replays
  **bit-identically** against the never-interrupted cluster — for all
  four shards, since aggregation couples them; (b) the aggregated
  cluster's worst cross-shard top-K rank distance must land strictly
  below the isolated-shard baseline (shards that never exchange
  digests), at no more than ``--max-dht-messages-per-digest`` routed
  DHT messages per digest published or pulled.
* **million_peer_smoke** (``--full`` only) — a 1 000 000-peer churn
  trace run end-to-end through the real protocol stack under the SoA
  engine: completion is the gate, peers/sec is the trajectory metric.

Results land in ``BENCH_population.json`` at the repo root.  Sections
are **merged** into an existing file, so the committed ``--full``
million-peer numbers survive quick ``--check`` runs.

Usage::

    PYTHONPATH=src python scripts/bench_population.py [--full] [--check]
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.node import NodeConfig
from repro.core.persistence import node_to_dict
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.sim.engine import Engine
from repro.sim.population import PopulationEngine
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngRegistry
from repro.sim.units import HOUR, MB
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.model import PeerProfile, Trace

REPO_ROOT = Path(__file__).resolve().parent.parent

_TICK_NAMES = (
    "_moderation_tick",
    "_vote_tick",
    "_bartercast_tick",
    "_newscast_tick",
    "_adaptive_tick",
)


def _full_stack_run(engine_kind: str, trace, seed: int, hours: float):
    """One protocol run with every tick logged; returns
    ``(schedule, summary-minus-population, states, wall, telemetry)``."""
    engine = Engine()
    rng = RngRegistry(seed)
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
            experience_threshold=1 * MB,
            population_engine=engine_kind,
        ),
    )
    schedule = []
    for name in _TICK_NAMES:
        orig = getattr(runtime, name)

        def wrap(orig=orig, name=name):
            def tick(pid):
                schedule.append((engine.now, name, pid))
                return orig(pid)

            return tick

        setattr(runtime, name, wrap())
    pids = sorted(trace.peers)
    runtime.ensure_node(pids[0]).create_moderation("t-file", "x", now=0.0)
    runtime.ensure_node(pids[1]).set_vote_intention(pids[0], Vote.POSITIVE)
    t0 = time.perf_counter()
    session.start()
    engine.run_until(hours * HOUR)
    wall = time.perf_counter() - t0
    summary = runtime.run_summary()
    telemetry = summary.pop("population")
    states = {
        pid: (
            len(node.store),
            node.ballot_box.num_unique_users(),
            node.ballot_box.score(pids[0]),
            node.online,
        )
        for pid, node in sorted(runtime.nodes.items())
    }
    return schedule, summary, states, wall, telemetry


def bench_engine_identity(seed: int) -> dict:
    """Full-stack bit-identity between the two tick schedulers."""
    hours = 6.0
    trace = TraceGenerator(
        TraceGeneratorConfig(n_peers=40, n_swarms=5, duration=hours * HOUR),
        seed=seed,
    ).generate()
    sched_o, sum_o, states_o, wall_o, _tel_o = _full_stack_run(
        "object", trace, seed, hours
    )
    sched_s, sum_s, states_s, wall_s, tel_s = _full_stack_run(
        "soa", trace, seed, hours
    )
    return {
        "n_peers": len(trace.peers),
        "duration_hours": hours,
        "ticks": len(sched_o),
        "schedule_bit_identical": sched_o == sched_s,
        "summary_bit_identical": sum_o == sum_s,
        "states_bit_identical": states_o == states_s,
        "object_wall_s": round(wall_o, 2),
        "soa_wall_s": round(wall_s, 2),
        "soa_batches": tel_s["batches"],
        "soa_mean_batch_size": tel_s["mean_batch_size"],
    }


def bench_peers_per_sec(seed: int, n_peers: int = 50_000) -> dict:
    """Null-action scheduler capacity: 50 k always-online peers, one
    60 s protocol, 600 s simulated.  Both legs draw identical jitter
    streams, so they execute identical tick schedules.

    Setup (per-peer RNG stream creation plus first-tick scheduling —
    paid identically by both legs, dominated by ``RngRegistry.stream``)
    is timed separately from the run phase; the gated metric is
    **peers/sec** over the run phase — peers advanced through one
    protocol interval per wall-clock second (= ticks/sec here, one
    tick per peer-interval).
    """
    interval, window = 60.0, 600.0
    jitter_fraction = 0.1

    def null_action(_pid=None):
        pass

    # Object leg: one PeriodicProcess heap entry per peer, exactly the
    # per-peer machinery ProtocolRuntime uses.
    eng_o = Engine()
    reg_o = RngRegistry(seed)
    t0 = time.perf_counter()
    procs = []
    for i in range(n_peers):
        proc = PeriodicProcess(
            eng_o,
            interval,
            null_action,
            jitter=interval * jitter_fraction,
            rng=reg_o.stream("jitter", f"p{i}"),
        )
        proc.start()
        procs.append(proc)
    setup_o = time.perf_counter() - t0
    t0 = time.perf_counter()
    eng_o.run_until(window)
    wall_o = time.perf_counter() - t0
    ticks_o = eng_o.events_fired

    # SoA leg: the same peers, intervals and jitter streams through one
    # columnar population source.
    eng_s = Engine()
    reg_s = RngRegistry(seed)
    t0 = time.perf_counter()
    pop = PopulationEngine(
        eng_s,
        reg_s,
        [("null", interval, null_action)],
        jitter_fraction=jitter_fraction,
    )
    eng_s.attach_source(pop)
    for i in range(n_peers):
        pop.peer_online(f"p{i}", 0.0)
    setup_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    eng_s.run_until(window)
    wall_s = time.perf_counter() - t0
    ticks_s = eng_s.events_fired

    cpu = os.cpu_count() or 1
    return {
        "n_peers": n_peers,
        "interval_s": interval,
        "window_s": window,
        "object_ticks": ticks_o,
        "soa_ticks": ticks_s,
        "ticks_identical": ticks_o == ticks_s,
        "object_setup_s": round(setup_o, 2),
        "soa_setup_s": round(setup_s, 2),
        "object_wall_s": round(wall_o, 2),
        "soa_wall_s": round(wall_s, 2),
        "object_peers_per_s": round(ticks_o / wall_o),
        "soa_peers_per_s": round(ticks_s / wall_s),
        "speedup": round(wall_o / wall_s, 2),
        "soa_batches": pop.batches,
        "soa_mean_batch_size": round(pop.telemetry()["mean_batch_size"], 1),
        "cpu_count": cpu,
        "speedup_gate_active": cpu >= 2,
    }


def _columnar_scenario(n_peers: int, window: float):
    """Synthetic steady-state vote-exchange population.

    Everyone online from t=0, no churn and no transfers: the run is
    pure vote ticks, which is the path the columnar store exists to
    accelerate.  VoxPopuli is off because it is a bootstrap mechanism
    and this scenario benchmarks the steady-state exchange.
    """
    peers = {f"p{i:05d}": PeerProfile(peer_id=f"p{i:05d}") for i in range(n_peers)}
    return Trace(duration=window, peers=peers, swarms={}, events=[])


def _columnar_stack_leg(
    engine_kind: str,
    columnar: str,
    seed: int,
    n_peers: int,
    window: float,
    voter_every: int = 20,
    votes_per_voter: int = 3,
    n_mods: int = 20,
    v_max: int = 10,
):
    """One full-stack vote-exchange run; returns
    ``(run_wall, ticks, summary_sha, states_sha, runtime)`` — the
    runtime rides along so memory legs can measure the retained stack
    before it is collected.

    The default shape is the columnar_state scenario (5 % voters, the
    paper's density, 3 votes each over 20 moderators); the payload
    sections pass a vote-heavy shape instead.
    """
    gc.collect()
    engine = Engine()
    rng = RngRegistry(seed)
    trace = _columnar_scenario(n_peers, window)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=1e9)
    )
    runtime = ProtocolRuntime(
        session,
        rng,
        config=RuntimeConfig(
            node=NodeConfig(
                b_min=1, b_max=10, v_max=v_max, voxpopuli_enabled=False
            ),
            moderation_interval=1e9,
            vote_interval=60.0,
            bartercast_interval=1e9,
            experience_threshold=0.0,
            population_engine=engine_kind,
            columnar_state=columnar,
        ),
    )
    pids = sorted(trace.peers)
    mods = pids[:n_mods]
    for i, pid in enumerate(pids):
        node = runtime.ensure_node(pid)
        if i % voter_every == 0:
            for j in range(votes_per_voter):
                m = mods[(i + j) % n_mods]
                if m != pid:
                    node.cast_vote(
                        m,
                        Vote.POSITIVE if (i + j) % 3 else Vote.NEGATIVE,
                        0.0,
                    )
        runtime.bring_online(pid, 0.0)
    session.start()
    t0 = time.perf_counter()
    engine.run_until(window)
    wall = time.perf_counter() - t0
    summary = runtime.run_summary()
    summary.pop("population")  # describes the scheduler itself
    summary_sha = hashlib.sha1(
        json.dumps(summary, sort_keys=True).encode()
    ).hexdigest()[:16]
    # Strided per-peer end states: the full serialised node (votes,
    # ballot box incl. recency order, store, counters) every 997 peers.
    fp = hashlib.sha1()
    for pid in pids[::997]:
        fp.update(
            json.dumps(node_to_dict(runtime.nodes[pid]), sort_keys=True).encode()
        )
    ticks = runtime.population_summary()["ticks"]
    return wall, ticks, summary_sha, fp.hexdigest()[:16], runtime


def _ballot_memory(seed: int, n_peers: int = 20_000, window: float = 300.0) -> dict:
    """Full-stack retained/peak memory of the dict-state vs columnar
    SoA runs (smaller population: tracemalloc roughly doubles the wall
    cost, so the timing legs stay untraced).  Alongside the tracemalloc
    whole-stack numbers, each leg reports its *measured* ballot-box
    bytes (``ProtocolRuntime.ballot_memory_bytes``) so the dict-era
    payload dicts and the packed slabs are compared like-for-like."""
    out = {"n_peers": n_peers, "window_s": window}
    for columnar in ("off", "on"):
        gc.collect()
        tracemalloc.start()
        _wall, _ticks, _sum, _states, runtime = _columnar_stack_leg(
            "soa", columnar, seed, n_peers, window
        )
        gc.collect()
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        out[f"soa_{columnar}_retained_mb"] = round(current / 1e6, 1)
        out[f"soa_{columnar}_peak_mb"] = round(peak / 1e6, 1)
        out[f"soa_{columnar}_ballot_mb"] = round(
            runtime.ballot_memory_bytes() / 1e6, 2
        )
        if runtime._col_store is not None:
            out["columns_mb"] = round(runtime._col_store.memory_bytes() / 1e6, 1)
        del runtime
    out["peak_saved_mb"] = round(out["soa_off_peak_mb"] - out["soa_on_peak_mb"], 1)
    out["retained_saved_mb"] = round(
        out["soa_off_retained_mb"] - out["soa_on_retained_mb"], 1
    )
    return out


def bench_columnar_state(seed: int, n_peers: int = 50_000) -> dict:
    """Tentpole gate: the columnar batched vote tick vs the PR-6 SoA
    path, on the real protocol stack.

    The object leg runs once for context; the (soa, dict-state) vs
    (soa, columnar) pair runs twice and the gate takes the **max**
    speedup across trials — per-tick walls on shared runners swing by
    2× between identical runs, and the gate asks whether the columnar
    path *can* hit the ratio, not whether the box was quiet.
    """
    window = 600.0
    legs = {}
    trials = []
    for trial in range(2):
        for kind, col in (("object", "off"), ("soa", "off"), ("soa", "on")):
            if kind == "object" and trial > 0:
                continue  # context only; not part of the gated ratio
            wall, ticks, summary_sha, states_sha, _rt = _columnar_stack_leg(
                kind, col, seed, n_peers, window
            )
            del _rt  # timing legs do not hold the stack alive
            legs.setdefault((kind, col), []).append(
                (wall, ticks, summary_sha, states_sha)
            )
        off = legs[("soa", "off")][trial]
        on = legs[("soa", "on")][trial]
        trials.append(
            {
                "soa_us_per_tick": round(1e6 * off[0] / off[1], 2),
                "columnar_us_per_tick": round(1e6 * on[0] / on[1], 2),
                "speedup": round(off[0] / on[0], 2),
            }
        )
    all_runs = [run for runs in legs.values() for run in runs]
    ticks = all_runs[0][1]
    obj = legs[("object", "off")][0]
    return {
        "n_peers": n_peers,
        "window_s": window,
        "voter_fraction": 0.05,
        "ticks": ticks,
        "ticks_identical": all(r[1] == ticks for r in all_runs),
        "summary_bit_identical": len({r[2] for r in all_runs}) == 1,
        "states_bit_identical": len({r[3] for r in all_runs}) == 1,
        "object_us_per_tick": round(1e6 * obj[0] / obj[1], 2),
        "trials": trials,
        "speedup": max(t["speedup"] for t in trials),
        "speedup_vs_object": round(
            obj[0] / min(legs[("soa", "on")][t][0] for t in range(2)), 2
        ),
        "ballot_memory": _ballot_memory(seed),
        "auto_crossover": _auto_crossover(seed),
    }


def _dispersion_scan(seed: int) -> dict:
    """Adaptive-T dispersion microbench: one big ballot box (every
    moderator contested by many voters) read through the scalar
    ``all_counts`` loop (dict backing) and the vectorised bincount
    scan (packed columnar backing).  The two must return bit-identical
    floats; the speedup is recorded, not gated (single scans are
    noisy at the microsecond scale)."""
    import random as _random

    from repro.core.ballotbox import BallotBox
    from repro.core.columnar import ColumnarBallotBox, ColumnarStateStore
    from repro.core.experience import AdaptiveThresholdExperience
    from repro.core.votes import VoteEntry

    rng = _random.Random(seed)
    n_voters, n_mods, votes_each = 300, 200, 40
    store = ColumnarStateStore()
    ref = BallotBox(b_max=n_voters)
    col = ColumnarBallotBox(store, store.ensure_row("owner"), n_voters)
    for v in range(n_voters):
        entries = [
            VoteEntry(
                f"m{j}",
                Vote.POSITIVE if rng.random() < 0.6 else Vote.NEGATIVE,
                0.0,
            )
            for j in rng.sample(range(n_mods), votes_each)
        ]
        now = float(v)
        ref.merge(f"v{v}", entries, now)
        col.merge(f"v{v}", list(entries), now)
    d_ref = AdaptiveThresholdExperience.dispersion(ref)
    d_col = AdaptiveThresholdExperience.dispersion(col)
    reps = 200
    t0 = time.perf_counter()
    for _ in range(reps):
        ref.dispersion()
    scalar_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        col.dispersion()
    vector_wall = time.perf_counter() - t0
    return {
        "voters": n_voters,
        "moderators": n_mods,
        "total_votes": ref.total_votes(),
        "identical": d_ref == d_col,
        "scalar_us": round(1e6 * scalar_wall / reps, 1),
        "vector_us": round(1e6 * vector_wall / reps, 1),
        "speedup": round(scalar_wall / vector_wall, 1),
    }


def bench_columnar_payloads(seed: int, n_peers: int = 20_000) -> dict:
    """Packed-payload gate: dict-state vs packed columnar ballot
    payloads on a vote-heavy scenario (25 % voters, 30 votes each over
    60 moderators — boxes actually fill with votes, unlike the sparse
    columnar_state shape).

    Gates: bit-identical summaries + strided ``node_to_dict`` states
    between the two layouts, and a ≥``--min-payload-memory-ratio``
    reduction in *measured* retained ballot memory (both sides counted
    by the same rules; see ``ballot_memory_bytes``).  The vectorised
    dispersion scan must return bit-identical floats; its speedup is
    recorded.
    """
    window = 300.0
    shape = {"voter_every": 4, "votes_per_voter": 30, "n_mods": 60, "v_max": 32}
    legs = {}
    for columnar in ("off", "on"):
        wall, ticks, summary_sha, states_sha, runtime = _columnar_stack_leg(
            "soa", columnar, seed, n_peers, window, **shape
        )
        legs[columnar] = {
            "wall": wall,
            "ticks": ticks,
            "summary_sha": summary_sha,
            "states_sha": states_sha,
            "ballot_bytes": runtime.ballot_memory_bytes(),
        }
        del runtime
    off, on = legs["off"], legs["on"]
    ratio = off["ballot_bytes"] / on["ballot_bytes"] if on["ballot_bytes"] else 0.0
    return {
        "n_peers": n_peers,
        "window_s": window,
        "voter_fraction": 1.0 / shape["voter_every"],
        "votes_per_voter": shape["votes_per_voter"],
        "moderator_pool": shape["n_mods"],
        "ticks": off["ticks"],
        "ticks_identical": off["ticks"] == on["ticks"],
        "summary_bit_identical": off["summary_sha"] == on["summary_sha"],
        "states_bit_identical": off["states_sha"] == on["states_sha"],
        "dict_wall_s": round(off["wall"], 2),
        "packed_wall_s": round(on["wall"], 2),
        "dict_ballot_mb": round(off["ballot_bytes"] / 1e6, 2),
        "packed_ballot_mb": round(on["ballot_bytes"] / 1e6, 2),
        "memory_ratio": round(ratio, 2),
        "dispersion": _dispersion_scan(seed),
    }


def _auto_crossover(seed: int) -> dict:
    """Record where ``population_engine="auto"`` lands.

    Below ``population_engine_threshold`` auto must resolve to the
    object engine — the small-N regime where per-batch overhead can
    make the SoA path slower — so auto never selects a configuration
    slower than the object engine at the identity-check scale.
    """
    out = {}
    for label, n_peers in (("small_n", 40), ("large_n", 50_000)):
        engine = Engine()
        rng = RngRegistry(seed)
        trace = _columnar_scenario(n_peers, 60.0)
        session = BitTorrentSession(
            engine, trace, rng, config=SessionConfig(round_interval=1e9)
        )
        runtime = ProtocolRuntime(
            session, rng, config=RuntimeConfig(population_engine="auto")
        )
        out[label] = n_peers
        out[f"{label}_resolved"] = runtime.population_engine
        out[f"{label}_columnar"] = runtime.columnar_state
    out["threshold"] = RuntimeConfig().population_engine_threshold
    out["auto_is_object_at_small_n"] = out["small_n_resolved"] == "object"
    return out


def bench_million_peer_smoke(seed: int, n_peers: int = 1_000_000) -> dict:
    """End-to-end 1M-peer churn trace under the SoA engine.

    Swarm interest is zeroed (no transfer plumbing at this scale — the
    point is the population machinery: 1M peer sessions, eager node
    materialisation, protocol ticks over hundreds of thousands of
    concurrently online peers), intervals are relaxed to keep total
    tick volume bounded, and the run must simply complete.
    """
    window = 900.0
    cfg = TraceGeneratorConfig(
        n_peers=n_peers,
        duration=window,
        n_swarms=1,
        swarms_per_session=0.0,
        arrival_window=window,
        rare_fraction=0.5,  # thin the concurrently-online population
    )
    t0 = time.perf_counter()
    trace = TraceGenerator(cfg, seed=seed).generate()
    trace_wall = time.perf_counter() - t0

    engine = Engine()
    rng = RngRegistry(seed)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=300.0)
    )
    runtime = ProtocolRuntime(
        session,
        rng,
        config=RuntimeConfig(
            moderation_interval=300.0,
            vote_interval=300.0,
            bartercast_interval=600.0,
            population_engine="soa",
        ),
    )
    t0 = time.perf_counter()
    session.start()
    engine.run_until(window)
    run_wall = time.perf_counter() - t0
    telemetry = runtime.population_summary()
    return {
        "n_peers": n_peers,
        "window_s": window,
        "trace_events": len(trace.events),
        "trace_build_s": round(trace_wall, 1),
        "run_wall_s": round(run_wall, 1),
        "completed": True,
        "peers_per_s": round(n_peers / run_wall),
        "engine_events": engine.events_fired,
        "ticks": telemetry["ticks"],
        "peers_online_at_end": telemetry["peers_online"],
        "batches": telemetry["batches"],
        "mean_batch_size": round(telemetry["mean_batch_size"], 1),
        "max_batch_size": telemetry["max_batch_size"],
    }


def _checkpoint_cost(shard, directory: Path) -> dict:
    """One checkpoint of ``shard`` written and restored: size per peer,
    write and restore wall milliseconds."""
    from repro.sim.service import ServiceShard

    size = shard.write_checkpoint(directory)
    t0 = time.perf_counter()
    ServiceShard.restore_from(shard.config, directory)
    restore_wall = time.perf_counter() - t0
    return {
        "n_peers": shard.config.peers,
        "sim_seconds": shard.engine.now,
        "checkpoint_bytes_per_peer": round(size / shard.config.peers),
        "write_ms": round(1e3 * shard.ops["checkpoint_wall_last"], 1),
        "restore_ms": round(1e3 * restore_wall, 1),
    }


def bench_service(seed: int, n_peers: int = 200, n_peers_exit: int = 20_000) -> dict:
    """Kill/restore bit-identity and checkpoint cost at smoke scale.

    Leg A runs one shard in process, uninterrupted, writing a real
    checkpoint at every boundary (that leg times the checkpoint
    overhead).  Leg B runs the same shard under the supervisor in a
    worker process, SIGKILLs it after its first checkpoint, lets the
    supervisor restart it from disk, and compares the final identity
    state against leg A.  Recorded besides: what one checkpoint costs
    (bytes per peer, write and restore milliseconds) on leg A's final
    state and on a shard of ``n_peers_exit`` peers, the ROADMAP's exit
    scale for checkpoints.
    """
    import shutil
    import tempfile
    from dataclasses import replace

    from repro.core.checkpoint import CheckpointError, read_sections
    from repro.sim.service import (
        CHECKPOINT_FILE,
        ServiceConfig,
        ServiceShard,
        ServiceSupervisor,
        ShardConfig,
    )

    until = 24 * 3600.0
    interval = 6 * 3600.0
    # Smoke sizing: tick cadence high enough that protocol work (not
    # serialisation) dominates the wall clock, like a loaded deployment.
    shard_cfg = ShardConfig(
        shard_id=0,
        peers=n_peers,
        seed=seed,
        moderation_interval=120.0,
        vote_interval=120.0,
        bartercast_interval=600.0,
        node=NodeConfig(b_max=50),
    )
    base = Path(tempfile.mkdtemp(prefix="bench-service-"))
    try:
        # Leg A: uninterrupted, with real checkpoint writes.
        ref = ServiceShard(shard_cfg)
        ref.start()
        t0 = time.perf_counter()
        ref.run_service(until, interval, directory=base / "ref")
        ref_wall = time.perf_counter() - t0
        checkpoint_wall = ref.ops["checkpoint_wall_total"]
        overhead = checkpoint_wall / ref_wall if ref_wall > 0 else 0.0
        checkpoints = int(ref.ops["checkpoints"])
        bytes_mean = int(ref.ops["checkpoint_bytes_total"] / max(1, checkpoints))

        # Leg B: supervisor worker, SIGKILLed after its first
        # checkpoint, restarted from disk by poll().
        service_cfg = ServiceConfig(
            shards=1, until=until, checkpoint_interval=interval, shard=shard_cfg
        )
        kill_dir = base / "kill"
        restarts = 0
        with ServiceSupervisor(service_cfg, kill_dir) as supervisor:
            supervisor.start()
            checkpoint_path = supervisor.shard_dir(0) / CHECKPOINT_FILE
            deadline = time.time() + 120.0
            while time.time() < deadline:
                try:
                    saved, _components = read_sections(checkpoint_path)
                except (OSError, CheckpointError):  # not written yet
                    saved = None
                if saved is not None and saved["sim"]["now"] >= interval:
                    break
                time.sleep(0.05)
            supervisor.kill_shard(0)
            supervisor.poll()
            while not supervisor.done() and time.time() < deadline:
                time.sleep(0.1)
                supervisor.poll()
            restarts = supervisor.status().totals["restarts"]
        killed = ServiceShard.restore_from(shard_cfg, supervisor.shard_dir(0))
        identical = killed.identity_state() == ref.identity_state()

        costs = [_checkpoint_cost(ref, base / "cost")]
        exit_scale = ServiceShard(replace(shard_cfg, peers=n_peers_exit))
        exit_scale.start()
        exit_scale.run_until(1800.0)
        costs.append(_checkpoint_cost(exit_scale, base / "cost-exit"))
        return {
            "n_peers": n_peers,
            "sim_seconds": until,
            "checkpoint_interval": interval,
            "worker_restarts": restarts,
            "kill_restore_identical": identical,
            "checkpoints": checkpoints,
            "checkpoint_bytes_mean": bytes_mean,
            "checkpoint_wall_s": round(checkpoint_wall, 3),
            "run_wall_s": round(ref_wall, 3),
            "checkpoint_overhead_fraction": round(overhead, 4),
            "checkpoint_cost": costs,
            "votes_merged": ref.runtime.node_counters()["votes_merged"],
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def bench_aggregation(seed: int, n_peers: int = 80, shards: int = 4) -> dict:
    """Inter-shard aggregation gates: convergence and crash replay.

    One reference cluster runs uninterrupted; a second cluster is run
    to the mid-run boundary, has one shard discarded and restored from
    its checkpoint (the in-process kill -9 analogue — the digest board
    survives, like the overlay would), and continues.  Both must end
    bit-identical, shard by shard.  An isolated control (same shards,
    aggregation off) supplies the convergence baseline.
    """
    import shutil
    import tempfile

    from repro.sim.aggregation import (
        AggregationConfig,
        ShardCluster,
        max_cross_shard_rank_distance,
    )
    from repro.sim.service import ServiceConfig, ServiceShard, ShardConfig

    until = 8 * 3600.0
    interval = 3600.0
    top_k = 8
    aggregation = AggregationConfig(
        shards=shards, max_votes_per_interval=200, merge_fanout=2
    )
    shard_cfg = ShardConfig(
        peers=n_peers,
        seed=seed,
        moderators=4,
        population_engine="soa",
        columnar_state="on",
        node=NodeConfig(b_max=40),
        aggregation=aggregation,
    )
    config = ServiceConfig(
        shards=shards, until=until, checkpoint_interval=interval, shard=shard_cfg
    )
    base = Path(tempfile.mkdtemp(prefix="bench-aggregation-"))
    try:
        t0 = time.perf_counter()
        reference = ShardCluster(config, directory=base / "ref")
        reference.run()
        ref_wall = time.perf_counter() - t0

        crashed = ShardCluster(config, directory=base / "crashed")
        crashed.run(until=until / 2)
        crashed.restore_shard(shards - 1)
        crashed.run()
        identical = all(
            crashed.shards[i].identity_state()
            == reference.shards[i].identity_state()
            for i in range(shards)
        )

        from dataclasses import replace as _replace

        isolated_cfg = ServiceConfig(
            shards=shards,
            until=until,
            checkpoint_interval=interval,
            shard=_replace(shard_cfg, aggregation=None),
        )
        isolated = []
        for shard_id in range(shards):
            shard = ServiceShard(isolated_cfg.shard_config(shard_id))
            shard.start()
            shard.run_service(until, interval)
            isolated.append(shard)

        aggregated_distance = max_cross_shard_rank_distance(
            reference.shards, top_k
        )
        isolated_distance = max_cross_shard_rank_distance(isolated, top_k)
        ops = [dict(shard.aggregator.ops) for shard in reference.shards]
        dht_messages = sum(o["dht_messages"] for o in ops)
        digest_ops = sum(
            o["digests_published"] + o["digests_pulled"] for o in ops
        )
        return {
            "shards": shards,
            "peers_per_shard": n_peers,
            "sim_seconds": until,
            "checkpoint_interval": interval,
            "top_k": top_k,
            "kill_restore_identical": identical,
            "restores": int(crashed.shards[shards - 1].ops["restores"]),
            "aggregated_rank_distance": round(aggregated_distance, 4),
            "isolated_rank_distance": round(isolated_distance, 4),
            "digests_published": int(sum(o["digests_published"] for o in ops)),
            "digests_pulled": int(sum(o["digests_pulled"] for o in ops)),
            "dht_messages": int(dht_messages),
            "dht_messages_per_digest": round(
                dht_messages / digest_ops if digest_ops else 0.0, 2
            ),
            "dht_timeouts": int(sum(o["timeouts"] for o in ops)),
            "remote_votes_merged": int(
                sum(o["remote_votes_merged"] for o in ops)
            ),
            "merge_lag_votes": int(sum(o["pending_votes"] for o in ops)),
            "run_wall_s": round(ref_wall, 3),
        }
    finally:
        shutil.rmtree(base, ignore_errors=True)


def run(full: bool, seed: int, out: Path = None) -> dict:
    sections = {
        "engine_identity": bench_engine_identity(seed),
        "peers_per_sec": bench_peers_per_sec(seed),
        "columnar_state": bench_columnar_state(seed),
        "columnar_payloads": bench_columnar_payloads(seed),
        "service": bench_service(seed),
        "aggregation": bench_aggregation(seed),
    }
    if full:
        sections["million_peer_smoke"] = bench_million_peer_smoke(seed)

    out = out or REPO_ROOT / "BENCH_population.json"
    # Merge over the existing file: sections not re-run this invocation
    # (the committed --full million-peer numbers) are preserved.
    report = {}
    if out.exists():
        try:
            report = json.loads(out.read_text())
        except ValueError:
            report = {}
    report.update(
        {
            "name": "bench_population",
            "mode": "full" if full else "quick",
            "seed": seed,
            "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "python": sys.version.split()[0],
        }
    )
    report.update(sections)
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true", help="include the 1M-peer smoke"
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on any bit-identity break, or on a multi-core runner "
        "when the SoA engine is below --min-speedup",
    )
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument(
        "--min-columnar-speedup",
        type=float,
        default=2.0,
        help="required per-tick speedup of the columnar batched vote "
        "tick over the dict-state SoA path (gated unconditionally: "
        "the legs run sequentially on a single core either way)",
    )
    parser.add_argument(
        "--min-payload-memory-ratio",
        type=float,
        default=3.0,
        help="required reduction in measured retained ballot memory "
        "from packing vote payloads into columns (dict-layout bytes / "
        "packed-layout bytes on the vote-heavy scenario)",
    )
    parser.add_argument(
        "--max-checkpoint-overhead",
        type=float,
        default=0.02,
        help="maximum allowed fraction of shard wall-clock spent "
        "writing checkpoints in the service section",
    )
    parser.add_argument(
        "--max-dht-messages-per-digest",
        type=float,
        default=16.0,
        help="maximum routed DHT messages per digest published or "
        "pulled in the aggregation section (lookup hops, stores, "
        "fetches, timeout retries)",
    )
    args = parser.parse_args(argv)

    report = run(full=args.full, seed=args.seed, out=args.out)
    print(json.dumps(report, indent=2))
    if not args.check:
        return 0
    failures = []
    identity = report["engine_identity"]
    if not identity["schedule_bit_identical"]:
        failures.append("SoA tick schedule diverged from the object engine")
    if not identity["summary_bit_identical"]:
        failures.append("run_summary diverged between tick schedulers")
    if not identity["states_bit_identical"]:
        failures.append("node end states diverged between tick schedulers")
    capacity = report["peers_per_sec"]
    if not capacity["ticks_identical"]:
        failures.append(
            f"tick counts diverged at {capacity['n_peers']} peers: "
            f"object={capacity['object_ticks']} soa={capacity['soa_ticks']}"
        )
    columnar = report["columnar_state"]
    if not columnar["ticks_identical"]:
        failures.append("columnar_state legs fired different tick counts")
    if not columnar["summary_bit_identical"]:
        failures.append(
            "run_summary diverged between object, SoA and columnar legs"
        )
    if not columnar["states_bit_identical"]:
        failures.append(
            "per-node end states diverged between object, SoA and "
            "columnar legs"
        )
    if columnar["speedup"] < args.min_columnar_speedup:
        failures.append(
            f"columnar vote tick speedup {columnar['speedup']:.2f}x "
            f"< required {args.min_columnar_speedup:.1f}x over the "
            f"dict-state SoA path at {columnar['n_peers']} peers"
        )
    if not columnar["auto_crossover"]["auto_is_object_at_small_n"]:
        failures.append(
            "population_engine='auto' resolved to the SoA engine below "
            "the crossover threshold"
        )
    payloads = report["columnar_payloads"]
    if not payloads["ticks_identical"]:
        failures.append("columnar_payloads legs fired different tick counts")
    if not payloads["summary_bit_identical"]:
        failures.append(
            "run_summary diverged between dict and packed payload layouts"
        )
    if not payloads["states_bit_identical"]:
        failures.append(
            "per-node end states diverged between dict and packed "
            "payload layouts"
        )
    if payloads["memory_ratio"] < args.min_payload_memory_ratio:
        failures.append(
            f"packed payload memory ratio {payloads['memory_ratio']:.2f}x "
            f"< required {args.min_payload_memory_ratio:.1f}x at "
            f"{payloads['n_peers']} peers "
            f"(dict {payloads['dict_ballot_mb']} MB vs packed "
            f"{payloads['packed_ballot_mb']} MB)"
        )
    if not payloads["dispersion"]["identical"]:
        failures.append(
            "vectorised dispersion scan diverged from the scalar "
            "all_counts loop"
        )
    service = report["service"]
    if not service["kill_restore_identical"]:
        failures.append(
            "a SIGKILLed service shard restored from its checkpoint "
            "diverged from the uninterrupted run"
        )
    if service["worker_restarts"] != 1:
        failures.append(
            f"service supervisor logged {service['worker_restarts']} "
            "restarts for the killed shard (expected exactly 1)"
        )
    if service["checkpoint_overhead_fraction"] > args.max_checkpoint_overhead:
        failures.append(
            f"checkpoint overhead {service['checkpoint_overhead_fraction']:.1%} "
            f"> allowed {args.max_checkpoint_overhead:.0%} of shard "
            f"wall-clock at {service['n_peers']} peers"
        )
    aggregation = report["aggregation"]
    if not aggregation["kill_restore_identical"]:
        failures.append(
            "a shard restored from its checkpoint mid-run diverged from "
            "the never-interrupted aggregating cluster"
        )
    if aggregation["restores"] != 1:
        failures.append(
            f"aggregation crash leg logged {aggregation['restores']} "
            "restores for the killed shard (expected exactly 1)"
        )
    if not (
        aggregation["aggregated_rank_distance"]
        < aggregation["isolated_rank_distance"]
    ):
        failures.append(
            f"aggregated cross-shard rank distance "
            f"{aggregation['aggregated_rank_distance']} did not improve "
            f"on the isolated baseline "
            f"{aggregation['isolated_rank_distance']}"
        )
    if aggregation["dht_messages_per_digest"] > args.max_dht_messages_per_digest:
        failures.append(
            f"aggregation paid {aggregation['dht_messages_per_digest']} "
            f"DHT messages per digest op > allowed "
            f"{args.max_dht_messages_per_digest}"
        )
    if capacity["speedup_gate_active"]:
        if capacity["speedup"] < args.min_speedup:
            failures.append(
                f"SoA scheduler speedup {capacity['speedup']:.2f}x "
                f"< required {args.min_speedup:.1f}x at "
                f"{capacity['n_peers']} peers on "
                f"{capacity['cpu_count']} cores"
            )
    else:
        print(
            "SKIP: population speedup gate skipped — single-core runner "
            f"(cpu_count={capacity['cpu_count']}); tick-count and "
            "full-stack bit-identity gates still checked",
            file=sys.stderr,
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
