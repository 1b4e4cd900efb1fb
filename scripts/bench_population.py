#!/usr/bin/env python
"""Population benchmark: the SoA scheduler and columnar state at scale.

The runtime has one scheduler and one state store; their bit-identity
against the test-side reference (per-peer ``PeriodicProcess`` loops,
dict ballot boxes) is a tier-1 test, not a section here.  Sections:

* **peers_per_sec** — scheduler capacity at 50 k peers with a
  null-action protocol: per-peer :class:`PeriodicProcess` heap entries
  vs one :class:`PopulationEngine` batch source, both drawing the same
  per-peer jitter streams, five repeats with the leg order alternated.
  Tick counts must agree exactly on every repeat (always gated); the
  median per-repeat SoA/heap ratio must reach ``--min-speedup``
  (default 5×) on multi-core runners — single-core boxes log a skip.
* **columnar_state** — the real vote-exchange protocol at 50 k peers
  (5 % voters, the paper's voter density) through the batched vote
  tick: per-tick cost and, at 20 k peers, the stack's retained and
  peak memory with its measured ballot-box bytes.  Recorded.
* **columnar_payloads** — a vote-heavy 20 k-peer scenario (25 %
  voters, 30 votes each): wall and measured ballot-box bytes
  (recorded), and the vectorised adaptive-T dispersion scan against
  the dict box's scalar loop, whose floats must match exactly (gated;
  the speedup is recorded).
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
import json
import os
import statistics
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.node import NodeConfig
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.sim.engine import Engine
from repro.sim.population import PopulationEngine
from repro.sim.process import PeriodicProcess
from repro.sim.rng import RngRegistry
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.model import PeerProfile, Trace

REPO_ROOT = Path(__file__).resolve().parent.parent


def bench_peers_per_sec(seed: int, n_peers: int = 50_000, repeats: int = 5) -> dict:
    """Null-action scheduler capacity: 50 k always-online peers, one
    60 s protocol, 600 s simulated.  Both legs draw identical jitter
    streams, so they execute identical tick schedules.

    Setup (per-peer RNG stream creation plus first-tick scheduling —
    paid identically by both legs, dominated by ``RngRegistry.stream``)
    is timed separately from the run phase; the gated metric is
    **peers/sec** over the run phase — peers advanced through one
    protocol interval per wall-clock second (= ticks/sec here, one
    tick per peer-interval).

    Both legs run ``repeats`` times, alternating which goes first, and
    the speed-up reported (and gated) is the median of the per-repeat
    ratios: one pair of runs on a shared host swings by more than the
    gate's margin.  Tick counts must agree on every repeat.
    """
    interval, window = 60.0, 600.0
    jitter_fraction = 0.1

    def null_action(_pid=None):
        pass

    def object_leg():
        # One PeriodicProcess heap entry per peer, exactly the per-peer
        # machinery of the tests' reference runtime.
        eng = Engine()
        reg = RngRegistry(seed)
        t0 = time.perf_counter()
        for i in range(n_peers):
            PeriodicProcess(
                eng,
                interval,
                null_action,
                jitter=interval * jitter_fraction,
                rng=reg.stream("jitter", f"p{i}"),
            ).start()
        setup = time.perf_counter() - t0
        t0 = time.perf_counter()
        eng.run_until(window)
        return setup, time.perf_counter() - t0, eng.events_fired

    def soa_leg():
        # The same peers, intervals and jitter streams through one
        # columnar population source.
        eng = Engine()
        reg = RngRegistry(seed)
        t0 = time.perf_counter()
        pop = PopulationEngine(
            eng,
            reg,
            [("null", interval, null_action)],
            jitter_fraction=jitter_fraction,
        )
        eng.attach_source(pop)
        for i in range(n_peers):
            pop.peer_online(f"p{i}", 0.0)
        setup = time.perf_counter() - t0
        t0 = time.perf_counter()
        eng.run_until(window)
        wall = time.perf_counter() - t0
        # keep the batch shape, not five 50 k-peer engines
        shape = (pop.batches, pop.telemetry()["mean_batch_size"])
        return setup, wall, eng.events_fired, shape

    legs = []
    for r in range(repeats):
        if r % 2 == 0:
            obj, soa = object_leg(), soa_leg()
        else:
            soa, obj = soa_leg(), object_leg()
        legs.append((obj, soa))
        gc.collect()
    ratios = [obj[1] / soa[1] for obj, soa in legs]

    ticks_o, ticks_s = legs[0][0][2], legs[0][1][2]
    wall_o = statistics.median([obj[1] for obj, _ in legs])
    wall_s = statistics.median([soa[1] for _, soa in legs])
    batches, mean_batch = legs[-1][1][3]
    cpu = os.cpu_count() or 1
    return {
        "n_peers": n_peers,
        "interval_s": interval,
        "window_s": window,
        "repeats": repeats,
        "object_ticks": ticks_o,
        "soa_ticks": ticks_s,
        "ticks_identical": all(
            obj[2] == soa[2] == ticks_o for obj, soa in legs
        ),
        "object_setup_s": round(statistics.median([obj[0] for obj, _ in legs]), 2),
        "soa_setup_s": round(statistics.median([soa[0] for _, soa in legs]), 2),
        "object_wall_s": round(wall_o, 2),
        "soa_wall_s": round(wall_s, 2),
        "object_peers_per_s": round(ticks_o / wall_o),
        "soa_peers_per_s": round(ticks_s / wall_s),
        "speedup": round(statistics.median(ratios), 2),
        "speedup_repeats": [round(x, 2) for x in ratios],
        "soa_batches": batches,
        "soa_mean_batch_size": round(mean_batch, 1),
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
    seed: int,
    n_peers: int,
    window: float,
    voter_every: int = 20,
    votes_per_voter: int = 3,
    n_mods: int = 20,
    v_max: int = 10,
):
    """One full-stack vote-exchange run; returns ``(run_wall, ticks,
    runtime)`` — the runtime rides along so memory legs can measure the
    retained stack before it is collected.

    The default shape is the columnar_state scenario (5 % voters, the
    paper's density, 3 votes each over 20 moderators); the payload
    section passes a vote-heavy shape instead.
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
    return wall, runtime.population_summary()["ticks"], runtime


def _ballot_memory(seed: int, n_peers: int = 20_000, window: float = 300.0) -> dict:
    """Full-stack retained/peak memory of the columnar run (smaller
    population: tracemalloc roughly doubles the wall cost, so the
    timing leg stays untraced), beside its *measured* ballot-box bytes
    (``ProtocolRuntime.ballot_memory_bytes``)."""
    gc.collect()
    tracemalloc.start()
    _wall, _ticks, runtime = _columnar_stack_leg(seed, n_peers, window)
    gc.collect()
    current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "n_peers": n_peers,
        "window_s": window,
        "retained_mb": round(current / 1e6, 1),
        "peak_mb": round(peak / 1e6, 1),
        "ballot_mb": round(runtime.ballot_memory_bytes() / 1e6, 2),
    }


def bench_columnar_state(seed: int, n_peers: int = 50_000) -> dict:
    """The batched vote tick over the columnar store on the real
    protocol stack: per-tick cost of two trials (per-tick walls on
    shared runners swing by 2× between identical runs) and memory."""
    window = 600.0
    runs = []
    for _trial in range(2):
        wall, ticks, runtime = _columnar_stack_leg(seed, n_peers, window)
        del runtime  # timing legs do not hold the stack alive
        runs.append((wall, ticks))
    return {
        "n_peers": n_peers,
        "window_s": window,
        "voter_fraction": 0.05,
        "ticks": runs[0][1],
        "us_per_tick": [round(1e6 * wall / ticks, 2) for wall, ticks in runs],
        "ballot_memory": _ballot_memory(seed),
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
    """Packed vote payloads on a vote-heavy scenario (25 % voters, 30
    votes each over 60 moderators — boxes actually fill with votes,
    unlike the sparse columnar_state shape): wall and measured
    ballot-box bytes, plus the dispersion scan's identity gate."""
    window = 300.0
    shape = {"voter_every": 4, "votes_per_voter": 30, "n_mods": 60, "v_max": 32}
    wall, ticks, runtime = _columnar_stack_leg(seed, n_peers, window, **shape)
    return {
        "n_peers": n_peers,
        "window_s": window,
        "voter_fraction": 1.0 / shape["voter_every"],
        "votes_per_voter": shape["votes_per_voter"],
        "moderator_pool": shape["n_mods"],
        "ticks": ticks,
        "wall_s": round(wall, 2),
        "ballot_mb": round(runtime.ballot_memory_bytes() / 1e6, 2),
        "dispersion": _dispersion_scan(seed),
    }


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
        help="fail on any bit-identity or service/aggregation gate, or "
        "on a multi-core runner when the SoA engine is below "
        "--min-speedup",
    )
    parser.add_argument("--min-speedup", type=float, default=5.0)
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
    capacity = report["peers_per_sec"]
    if not capacity["ticks_identical"]:
        failures.append(
            f"tick counts diverged at {capacity['n_peers']} peers in one "
            f"of {capacity['repeats']} repeats: first repeat "
            f"object={capacity['object_ticks']} soa={capacity['soa_ticks']}"
        )
    payloads = report["columnar_payloads"]
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
                f"SoA scheduler median speedup {capacity['speedup']:.2f}x "
                f"(repeats {capacity['speedup_repeats']}) "
                f"< required {args.min_speedup:.1f}x at "
                f"{capacity['n_peers']} peers on "
                f"{capacity['cpu_count']} cores"
            )
    else:
        print(
            "SKIP: population speedup gate skipped — single-core runner "
            f"(cpu_count={capacity['cpu_count']}); tick-count and "
            "bit-identity gates still checked",
            file=sys.stderr,
        )
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
