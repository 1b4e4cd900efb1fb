"""The four benchmark workloads.

Each workload is one fixed-size unit of simulated work driven through
``repro``'s public entry points.  Constructing a workload is its
set-up (trace generation, stack build, vote seeding); ``run(window)``
advances the simulation inside ``with window:`` blocks, which is the
only time the harness measures; ``observe()`` reads the program's own
counters, checks the outputs and fingerprints the end state.

A unit is sized to take a few seconds on a 2-core runner so that one
benchmark run repeats it several times and reports medians.  The
``tiny`` sizes exist for ``bench/tests`` only.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from repro.bittorrent.session import SessionConfig
from repro.core.node import NodeConfig
from repro.core.persistence import node_to_dict
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.experiments.common import SimulationStack
from repro.experiments.vote_sampling import VoteSamplingConfig, VoteSamplingExperiment
from repro.metrics.ordering import correct_order_fraction
from repro.sim.aggregation import (
    AggregationConfig,
    ShardCluster,
    max_cross_shard_rank_distance,
)
from repro.sim.service import ServiceConfig, ShardConfig
from repro.sim.units import HOUR
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.model import PeerProfile, Trace

from bench import REPO_ROOT

OUT_DIR = REPO_ROOT / "bench" / "out"

#: ``paper_fig6`` replays one fixed trace, as the paper replays one
#: recorded trace; ``--seed`` draws everything the protocols randomise
#: (voter roles, peer sampling, choking, jitter).  At 100 peers the
#: work in a freshly drawn trace differs by ±20 % wall between seeds,
#: wider than any regression bound, so the trace is not redrawn.
FIG6_TRACE_SEED = 7

#: at most this many nodes are serialised for the end-state
#: fingerprint and the one-vote-per-pair check
_STATE_SAMPLE = 64

Check = Tuple[str, int, int]  # (name, attempted, failed)


# ----------------------------------------------------------------------
# Shared observation helpers
# ----------------------------------------------------------------------
def _sampled_node_states(runtime: ProtocolRuntime) -> List[Dict[str, Any]]:
    pids = sorted(runtime.nodes)
    stride = max(1, len(pids) // _STATE_SAMPLE)
    return [node_to_dict(runtime.nodes[pid]) for pid in pids[::stride]]


def _digest(*parts: Any) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(json.dumps(part, sort_keys=True, default=float).encode())
    return sha.hexdigest()


def _ballot_checks(
    runtimes: Sequence[ProtocolRuntime], states: Sequence[Dict[str, Any]]
) -> List[Check]:
    """``B_max`` on every ballot box; one vote per (voter, moderator)
    on the serialised sample."""
    boxes = over = 0
    for runtime in runtimes:
        for node in runtime.nodes.values():
            boxes += 1
            over += node.ballot_box.num_unique_users() > node.config.b_max
    duplicated = 0
    for state in states:
        voters = [entry["voter"] for entry in state["ballot"]]
        unique = len(set(voters)) == len(voters)
        for entry in state["ballot"]:
            moderators = [vote[0] for vote in entry["votes"]]
            unique = unique and len(set(moderators)) == len(moderators)
        duplicated += not unique
    return [
        ("ballot_box_within_b_max", boxes, over),
        ("one_vote_per_voter_and_moderator", len(states), duplicated),
    ]


def _observe_runtimes(
    runtimes: Sequence[ProtocolRuntime], always_experienced: bool
) -> Dict[str, Any]:
    """Counters, checks and fingerprint parts shared by every workload;
    sums over ``runtimes`` (one per shard on ``service_cluster``)."""
    summaries = [rt.run_summary() for rt in runtimes]
    populations = [summary.pop("population") for summary in summaries]
    nodes = {
        key: sum(summary["nodes"][key] for summary in summaries)
        for key in summaries[0]["nodes"]
    }
    ticks = sum(p["ticks"] for p in populations)
    batches = sum(p["batches"] for p in populations)
    by_protocol: Dict[str, int] = {}
    for p in populations:
        for name, count in p["ticks_by_protocol"].items():
            by_protocol[name] = by_protocol.get(name, 0) + count

    def rate(hits: str, misses: str) -> float:
        h = sum(summary["bartercast"][hits] for summary in summaries)
        lookups = h + sum(summary["bartercast"][misses] for summary in summaries)
        return h / lookups if lookups else 0.0

    all_nodes = [n for rt in runtimes for n in rt.nodes.values()]
    fill = statistics.fmean(
        n.ballot_box.num_unique_users() / n.config.b_max for n in all_nodes
    )
    merged = nodes["votes_merged"]
    rejected = nodes["votes_rejected_inexperienced"]
    dropped = sum(summary["dropped_exchanges"] for summary in summaries)
    states = [s for rt in runtimes for s in _sampled_node_states(rt)]

    checks = _ballot_checks(runtimes, states)
    checks.append(("exchanges_not_dropped", ticks, dropped))
    checks.append(("votes_merged_nonzero", 1, int(merged == 0)))
    if always_experienced:
        checks.append(("no_vote_rejected_at_zero_threshold", 1, int(rejected != 0)))

    return {
        "ticks": ticks,
        "votes_merged": merged,
        "counters": {
            "engine.events_fired": sum(rt.engine.events_fired for rt in runtimes),
            "population.batches": batches,
            "population.mean_batch_size": ticks / batches if batches else 0.0,
            "population.max_batch_size": max(p["max_batch_size"] for p in populations),
            "bartercast.contribution_hit_rate": rate(
                "contribution_hits", "contribution_misses"
            ),
            "bartercast.records_hit_rate": rate("records_hits", "records_misses"),
            "experience.gate_pass_rate": (
                merged / (merged + rejected) if merged + rejected else 0.0
            ),
            "runtime.ticks.moderation": by_protocol.get("moderation", 0),
            "runtime.ticks.vote": by_protocol.get("vote", 0),
            "runtime.ticks.bartercast": by_protocol.get("bartercast", 0),
            "ballot.votes_merged": merged,
            "ballot.votes_truncated": nodes["votes_truncated"],
            "ballot.fill": fill,
            "ballot.memory_mb": sum(p["ballot_memory_bytes"] for p in populations) / 1e6,
        },
        "checks": checks,
        # without the popped ``population`` sections: those describe the
        # scheduler, not the protocol
        "digest_parts": [summaries, states],
    }


def _finish(obs: Dict[str, Any], simulated: Dict[str, Any]) -> Dict[str, Any]:
    obs["simulated"] = {
        "ticks": obs["ticks"],
        "votes_merged": obs["votes_merged"],
        **simulated,
    }
    obs["digest"] = _digest(*obs.pop("digest_parts"))
    return obs


def _vote_for(i: int, j: int) -> Vote:
    return Vote.POSITIVE if (i + j) % 3 else Vote.NEGATIVE


class Workload:
    """What the harness needs of a workload besides its constructor
    (the set-up), ``run(window)`` and ``observe()``."""

    name: str
    why: str
    sizes: Dict[str, Dict[str, Any]]

    #: suite-only end-to-end metrics of this workload alone:
    #: name -> (counter, unit, bound); all are better when lower
    suite_metrics: Dict[str, Tuple[str, str, float]] = {}

    def close(self) -> None:
        """Remove what the unit left on disk."""

    @staticmethod
    def counters(observations: Sequence[Dict[str, Any]]) -> Dict[str, float]:
        """The run's per-unit counters.  Units of one run share a seed,
        so the program's counts repeat exactly and the last unit's
        stand for all; a workload with per-unit *timings* among its
        counters pools them here."""
        return observations[-1]["counters"]


# ----------------------------------------------------------------------
# paper_fig6
# ----------------------------------------------------------------------
class PaperFig6(Workload):
    """The paper's Fig 6 run: 100 peers, piece-level BitTorrent, the
    three protocols, default ``RuntimeConfig`` (object engine, dict
    ballot boxes, dense graph)."""

    name = "paper_fig6"
    why = (
        "The paper's own figure at 100 peers for one simulated day: "
        "BitTorrent rounds and BarterCast transfers dominate, "
        "population/columnar/service code is idle."
    )
    sizes = {
        "full": {"n_peers": 100, "hours": 24.0},
        "tiny": {"n_peers": 30, "hours": 10.0},
    }

    def __init__(self, seed: int, n_peers: int, hours: float):
        #: on the 100-peer trace the curve is above 0.9 from 18 h on
        self.converges = n_peers == 100 and hours >= 24.0
        cfg = VoteSamplingConfig(seed=seed, duration=hours * HOUR)
        trace_cfg = replace(cfg.trace, n_peers=n_peers, duration=cfg.duration)
        trace = TraceGenerator(trace_cfg, seed=FIG6_TRACE_SEED).generate(0)
        self.stack = stack = SimulationStack.build(
            trace,
            seed=seed,
            runtime_config=RuntimeConfig(
                node=cfg.node, experience_threshold=cfg.experience_threshold
            ),
            sample_interval=cfg.sample_interval,
        )
        order = VoteSamplingExperiment(cfg)._setup_workload(stack, trace)
        nodes = stack.runtime.nodes

        def probe() -> float:
            arrived = [pid for pid in trace.peers if pid in nodes]
            return correct_order_fraction(nodes, order, include=arrived)

        stack.recorder.add_probe("correct_fraction", probe)

    def run(self, window) -> None:
        with window:
            self.stack.run()

    def observe(self) -> Dict[str, Any]:
        stack = self.stack
        obs = _observe_runtimes([stack.runtime], always_experienced=False)
        series = stack.recorder.get("correct_fraction")
        final = series.final()
        reached = [t for t, v in zip(series.times, series.values) if v >= 0.9]
        t90 = float(reached[0]) / HOUR if reached else None
        if self.converges:
            obs["checks"].append(("fig6_ordering_converged", 1, int(final < 0.9)))
        obs["counters"].update(
            {
                "traces.events": len(stack.trace.events),
                "metrics.samples": len(series),
                "metrics.correct_fraction_final": final,
                "metrics.t90_sim_h": t90 or 0.0,
            }
        )
        obs["digest_parts"].append([float(v) for v in series.values])
        return _finish(obs, {"correct_fraction_final": final, "t90_sim_h": t90})


# ----------------------------------------------------------------------
# steady_vote
# ----------------------------------------------------------------------
class SteadyVote(Workload):
    """Everyone online from t=0, no churn, no swarms: pure vote ticks in
    batches of thousands through the SoA engine and columnar store."""

    name = "steady_vote"
    why = (
        "10k always-online peers exchanging votes every 60 s: the bulk "
        "fast path (run_due batches of thousands, sample_batch, columnar "
        "bb_merge); BitTorrent, the heap and checkpoints are idle."
    )
    sizes = {
        "full": {"n_peers": 10_000, "window": 1800.0},
        "tiny": {"n_peers": 400, "window": 300.0},
    }
    moderators = 60
    votes_per_voter = 30

    def __init__(self, seed: int, n_peers: int, window: float):
        self.window = window
        pids = [f"p{i:05d}" for i in range(n_peers)]
        trace = Trace(
            duration=window,
            peers={pid: PeerProfile(peer_id=pid) for pid in pids},
            swarms={},
            events=[],
        )
        self.stack = SimulationStack.build(
            trace,
            seed=seed,
            session_config=SessionConfig(round_interval=1e9),
            runtime_config=RuntimeConfig(
                node=NodeConfig(b_min=1, b_max=50, v_max=10, voxpopuli_enabled=False),
                moderation_interval=1e9,
                vote_interval=60.0,
                bartercast_interval=1e9,
                experience_threshold=0.0,
                population_engine="soa",
                columnar_state="on",
            ),
        )
        runtime = self.stack.runtime
        mods = pids[: self.moderators]
        for i, pid in enumerate(pids):
            node = runtime.ensure_node(pid)
            if i % 4 == 0:
                for j in range(self.votes_per_voter):
                    m = mods[(i + j) % len(mods)]
                    if m != pid:
                        node.cast_vote(m, _vote_for(i, j), 0.0)
            runtime.bring_online(pid, 0.0)
        self.stack.session.start()

    def run(self, window) -> None:
        with window:
            self.stack.engine.run_until(self.window)

    def observe(self) -> Dict[str, Any]:
        obs = _observe_runtimes([self.stack.runtime], always_experienced=True)
        return _finish(obs, {})


# ----------------------------------------------------------------------
# churn_population
# ----------------------------------------------------------------------
class ChurnPopulation(Workload):
    """A churn trace through the same SoA/columnar layers: arrivals and
    departures interleave with ticks, so batches stay small."""

    name = "churn_population"
    why = (
        "4k peers churning (16k trace events in 1800 s) through the SoA "
        "engine: every trace event clamps a tick span, mean batch 5 - "
        "the 1M-peer smoke's collapse at a size that fits."
    )
    sizes = {
        "full": {"n_peers": 4_000, "window": 1800.0},
        "tiny": {"n_peers": 300, "window": 900.0},
    }
    moderators = 20

    def __init__(self, seed: int, n_peers: int, window: float):
        self.window = window
        trace = TraceGenerator(
            TraceGeneratorConfig(
                n_peers=n_peers,
                duration=window,
                n_swarms=1,
                swarms_per_session=0.0,
                arrival_window=window / 3,
                mean_session=window / 3,
            ),
            seed=seed,
        ).generate()
        self.stack = SimulationStack.build(
            trace,
            seed=seed,
            session_config=SessionConfig(round_interval=60.0),
            runtime_config=RuntimeConfig(
                node=NodeConfig(b_min=5, b_max=50, v_max=10),
                moderation_interval=120.0,
                vote_interval=120.0,
                bartercast_interval=600.0,
                experience_threshold=0.0,
                population_engine="soa",
                columnar_state="on",
            ),
        )
        runtime = self.stack.runtime
        pids = sorted(trace.peers)
        mods = pids[: self.moderators]
        for m in mods:
            runtime.ensure_node(m).create_moderation(f"t-{m}", "release", 0.0)
        for i, pid in enumerate(pids):
            if i % 10 == 0:
                node = runtime.ensure_node(pid)
                for j in range(3):
                    m = mods[(i + j) % len(mods)]
                    if m != pid:
                        node.cast_vote(m, _vote_for(i, j), 0.0)

    def run(self, window) -> None:
        with window:
            self.stack.session.start()
            self.stack.engine.run_until(self.window)

    def observe(self) -> Dict[str, Any]:
        obs = _observe_runtimes([self.stack.runtime], always_experienced=True)
        events = len(self.stack.trace.events)
        obs["counters"]["traces.events"] = events
        return _finish(obs, {"trace_events": events})


# ----------------------------------------------------------------------
# service_cluster
# ----------------------------------------------------------------------
class ServiceCluster(Workload):
    """Four checkpointing, DHT-aggregating service shards in lockstep,
    then a restore of all four from disk."""

    name = "service_cluster"
    why = (
        "4 shards x 200 peers for one simulated hour with a checkpoint "
        "every 1200 s, then all four restored from disk: checkpoint "
        "write/restore, digest publish/pull/merge and Chord lookups."
    )
    sizes = {
        "full": {"peers": 200, "hours": 1.0, "interval": 1200.0},
        "tiny": {"peers": 40, "hours": 0.5, "interval": 600.0},
    }
    shards = 4
    top_k = 8
    #: The operator-facing numbers.  ``BENCHMARK.json`` end-to-end
    #: metrics must exist on every workload, so these are reported and
    #: compared by the suite only.  Checkpoint bytes vary by a few
    #: bytes run to run (embedded wall-clock floats), hence 1 %.
    suite_metrics = {
        "checkpoint_ms_p50": ("service.checkpoint_ms_p50", "ms", 0.25),
        "checkpoint_ms_p75": ("service.checkpoint_ms_p75", "ms", 0.25),
        "checkpoint_mb": ("service.checkpoint_mb", "MB", 0.01),
        "restore_s": ("service.restore_all_s", "s", 0.25),
    }

    def __init__(self, seed: int, peers: int, hours: float, interval: float):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.directory = Path(tempfile.mkdtemp(prefix="checkpoints-", dir=OUT_DIR))
        shard = ShardConfig(
            peers=peers,
            seed=seed,
            moderators=8,
            population_engine="soa",
            columnar_state="on",
            moderation_interval=120.0,
            vote_interval=120.0,
            bartercast_interval=600.0,
            node=NodeConfig(b_max=50),
            aggregation=AggregationConfig(
                shards=self.shards, max_votes_per_interval=200, merge_fanout=2
            ),
        )
        config = ServiceConfig(
            shards=self.shards,
            until=hours * HOUR,
            checkpoint_interval=interval,
            shard=shard,
        )
        self.cluster = ShardCluster(config, directory=self.directory)
        self.checkpoint_s: List[float] = []
        self.checkpoint_bytes: List[float] = []
        self.restore_s = 0.0
        self.restored_identical = 0

    def _on_boundary(self, cluster: ShardCluster) -> None:
        for shard in cluster.shards:
            self.checkpoint_s.append(shard.ops["checkpoint_wall_last"])
            self.checkpoint_bytes.append(shard.ops["checkpoint_bytes_last"])

    def run(self, window) -> None:
        cluster = self.cluster
        with window:
            cluster.run(on_boundary=self._on_boundary)
        self.before = [shard.identity_state() for shard in cluster.shards]
        before_s = window.seconds
        with window:
            for shard_id in range(self.shards):
                cluster.restore_shard(shard_id)
        self.restore_s = window.seconds - before_s
        self.restored_identical = sum(
            shard.identity_state() == state
            for shard, state in zip(cluster.shards, self.before)
        )

    def observe(self) -> Dict[str, Any]:
        shards = self.cluster.shards
        obs = _observe_runtimes([s.runtime for s in shards], always_experienced=True)
        ops = {
            key: sum(s.aggregator.ops[key] for s in shards)
            for key in shards[0].aggregator.ops
        }
        checkpoints = len(self.checkpoint_s)
        rank_distance = max_cross_shard_rank_distance(shards, self.top_k)
        obs["checks"] += [
            ("shard_restores_identical", self.shards, self.shards - self.restored_identical),
            ("dht_messages_not_timed_out", int(ops["dht_messages"]), int(ops["timeouts"])),
            (
                "digest_pulls_not_failed",
                int(ops["digests_pulled"] + ops["pull_failures"]),
                int(ops["pull_failures"]),
            ),
        ]
        obs["checkpoint_s"] = self.checkpoint_s
        obs["restore_s"] = self.restore_s
        obs["counters"].update(
            {
                "service.checkpoints": checkpoints,
                "service.checkpoint_mb": statistics.fmean(self.checkpoint_bytes) / 1e6,
                "aggregation.digests_published": ops["digests_published"],
                "aggregation.digests_pulled": ops["digests_pulled"],
                "aggregation.remote_votes_merged": ops["remote_votes_merged"],
                "aggregation.merge_lag_votes": ops["pending_votes"],
                "aggregation.rank_distance": rank_distance,
                "dht.messages": ops["dht_messages"],
                "dht.timeouts": ops["timeouts"],
            }
        )
        obs["digest_parts"].append([s.aggregator.state_dict() for s in shards])
        return _finish(
            obs,
            {
                "rank_distance": rank_distance,
                "checkpoints": checkpoints,
                "remote_votes_merged": int(ops["remote_votes_merged"]),
                "dht_messages": int(ops["dht_messages"]),
            },
        )

    def close(self) -> None:
        shutil.rmtree(self.directory, ignore_errors=True)

    @staticmethod
    def counters(observations: Sequence[Dict[str, Any]]) -> Dict[str, float]:
        """Checkpoint latencies pooled over the run's units (12 per
        unit, so a 20 s run has the ten samples beyond p75 that one
        unit lacks), from the shards' own ``ops`` clocks."""
        checkpoint_s = [s for obs in observations for s in obs["checkpoint_s"]]
        quartiles = statistics.quantiles(checkpoint_s, n=4)
        return {
            **observations[-1]["counters"],
            "service.checkpoint_ms_p50": 1e3 * quartiles[1],
            "service.checkpoint_ms_p75": 1e3 * quartiles[2],
            "service.checkpoint_write_s": sum(checkpoint_s) / len(observations),
            "service.restore_all_s": statistics.median(
                obs["restore_s"] for obs in observations
            ),
        }


WORKLOADS = {w.name: w for w in (PaperFig6, SteadyVote, ChurnPopulation, ServiceCluster)}


def build(name: str, seed: int, size: str = "full"):
    """Set up one unit of workload ``name`` (this call is ``setup_s``)."""
    workload = WORKLOADS[name]
    return workload(seed, **workload.sizes[size])
