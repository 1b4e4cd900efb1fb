"""Long-lived service mode: sharded runs with crash-safe checkpoints.

The paper's host system "provides local database services allowing
state to be maintained over sessions" (§I) — a deployment is a
long-running process that restarts, not a batch run.  This module
operates the simulator that way:

* a :class:`ServiceShard` is one full protocol stack (engine, session,
  :class:`~repro.core.runtime.ProtocolRuntime`) over an always-online
  synthetic population, checkpointing its **complete** state — node
  databases with per-node RNG streams (persistence v3), registry
  stream states, the engine clock/seq counters, every pending schedule
  entry (heap events and the SoA scheduler's columns) and the
  run-level counters — on a configurable simulated-time interval;
* a :class:`ServiceSupervisor` runs N shards in spawn-safe worker
  processes (reusing ``repro.sim.parallel``'s plumbing), publishes
  live operational counters through a shared-memory block, restarts
  crashed shards from their last checkpoint, and snapshots everything
  as a :class:`ServiceStatus`.

Crash contract: ``kill -9`` on a shard worker, followed by a restore
from its last checkpoint, replays **bit-identically** to the same
shard never having been interrupted — same node states (including RNG
positions), same summaries, same schedule.  Two things make that hold:

* checkpoints are written atomically (same-directory temp +
  ``os.replace``), so a kill mid-write leaves the previous checkpoint
  readable instead of a torn JSON;
* both the interrupted and the uninterrupted run advance the clock in
  the same checkpoint-boundary slices, so the engine sees the same
  ``run_until`` call pattern.

Cache warmth (BarterCast record/contribution caches) is performance
state, not protocol state: a restarted process starts cold, exactly
like a rebooted client.  :meth:`ServiceShard.identity_state` is the
comparison surface that excludes it, measured memory telemetry (layout-
not protocol-determined) and the SoA scheduler's batch shape (a
checkpoint closes the open tick window, so where windows fall depends
on who checkpointed, not on the protocol).
"""

from __future__ import annotations

import json
import os
import signal
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Optional

import multiprocessing as mp

import numpy as np

from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.experience import AlwaysExperienced
from repro.core.node import NodeConfig
from repro.core.persistence import (
    atomic_write_text,
    node_from_dict,
    node_to_dict,
)
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.sim.aggregation import (
    AggregationConfig,
    DirectoryDigestBoard,
    ShardAggregator,
)
from repro.sim.engine import Engine
from repro.sim.parallel import (
    AttachedSegment,
    SegmentSpec,
    create_segment,
    ensure_child_importable,
    spawn_main_is_reimportable,
)
from repro.sim.rng import RngRegistry
from repro.traces.model import EventKind, PeerProfile, Trace, TraceEvent

#: On-disk checkpoint format of :meth:`ServiceShard.checkpoint_state`.
#: Format 2 adds the inter-shard aggregation section (cursors, pending
#: digests, backoff, ops) and the columnar row-table interning order
#: (remote merges intern foreign ids in arrival order); format-1
#: checkpoints still restore for shards that have aggregation disabled.
CHECKPOINT_FORMAT = 2
_READABLE_FORMATS = (1, CHECKPOINT_FORMAT)

#: A round interval so large the session's recurring transfer round is
#: a single far-future heap entry (service traces have no swarms, so
#: rounds would be no-ops anyway — but the entry must survive
#: checkpoints with its exact (time, seq) key either way).
_IDLE_ROUND_INTERVAL = 1.0e15

#: Nominal service horizon; shards run in checkpoint slices, so the
#: trace duration only has to exceed any realistic target time.
_SERVICE_TRACE_DURATION = 1.0e18

#: Node counters that must survive a restore for ``run_summary()``
#: bit-identity (they are volatile in the node-level persistence
#: format by design — a rebooted *client* resets them; a restored
#: *shard* must not).
_NODE_COUNTERS = (
    "moderations_received",
    "votes_merged",
    "votes_rejected_inexperienced",
    "votes_truncated",
    "vp_requests_answered",
    "vp_requests_declined",
)

# Live-counter block layout: one float64 row per shard.
_COUNTER_COLS = (
    "sim_now",
    "target",
    "events_fired",
    "votes_merged",
    "moderations_received",
    "exchanges",
    "checkpoints",
    "checkpoint_bytes_total",
    "checkpoint_wall_total",
    "checkpoint_wall_last",
    "digests_published",
    "digests_pulled",
    "dht_messages",
    "remote_votes_merged",
    "agg_pending_votes",
    "heartbeat",
    "pid",
)
_COL = {name: i for i, name in enumerate(_COUNTER_COLS)}


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardConfig:
    """One shard's deterministic build recipe (picklable; travels to
    the spawn worker verbatim, so a restart rebuilds the same stack)."""

    shard_id: int = 0
    peers: int = 64
    seed: int = 0
    #: first ``moderators`` peers author ``moderations_per_moderator``
    #: moderations each at t=0
    moderators: int = 4
    moderations_per_moderator: int = 3
    #: per (peer, moderator) pair: probability of declaring a vote
    #: intention, and the negative share of declared votes
    vote_probability: float = 0.6
    negative_fraction: float = 0.2
    moderation_interval: float = 300.0
    vote_interval: float = 300.0
    bartercast_interval: float = 900.0
    jitter_fraction: float = 0.1
    message_loss: float = 0.0
    population_engine: str = "auto"
    columnar_state: str = "auto"
    node: NodeConfig = field(default_factory=NodeConfig)
    #: inter-shard vote aggregation over the Chord ring; ``None``
    #: (default) keeps shards fully isolated as in PR 9
    aggregation: Optional[AggregationConfig] = None

    def peer_ids(self) -> List[str]:
        """Zero-padded ids: sorted order == creation order == row order."""
        return [f"s{self.shard_id:02d}p{i:05d}" for i in range(self.peers)]

    def registry_seed(self) -> int:
        """Per-shard root seed (distinct streams across shards)."""
        return (self.seed * 1_000_003 + 7919 * self.shard_id) % (2**63)


@dataclass(frozen=True)
class ServiceConfig:
    """Supervisor-level parameters."""

    shards: int = 2
    until: float = 4 * 3600.0
    checkpoint_interval: float = 3600.0
    shard: ShardConfig = field(default_factory=ShardConfig)
    #: how many times a crashed shard is restarted from its checkpoint
    #: before the supervisor gives up on it
    max_restarts: int = 3

    def shard_config(self, shard_id: int) -> ShardConfig:
        return replace(self.shard, shard_id=shard_id)


def _checkpoint_boundaries(start: float, until: float, interval: float) -> List[float]:
    """Checkpoint times in ``(start, until]``: integer multiples of
    ``interval`` plus the horizon itself.  Both the uninterrupted and
    the resumed run derive slices from this, which is what keeps their
    ``run_until`` call patterns — and therefore their SoA batch shapes
    — identical."""
    if interval <= 0:
        raise ValueError("checkpoint interval must be positive")
    out: List[float] = []
    k = int(start / interval) + 1
    t = k * interval
    while t < until:
        if t > start:
            out.append(t)
        k += 1
        t = k * interval
    if until > start:
        out.append(until)
    return out


# ----------------------------------------------------------------------
# One shard
# ----------------------------------------------------------------------
class ServiceShard:
    """One full protocol stack run as a checkpointable service shard.

    Build path::

        shard = ServiceShard(config)
        shard.start()                  # trace + deterministic workload
        shard.run_until(t)             # in checkpoint-boundary slices

    Restore path::

        shard = ServiceShard.restore(config, state_dict)

    after which the shard continues bit-identically to one that was
    never interrupted (see the module docstring's crash contract).
    """

    def __init__(self, config: ShardConfig):
        self.config = config
        self.engine = Engine()
        self.rng = RngRegistry(config.registry_seed())
        peer_ids = config.peer_ids()
        trace = Trace(
            duration=_SERVICE_TRACE_DURATION,
            peers={pid: PeerProfile(peer_id=pid) for pid in peer_ids},
            swarms={},
            events=[
                TraceEvent(time=0.0, peer_id=pid, kind=EventKind.SESSION_START)
                for pid in peer_ids
            ],
            name=f"service-shard-{config.shard_id}",
        )
        self.session = BitTorrentSession(
            self.engine,
            trace,
            self.rng,
            SessionConfig(round_interval=_IDLE_ROUND_INTERVAL),
        )
        self.runtime = ProtocolRuntime(
            self.session,
            self.rng,
            RuntimeConfig(
                node=config.node,
                moderation_interval=config.moderation_interval,
                vote_interval=config.vote_interval,
                bartercast_interval=config.bartercast_interval,
                jitter_fraction=config.jitter_fraction,
                message_loss=config.message_loss,
                population_engine=config.population_engine,
                columnar_state=config.columnar_state,
            ),
            experience=AlwaysExperienced(),
        )
        #: inter-shard aggregation state (None when disabled).  Built
        #: before any checkpoint so its RNG stream is registered — the
        #: generic ``rng_streams`` persistence then carries it.
        self.aggregator: Optional[ShardAggregator] = (
            ShardAggregator(config.aggregation, config.shard_id, self.rng)
            if config.aggregation is not None
            else None
        )
        self._started = False
        #: operational (non-identity) counters
        self.ops: Dict[str, float] = {
            "checkpoints": 0,
            "checkpoint_bytes_last": 0,
            "checkpoint_bytes_total": 0,
            "checkpoint_wall_last": 0.0,
            "checkpoint_wall_total": 0.0,
            "restores": 0,
        }

    # ------------------------------------------------------------------
    # Build
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bring every peer online and seed the deterministic workload
        (moderations authored at t=0, vote intentions that fire as
        ModerationCast spreads the metadata)."""
        if self._started:
            raise RuntimeError("shard already started")
        self._started = True
        self.session.start()
        self.engine.run_until(0.0)
        cfg = self.config
        peer_ids = cfg.peer_ids()
        moderator_ids = peer_ids[: cfg.moderators]
        for pid in moderator_ids:
            node = self.runtime.nodes[pid]
            for j in range(cfg.moderations_per_moderator):
                node.create_moderation(
                    torrent_id=f"t-{pid}-{j}",
                    title=f"release {j} by {pid}",
                    now=0.0,
                )
        workload = self.rng.stream("service-workload")
        for pid in peer_ids:
            node = self.runtime.nodes[pid]
            for mod_id in moderator_ids:
                if mod_id == pid:
                    continue
                if workload.random() < cfg.vote_probability:
                    vote = (
                        Vote.NEGATIVE
                        if workload.random() < cfg.negative_fraction
                        else Vote.POSITIVE
                    )
                    node.set_vote_intention(mod_id, vote)

    def run_until(self, end_time: float) -> int:
        return self.engine.run_until(end_time)

    # ------------------------------------------------------------------
    # Checkpoint
    # ------------------------------------------------------------------
    def _session_round_entry(self) -> Optional[Dict[str, float]]:
        """The pending transfer-round heap entry's exact key."""
        for entry_time, prio, seq, handle in self.engine.live_entries():
            if handle.callback == self.session._run_rounds:
                return {"time": entry_time, "priority": prio, "seq": seq}
        return None

    def _population_state(self) -> Dict[str, Any]:
        if self.runtime.population_engine == "soa":
            population = self.runtime.materialize_population()
            return {"engine": "soa", "schedule": population.schedule_state()}
        # Object engine: map each peer's pending PeriodicProcess ticks
        # back to their exact heap keys by handle identity.
        by_handle = {
            id(handle): (entry_time, seq)
            for entry_time, _prio, seq, handle in self.engine.live_entries()
        }
        procs_state: Dict[str, List[Optional[Dict[str, float]]]] = {}
        for pid, procs in self.runtime._processes.items():
            rows: List[Optional[Dict[str, float]]] = []
            for proc in procs:
                handle = proc._handle
                if proc.running and handle is not None and handle.active:
                    entry_time, seq = by_handle[id(handle)]
                    rows.append({"time": entry_time, "seq": seq, "ticks": proc.ticks})
                else:
                    rows.append(None)
            procs_state[pid] = rows
        return {"engine": "object", "procs": procs_state}

    def checkpoint_state(self) -> Dict[str, Any]:
        """The shard's complete state as one JSON-clean dict."""
        if not self._started:
            raise RuntimeError("cannot checkpoint before start()")
        engine = self.engine
        rng_streams = [
            [list(key), gen.bit_generator.state]
            for key, gen in self.rng._streams.items()
        ]
        nodes = [
            {
                "state": node_to_dict(node),
                "online": bool(node.online),
                "counters": {name: getattr(node, name) for name in _NODE_COUNTERS},
            }
            for node in self.runtime.nodes.values()
        ]
        state = {
            "format": CHECKPOINT_FORMAT,
            "shard_id": self.config.shard_id,
            "sim": {
                "now": engine.now,
                "seq": engine._seq,
                "events_fired": engine.events_fired,
            },
            "session": {
                "last_round_at": self.session._last_round_at,
                "round": self._session_round_entry(),
            },
            "registry_order": self.session.registry.online_peers(),
            "rng_streams": rng_streams,
            "population": self._population_state(),
            "counters": self.runtime.counters_state(),
            "nodes": nodes,
            "ops": dict(self.ops),
        }
        if self.runtime._col_store is not None:
            # Shared row-table interning order.  Remote digest merges
            # intern *foreign* voter and moderator ids in arrival
            # order, which node-by-node restore cannot reproduce — and
            # the SoA schedule restore asserts exact row numbers.
            store = self.runtime._col_store
            state["columnar_rows"] = {
                "rows": list(store.rows.ids),
                "mods": list(store.mods.ids),
            }
        if self.aggregator is not None:
            state["aggregation"] = self.aggregator.state_dict()
        return state

    def write_checkpoint(self, directory: Path) -> int:
        """Atomically persist :meth:`checkpoint_state`; returns bytes
        written (ops counters pick up latency and size)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        payload = json.dumps(self.checkpoint_state(), separators=(",", ":"))
        atomic_write_text(directory / "checkpoint.json", payload)
        wall = time.perf_counter() - t0
        size = len(payload.encode("utf-8"))
        self.ops["checkpoints"] += 1
        self.ops["checkpoint_bytes_last"] = size
        self.ops["checkpoint_bytes_total"] += size
        self.ops["checkpoint_wall_last"] = wall
        self.ops["checkpoint_wall_total"] += wall
        return size

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    @classmethod
    def restore(cls, config: ShardConfig, state: Dict[str, Any]) -> "ServiceShard":
        """Rebuild a shard positioned exactly at a checkpoint."""
        fmt = state.get("format")
        if fmt not in _READABLE_FORMATS:
            raise ValueError(f"unsupported shard checkpoint format {fmt!r}")
        if state.get("shard_id") != config.shard_id:
            raise ValueError(
                f"checkpoint is for shard {state.get('shard_id')!r}, "
                f"config says {config.shard_id!r}"
            )
        shard = cls(config)
        shard._started = True
        engine = shard.engine
        sim = state["sim"]
        engine.restore_clock(
            sim["now"], seq=sim["seq"], events_fired=sim["events_fired"]
        )
        # Session: trace events all fired at t=0; only the recurring
        # round entry (and its cadence anchor) survives checkpoints.
        session = shard.session
        session._started = True
        session._last_round_at = state["session"]["last_round_at"]
        round_entry = state["session"]["round"]
        if round_entry is not None:
            engine.restore_event(
                round_entry["time"],
                int(round_entry["priority"]),
                int(round_entry["seq"]),
                session._run_rounds,
            )
        # Online order drives OraclePSS's index->peer mapping; replay
        # it exactly (no listeners are registered at this point).
        for pid in state["registry_order"]:
            session.registry.set_online(pid)
        # Stream states: the registry memoises by key, so components
        # that already grabbed a generator in __init__ (pss,
        # message-loss) observe the restored state through the same
        # object.
        for key, gen_state in state["rng_streams"]:
            shard.rng.stream(*key).bit_generator.state = gen_state
        # Nodes, in saved (== creation == columnar row) order.  The
        # node's RNG comes from the v3 payload; per-run counters are
        # volatile in the node format but durable at the shard level.
        # Rows are pre-assigned first: restoring a ballot box interns
        # its *voters* into the shared row table, so without this the
        # first node's voters would grab rows ahead of later nodes.
        # Format 2 saves the whole interning order (aggregation merges
        # remote voters/moderators in arrival order, which node order
        # cannot reproduce); format 1 falls back to node order, which
        # is exact when every voter is a local peer.
        runtime = shard.runtime
        if runtime._col_store is not None:
            saved_rows = state.get("columnar_rows")
            if saved_rows is not None:
                for pid in saved_rows["rows"]:
                    runtime._col_store.ensure_row(pid)
                for mid in saved_rows["mods"]:
                    runtime._col_store.mods.row(mid)
            else:
                for rec in state["nodes"]:
                    runtime._col_store.ensure_row(rec["state"]["peer_id"])
        for rec in state["nodes"]:
            node = node_from_dict(rec["state"], col_store=runtime._col_store)
            node.online = bool(rec["online"])
            for name, value in rec["counters"].items():
                setattr(node, name, int(value))
            runtime.nodes[node.peer_id] = node
        runtime.restore_counters(state["counters"])
        population = state["population"]
        if population["engine"] == "soa":
            if runtime.population_engine != "soa":
                raise ValueError("checkpoint used the soa engine, config does not")
            runtime.materialize_population().restore_schedule_state(
                population["schedule"]
            )
        else:
            if runtime.population_engine == "soa":
                raise ValueError("checkpoint used the object engine, config does not")
            for pid, rows in population["procs"].items():
                procs = runtime._processes_for(pid)
                for proc, row in zip(procs, rows):
                    if row is not None:
                        proc.restore(row["time"], int(row["seq"]), int(row["ticks"]))
        aggregation_state = state.get("aggregation")
        if shard.aggregator is not None:
            if aggregation_state is None:
                raise ValueError(
                    "config enables aggregation but the checkpoint has no "
                    "aggregation state"
                )
            shard.aggregator.restore_state(aggregation_state)
        elif aggregation_state is not None:
            raise ValueError(
                "checkpoint carries aggregation state but the config "
                "disables aggregation"
            )
        shard.ops.update(state.get("ops", {}))
        shard.ops["restores"] = shard.ops.get("restores", 0) + 1
        return shard

    @classmethod
    def restore_from(cls, config: ShardConfig, directory: Path) -> "ServiceShard":
        path = Path(directory) / "checkpoint.json"
        return cls.restore(config, json.loads(path.read_text(encoding="utf-8")))

    # ------------------------------------------------------------------
    # Service loop & reporting
    # ------------------------------------------------------------------
    def run_service(
        self,
        until: float,
        checkpoint_interval: float,
        directory: Optional[Path] = None,
        should_stop=None,
        on_slice=None,
        board=None,
    ) -> None:
        """Advance to ``until`` in checkpoint-boundary slices, writing
        a checkpoint (when ``directory`` is set) at every boundary.

        With aggregation enabled and a ``board``, each slice runs the
        aggregation cycle: pending remote digests merge at the *start*
        of the slice (so a restore at a boundary replays the staged
        merge before re-running the slice), and publish/pull happen at
        the boundary, *before* the checkpoint captures their cursors
        and staged digests.

        ``should_stop()`` is polled between slices (graceful SIGTERM);
        ``on_slice(shard)`` runs after every slice (live counters)."""
        aggregator = self.aggregator if board is not None else None
        for boundary in _checkpoint_boundaries(
            self.engine.now, until, checkpoint_interval
        ):
            if aggregator is not None:
                aggregator.merge_pending(self)
            self.run_until(boundary)
            if aggregator is not None:
                aggregator.publish(self, board)
                aggregator.pull(self, board)
            if directory is not None:
                self.write_checkpoint(directory)
            if on_slice is not None:
                on_slice(self)
            if should_stop is not None and should_stop():
                return

    def eviction_pressure(self) -> float:
        """Share of nodes whose ballot box sits at ``B_max`` (every
        further merge of a new voter evicts) — the live saturation
        signal for the vote-sample stores."""
        nodes = self.runtime.nodes
        if not nodes:
            return 0.0
        full = sum(
            1
            for node in nodes.values()
            if node.ballot_box.num_unique_users() >= node.config.b_max
        )
        return full / len(nodes)

    def run_summary(self) -> Dict[str, Any]:
        """The runtime's summary plus a ``service`` section (shard id,
        clock, checkpoint ops, eviction pressure)."""
        summary = self.runtime.run_summary()
        summary["service"] = {
            "shard_id": self.config.shard_id,
            "sim_now": self.engine.now,
            "events_fired": self.engine.events_fired,
            "eviction_pressure": self.eviction_pressure(),
            "ops": dict(self.ops),
        }
        if self.aggregator is not None:
            summary["service"]["aggregation"] = dict(self.aggregator.ops)
        return summary

    def identity_state(self) -> Dict[str, Any]:
        """The bit-identity comparison surface: everything protocol-
        determined, nothing process-local.

        Excluded (see module docstring): BarterCast cache telemetry
        (cold after a restart by design), measured memory footprints
        (layout-determined), the scheduler's batch shape (checkpoint-
        placement-determined), and checkpoint ops."""
        summary = self.runtime.run_summary()
        summary["bartercast"] = {
            "exchanges": summary["bartercast"]["exchanges"]
        }
        population = dict(summary["population"])
        for key in (
            "ballot_memory_bytes",
            "scheduler_memory_bytes",
            "batches",
            "mean_batch_size",
            "max_batch_size",
        ):
            population.pop(key, None)
        summary["population"] = population
        state = {
            "sim_now": self.engine.now,
            "events_fired": self.engine.events_fired,
            "summary": summary,
            "nodes": [node_to_dict(node) for node in self.runtime.nodes.values()],
        }
        if self.aggregator is not None:
            # Deterministic under lockstep driving (ShardCluster /
            # single-shard run_service): epoch, cursors, staged
            # digests, and message ledgers all replay bit-identically.
            state["aggregation"] = self.aggregator.state_dict()
        return state


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
_WORKER_STOP = False


def _worker_sigterm(_signum, _frame) -> None:  # pragma: no cover - signal path
    global _WORKER_STOP
    _WORKER_STOP = True


def _shard_worker_main(
    config: ShardConfig,
    shard_dir: str,
    until: float,
    checkpoint_interval: float,
    resume: bool,
    counters_spec: Optional[SegmentSpec],
    counters_row: int,
) -> None:
    """Spawn entry point for one shard worker.

    Builds (or restores) the shard, runs it to ``until`` in checkpoint
    slices, and mirrors live counters into the supervisor's shared
    block after every slice.  SIGTERM checkpoints and exits cleanly;
    SIGKILL is the crash case the checkpoint format is built for.
    """
    global _WORKER_STOP
    _WORKER_STOP = False
    signal.signal(signal.SIGTERM, _worker_sigterm)
    directory = Path(shard_dir)
    checkpoint_path = directory / "checkpoint.json"
    if resume and checkpoint_path.exists():
        shard = ServiceShard.restore_from(config, directory)
    else:
        shard = ServiceShard(config)
        shard.start()
    # Aggregating workers share one digest directory next to the shard
    # directories — the storage half of the DHT, which (unlike the
    # worker process) survives a SIGKILL.
    board = (
        DirectoryDigestBoard(directory.parent / "dht")
        if shard.aggregator is not None
        else None
    )

    segment = (
        AttachedSegment(counters_spec, writable=True)
        if counters_spec is not None
        else None
    )
    counters = segment.arrays["counters"] if segment is not None else None
    wall_start = time.perf_counter()

    def publish(s: ServiceShard) -> None:
        if counters is None:
            return
        row = counters[counters_row]
        node_counters = s.runtime.node_counters()
        row[_COL["sim_now"]] = s.engine.now
        row[_COL["target"]] = until
        row[_COL["events_fired"]] = s.engine.events_fired
        row[_COL["votes_merged"]] = node_counters["votes_merged"]
        row[_COL["moderations_received"]] = node_counters["moderations_received"]
        row[_COL["exchanges"]] = s.runtime.traffic.total_exchanges()
        row[_COL["checkpoints"]] = s.ops["checkpoints"]
        row[_COL["checkpoint_bytes_total"]] = s.ops["checkpoint_bytes_total"]
        row[_COL["checkpoint_wall_total"]] = s.ops["checkpoint_wall_total"]
        row[_COL["checkpoint_wall_last"]] = s.ops["checkpoint_wall_last"]
        if s.aggregator is not None:
            agg = s.aggregator.ops
            row[_COL["digests_published"]] = agg["digests_published"]
            row[_COL["digests_pulled"]] = agg["digests_pulled"]
            row[_COL["dht_messages"]] = agg["dht_messages"]
            row[_COL["remote_votes_merged"]] = agg["remote_votes_merged"]
            row[_COL["agg_pending_votes"]] = agg["pending_votes"]
        row[_COL["heartbeat"]] = time.time()
        row[_COL["pid"]] = os.getpid()

    publish(shard)
    try:
        shard.run_service(
            until,
            checkpoint_interval,
            directory=directory,
            should_stop=lambda: _WORKER_STOP,
            on_slice=publish,
            board=board,
        )
        summary = shard.run_summary()
        summary["service"]["worker_wall_seconds"] = time.perf_counter() - wall_start
        atomic_write_text(directory / "status.json", json.dumps(summary))
    finally:
        if segment is not None:
            segment.close()


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
@dataclass
class ServiceStatus:
    """One snapshot of the whole service's operational counters.

    Rates are differenced between consecutive supervisor snapshots
    (wall-clock), so they reflect live throughput, not lifetime means.
    """

    wall_time: float
    shards: List[Dict[str, Any]]
    totals: Dict[str, Any]

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)


class ServiceSupervisor:
    """Runs N shard workers, publishes status, survives crashes.

    Usage::

        with ServiceSupervisor(config, directory) as sup:
            sup.start()
            while not sup.done():
                time.sleep(5)
                sup.poll()
                print(sup.status().totals)
    """

    def __init__(self, config: ServiceConfig, directory: Path, resume: bool = False):
        if config.shards < 1:
            raise ValueError("need at least one shard")
        self.config = config
        self.directory = Path(directory)
        self.resume = resume
        self._ctx = mp.get_context("spawn")
        self._procs: List[Optional[mp.process.BaseProcess]] = [None] * config.shards
        self._restarts = [0] * config.shards
        self._gave_up = [False] * config.shards
        self._shm = None
        self._spec: Optional[SegmentSpec] = None
        self._view: Optional[np.ndarray] = None
        self._prev_snapshot: Optional[List[Dict[str, float]]] = None
        self._prev_wall: Optional[float] = None

    # ------------------------------------------------------------------
    def shard_dir(self, shard_id: int) -> Path:
        return self.directory / f"shard-{shard_id:02d}"

    def start(self) -> None:
        if not spawn_main_is_reimportable():
            raise RuntimeError(
                "spawn workers cannot re-import __main__ here; run the "
                "service from a real script or module"
            )
        ensure_child_importable()
        self.directory.mkdir(parents=True, exist_ok=True)
        zeros = np.zeros((self.config.shards, len(_COUNTER_COLS)), dtype=np.float64)
        self._shm, self._spec = create_segment({"counters": zeros})
        self._view = np.ndarray(
            zeros.shape, dtype=np.float64, buffer=self._shm.buf,
            offset=self._spec.entries[0][1],
        )
        for shard_id in range(self.config.shards):
            self._spawn(shard_id, resume=self.resume)

    def _spawn(self, shard_id: int, resume: bool) -> None:
        proc = self._ctx.Process(
            target=_shard_worker_main,
            args=(
                self.config.shard_config(shard_id),
                str(self.shard_dir(shard_id)),
                self.config.until,
                self.config.checkpoint_interval,
                resume,
                self._spec,
                shard_id,
            ),
            daemon=True,
        )
        proc.start()
        self._procs[shard_id] = proc

    # ------------------------------------------------------------------
    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL a shard worker (crash-injection hook; the next
        :meth:`poll` restarts it from its last checkpoint)."""
        proc = self._procs[shard_id]
        if proc is not None and proc.is_alive():
            os.kill(proc.pid, signal.SIGKILL)
            proc.join()

    def poll(self) -> None:
        """Reap exited workers; restart crashed ones from checkpoints."""
        for shard_id, proc in enumerate(self._procs):
            if proc is None or proc.is_alive():
                continue
            proc.join()
            if proc.exitcode == 0:
                self._procs[shard_id] = None
                continue
            if self._restarts[shard_id] >= self.config.max_restarts:
                self._procs[shard_id] = None
                self._gave_up[shard_id] = True
                continue
            self._restarts[shard_id] += 1
            self._spawn(shard_id, resume=True)

    def done(self) -> bool:
        return all(proc is None for proc in self._procs)

    # ------------------------------------------------------------------
    def status(self) -> ServiceStatus:
        """Snapshot the live counters block into a :class:`ServiceStatus`
        (rates differenced against the previous snapshot)."""
        now_wall = time.time()
        view = self._view
        rows: List[Dict[str, float]] = []
        if view is not None:
            for shard_id in range(self.config.shards):
                rows.append(
                    {name: float(view[shard_id, i]) for name, i in _COL.items()}
                )
        shards: List[Dict[str, Any]] = []
        max_sim = max((row["sim_now"] for row in rows), default=0.0)
        dt = (
            now_wall - self._prev_wall
            if self._prev_wall is not None and now_wall > self._prev_wall
            else None
        )
        for shard_id, row in enumerate(rows):
            prev = (
                self._prev_snapshot[shard_id]
                if self._prev_snapshot is not None
                else None
            )

            def rate(key: str) -> float:
                if prev is None or dt is None:
                    return 0.0
                return max(0.0, row[key] - prev[key]) / dt

            proc = self._procs[shard_id]
            ckpts = row["checkpoints"]
            shards.append(
                {
                    "shard_id": shard_id,
                    "alive": bool(proc is not None and proc.is_alive()),
                    "gave_up": self._gave_up[shard_id],
                    "restarts": self._restarts[shard_id],
                    "pid": int(row["pid"]),
                    "sim_now": row["sim_now"],
                    "target": row["target"],
                    "lag_behind_leader": max_sim - row["sim_now"],
                    "events_fired": int(row["events_fired"]),
                    "votes_merged": int(row["votes_merged"]),
                    "merges_per_sec": rate("votes_merged"),
                    "moderations_per_sec": rate("moderations_received"),
                    "exchanges_per_sec": rate("exchanges"),
                    "events_per_sec": rate("events_fired"),
                    "checkpoints": int(ckpts),
                    "checkpoint_bytes_mean": (
                        row["checkpoint_bytes_total"] / ckpts if ckpts else 0.0
                    ),
                    "checkpoint_wall_last": row["checkpoint_wall_last"],
                    "checkpoint_wall_total": row["checkpoint_wall_total"],
                    "digests_published_per_sec": rate("digests_published"),
                    "digests_pulled_per_sec": rate("digests_pulled"),
                    "dht_messages_per_sec": rate("dht_messages"),
                    "remote_votes_merged": int(row["remote_votes_merged"]),
                    "merge_lag_votes": int(row["agg_pending_votes"]),
                    "heartbeat_age": (
                        now_wall - row["heartbeat"] if row["heartbeat"] else None
                    ),
                }
            )
        totals: Dict[str, Any] = {
            "shards": self.config.shards,
            "alive": sum(1 for s in shards if s["alive"]),
            "sim_now_min": min((s["sim_now"] for s in shards), default=0.0),
            "sim_now_max": max_sim,
            "max_lag": max((s["lag_behind_leader"] for s in shards), default=0.0),
            "votes_merged": sum(s["votes_merged"] for s in shards),
            "merges_per_sec": sum(s["merges_per_sec"] for s in shards),
            "exchanges_per_sec": sum(s["exchanges_per_sec"] for s in shards),
            "checkpoints": sum(s["checkpoints"] for s in shards),
            "restarts": sum(self._restarts),
            "dht_messages_per_sec": sum(s["dht_messages_per_sec"] for s in shards),
            "merge_lag_votes": sum(s["merge_lag_votes"] for s in shards),
        }
        self._prev_snapshot = rows
        self._prev_wall = now_wall
        return ServiceStatus(wall_time=now_wall, shards=shards, totals=totals)

    def shard_summary(self, shard_id: int) -> Optional[Dict[str, Any]]:
        """The shard's last written ``status.json`` (full run_summary
        including cache hit rates), or ``None`` before the first one."""
        path = self.shard_dir(shard_id) / "status.json"
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))

    # ------------------------------------------------------------------
    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM every worker (each writes a final checkpoint)."""
        for proc in self._procs:
            if proc is not None and proc.is_alive():
                proc.terminate()
        deadline = time.time() + timeout
        for proc in self._procs:
            if proc is not None:
                proc.join(max(0.0, deadline - time.time()))

    def close(self) -> None:
        self.stop(timeout=5.0)
        for shard_id, proc in enumerate(self._procs):
            if proc is not None and proc.is_alive():  # pragma: no cover
                os.kill(proc.pid, signal.SIGKILL)
                proc.join()
            self._procs[shard_id] = None
        self._view = None
        if self._shm is not None:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._shm.close()
            self._shm = None

    def __enter__(self) -> "ServiceSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
