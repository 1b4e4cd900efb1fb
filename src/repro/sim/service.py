"""Long-lived service mode: sharded runs with crash-safe checkpoints.

The paper's host system "provides local database services allowing
state to be maintained over sessions" (§I) — a deployment is a
long-running process that restarts, not a batch run.  This module
operates the simulator that way:

* a :class:`ServiceShard` is one full protocol stack (engine, session,
  :class:`~repro.core.runtime.ProtocolRuntime` on its production path:
  SoA scheduler + columnar state) over an always-online synthetic
  population, checkpointing its **complete** state on a configurable
  simulated-time interval;
* a :class:`ServiceSupervisor` runs N shards in spawn-safe worker
  processes (reusing ``repro.sim.parallel``'s plumbing), restarts
  crashed shards from their last checkpoint, and snapshots everything
  as a :class:`ServiceStatus`.

**One status channel.**  Each worker publishes its shard's
:meth:`ServiceShard.run_summary` as :data:`STATUS_FILE` in the shard
directory — once after build or restore and again after every slice —
with its own ``pid``, ``heartbeat`` and ``worker_wall_seconds`` added
to the document's ``service`` section.  The file is replaced
atomically, so a reader sees one slice's summary or the next, never a
mix.  The supervisor reads those files and nothing else: its rates are
differences between consecutive snapshots of them.

**The columns are the checkpoint.**  A shard's state already lives in
numpy columns, so one checkpoint file (:data:`CHECKPOINT_FILE`, the
container of :mod:`repro.core.checkpoint`) is those columns dumped as
checksummed sections — ``store.*`` (:meth:`ColumnarStateStore
.dump_state`: intern tables, ballot columns, vote pool), ``sched.*``
(:meth:`PopulationEngine.schedule_state`: next-tick/seq columns,
jitter buffers), ``nodes.*`` (:func:`~repro.core.persistence
.nodes_to_columns`: what nodes hold outside the store) and ``rng.*``
(the per-peer ``node`` and ``jitter`` stream positions by row; the
scheduler's jitter column is saved here, once) — behind a
small JSON header with the scalar state: engine clock/seq, the session
round's heap key, registry online order, the named RNG streams, the
run-level counters, aggregation state and ops.  Restore loads the
arrays into a fresh stack and constructs the nodes as views over them;
nothing is replayed.  Cost is proportional to bytes, not to Python
objects.

Crash contract: ``kill -9`` on a shard worker, followed by a restore
from its last checkpoint, replays **bit-identically** to the same
shard never having been interrupted — same node states (including RNG
positions), same summaries, same schedule.  Four things make that
hold:

* checkpoints are written atomically (same-directory temp +
  ``os.replace``), so a kill mid-write leaves the previous checkpoint
  readable instead of a torn file;
* a damaged file — truncated anywhere, one flipped byte, another
  shard's, or arrays that do not fit the header — raises
  :class:`~repro.core.checkpoint.CheckpointError` naming the file and
  section; a shard is never half-restored;
* a shard holding behaviour rows (a flash crowd) refuses to write a
  checkpoint at all, with the same error naming the rows: the format
  does not store behaviour codes yet, and restoring the rows as honest
  nodes would be silently wrong;
* both the interrupted and the uninterrupted run advance the clock in
  the same checkpoint-boundary slices, so the engine sees the same
  ``run_until`` call pattern.

Cache warmth (the BarterCast record cache) is performance
state, not protocol state: a restarted process starts cold, exactly
like a rebooted client.  :meth:`ServiceShard.identity_state` is the
comparison surface that excludes it, measured memory and payload-pool
telemetry (layout- not protocol-determined) and the SoA scheduler's
batch shape (a checkpoint closes the open tick window, so where windows
fall depends on who checkpointed, not on the protocol).
"""

from __future__ import annotations

import gc
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
from repro.core.checkpoint import (
    CheckpointError,
    read_sections,
    take,
    write_sections,
)
from repro.core.columnar import RowTable
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.persistence import (
    atomic_write_text,
    node_to_dict,
    nodes_from_columns,
    nodes_to_columns,
)
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.sim.aggregation import (
    AggregationConfig,
    DirectoryDigestBoard,
    ShardAggregator,
)
from repro.sim.engine import Engine
from repro.sim.parallel import ensure_child_importable, spawn_main_is_reimportable
from repro.sim.rng import RngRegistry
from repro.traces.model import EventKind, PeerProfile, Trace, TraceEvent

#: The shard's checkpoint file inside its directory.
CHECKPOINT_FILE = "checkpoint.ckpt"

#: The worker's live status document inside the shard directory.
STATUS_FILE = "status.json"

#: The registry's stream family with one generator per peer; its
#: states are checkpointed as a row-keyed ``rng.node`` array, every
#: other registry stream by key in the header.  ``rng.jitter`` has the
#: same layout and is the scheduler's own column.
_NODE_STREAM = "node"
_MASK64 = (1 << 64) - 1

#: A round interval so large the session's recurring transfer round is
#: a single far-future heap entry (service traces have no swarms, so
#: rounds would be no-ops anyway — but the entry must survive
#: checkpoints with its exact (time, seq) key either way).
_IDLE_ROUND_INTERVAL = 1.0e15

#: Nominal service horizon; shards run in checkpoint slices, so the
#: trace duration only has to exceed any realistic target time.
_SERVICE_TRACE_DURATION = 1.0e18


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
    #: Single-valued, as on ``RuntimeConfig``: a shard runs the one
    #: production path (SoA scheduler, columnar state), which is what
    #: its checkpoint dumps.  The fields remain only because the repo
    #: benchmark's workloads spell that path out; they leave when the
    #: benchmark is re-baselined (ROADMAP item 1).
    population_engine: str = "soa"
    columnar_state: str = "on"
    node: NodeConfig = field(default_factory=NodeConfig)
    #: inter-shard vote aggregation over the Chord ring; ``None``
    #: (default) keeps shards fully isolated as in PR 9
    aggregation: Optional[AggregationConfig] = None

    def __post_init__(self) -> None:
        if self.population_engine != "soa":
            raise ValueError("a service shard runs population_engine='soa'")
        if self.columnar_state != "on":
            raise ValueError("a service shard runs columnar_state='on'")
        if self.peers < 1:
            raise ValueError("a shard needs peers >= 1")
        if not 0 <= self.moderators <= self.peers:
            raise ValueError("moderators must be in [0, peers]")
        for name in ("vote_probability", "negative_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        # the intervals, jitter and message loss are the runtime's
        # parameters: its own checks apply
        self.runtime_config()

    def runtime_config(self) -> RuntimeConfig:
        """The runtime parameters this shard's stack runs with."""
        return RuntimeConfig(
            node=self.node,
            moderation_interval=self.moderation_interval,
            vote_interval=self.vote_interval,
            bartercast_interval=self.bartercast_interval,
            jitter_fraction=self.jitter_fraction,
            message_loss=self.message_loss,
        )

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

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.until < 0:
            raise ValueError("until must be >= 0")
        if self.checkpoint_interval <= 0:
            raise ValueError("checkpoint_interval must be positive")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")

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

        shard = ServiceShard.restore_from(config, directory)

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
            config.runtime_config(),
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

    def _rng_state(self, rows: RowTable, jitter: np.ndarray) -> Dict[str, Any]:
        """The random streams as one checkpoint component: the
        per-peer families as ``[rows, 6]`` uint64 arrays keyed by row
        (128-bit state and increment as high/low words, then the two
        buffered-uint32 fields; all-zero = the peer has no such stream
        or never drew from it — a PCG64 increment is odd), every other
        registry stream as ``[key, state]`` pairs under ``named``.
        ``jitter`` is the scheduler's column, already in that
        layout."""
        named: List[Any] = []
        nodes = np.zeros((len(rows), 6), dtype=np.uint64)
        state: Dict[str, Any] = {"named": named, _NODE_STREAM: nodes, "jitter": jitter}
        for key, gen in self.rng.streams().items():
            bits = gen.bit_generator.state
            row = rows.get(key[1]) if len(key) == 2 else None
            if row is None or key[0] != _NODE_STREAM:
                named.append([list(key), bits])
                continue
            if bits["bit_generator"] != "PCG64":
                raise RuntimeError(f"cannot checkpoint a {bits['bit_generator']} stream")
            inner = bits["state"]
            nodes[row] = np.array(
                [
                    inner["state"] >> 64,
                    inner["state"] & _MASK64,
                    inner["inc"] >> 64,
                    inner["inc"] & _MASK64,
                    bits["has_uint32"],
                    bits["uinteger"],
                ],
                dtype=np.uint64,
            )
        return state

    def write_checkpoint(self, directory: Path) -> int:
        """Atomically persist the shard's complete state as one
        sectioned file (see the module docstring); returns bytes
        written (ops counters pick up latency and size)."""
        if not self._started:
            raise RuntimeError("cannot checkpoint before start()")
        behaviour = self.runtime._col_store.behaviour
        if behaviour:
            # Behaviour codes and the crowd's lists are not in the
            # checkpoint format: refuse rather than restore them honest.
            ids = self.runtime._col_store.rows.ids
            raise CheckpointError(
                "cannot checkpoint rows with a behaviour code: "
                + ", ".join(f"{row} ({ids[row]})" for row in sorted(behaviour))
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        engine = self.engine
        runtime = self.runtime
        store = runtime._col_store
        header: Dict[str, Any] = {
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
            "counters": runtime.counters_state(),
            "ops": dict(self.ops),
        }
        if self.aggregator is not None:
            header["aggregation"] = self.aggregator.state_dict()
        sched = runtime.materialize_population().schedule_state()
        components = {
            "rng": self._rng_state(store.rows, sched.pop("jit_state")),
            "store": store.dump_state(),
            "sched": sched,
            "nodes": nodes_to_columns(runtime.nodes.values()),
        }
        size = write_sections(directory / CHECKPOINT_FILE, header, components)
        wall = time.perf_counter() - t0
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
    def restore_from(cls, config: ShardConfig, directory: Path) -> "ServiceShard":
        """Rebuild a shard positioned exactly at its last checkpoint.
        Anything wrong with the file raises :class:`CheckpointError`
        (before a shard object exists for the caller to misuse)."""
        path = Path(directory) / CHECKPOINT_FILE
        # Nearly everything a restore allocates is the new shard's
        # long-lived state; cyclic collections mid-rebuild would only
        # rescan it (and whichever full collection falls due would land
        # inside the restore), so the collector waits until it is done.
        enabled = gc.isenabled()
        gc.disable()
        try:
            header, components = read_sections(path)
            try:
                return cls._from_sections(config, header, components)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                raise CheckpointError(f"{path}: {exc}") from exc
        finally:
            if enabled:
                gc.enable()

    @classmethod
    def _from_sections(
        cls,
        config: ShardConfig,
        header: Dict[str, Any],
        components: Dict[str, Dict[str, Any]],
    ) -> "ServiceShard":
        if header["shard_id"] != config.shard_id:
            raise CheckpointError(
                f"section 'header': checkpoint is for shard "
                f"{header['shard_id']!r}, config says {config.shard_id!r}"
            )
        shard = cls(config)
        shard._started = True
        engine = shard.engine
        sim = header["sim"]
        engine.restore_clock(
            sim["now"], seq=sim["seq"], events_fired=sim["events_fired"]
        )
        # Session: trace events all fired at t=0; only the recurring
        # round entry (and its cadence anchor) survives checkpoints.
        session = shard.session
        session._started = True
        session._last_round_at = header["session"]["last_round_at"]
        round_entry = header["session"]["round"]
        if round_entry is not None:
            engine.restore_event(
                round_entry["time"],
                int(round_entry["priority"]),
                int(round_entry["seq"]),
                session._run_rounds,
            )
        # Online order drives OraclePSS's index->peer mapping; replay
        # it exactly (no listeners are registered at this point).
        for pid in header["registry_order"]:
            session.registry.set_online(pid)
        runtime = shard.runtime
        store = runtime._col_store
        store.load_state(components["store"])
        # Streams: components that already grabbed a generator in
        # __init__ (pss, message-loss, aggregation) observe the restored
        # state through the same object; a node stream that had drawn
        # is registered at its saved state, for the node to pick up on
        # its next draw.  A zero row (never drawn) builds nothing: that
        # node derives its stream fresh, as the uninterrupted run does.
        rng = shard.rng
        for key, state in components["rng"]["named"]:
            rng.restore_stream(tuple(key), state)
        ids = store.rows.ids
        words = take(components["rng"], _NODE_STREAM, np.uint64, len(ids), 6)
        for row in np.nonzero(words[:, 3])[0].tolist():
            s_hi, s_lo, i_hi, i_lo, has_uint32, uinteger = words[row].tolist()
            rng.restore_stream(
                (_NODE_STREAM, ids[row]),
                {
                    "bit_generator": "PCG64",
                    "state": {
                        "state": (s_hi << 64) | s_lo,
                        "inc": (i_hi << 64) | i_lo,
                    },
                    "has_uint32": has_uint32,
                    "uinteger": uinteger,
                },
            )
        # Nodes are views: the ballot boxes already sit in the loaded
        # store, the rest comes from the ``nodes.*`` columns.
        for node in nodes_from_columns(
            components["nodes"],
            lambda pid: VoteSamplingNode(
                pid, config.node, runtime.node_rng, col_store=store
            ),
        ):
            runtime.nodes[node.peer_id] = node
        runtime.restore_counters(header["counters"])
        jitter = take(components["rng"], "jitter", np.uint64, len(ids), 6)
        runtime.materialize_population().restore_schedule_state(
            {**components["sched"], "jit_state": jitter}
        )
        aggregation_state = header.get("aggregation")
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
        shard.ops.update(header["ops"])
        shard.ops["restores"] += 1
        return shard

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
        ``on_slice(shard)`` runs after every slice (the worker's status
        document)."""
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
        and payload-pool telemetry (layout-determined), the scheduler's
        batch shape (checkpoint-placement-determined), and checkpoint
        ops."""
        summary = self.runtime.run_summary()
        summary["bartercast"] = {
            "exchanges": summary["bartercast"]["exchanges"]
        }
        population = dict(summary["population"])
        for key in (
            "ballot_memory_bytes",
            "ballot_pool",
            "scheduler_memory_bytes",
            "batches",
            "mean_batch_size",
            "max_batch_size",
            "batch_calls",
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
) -> None:
    """Spawn entry point for one shard worker.

    Builds (or restores) the shard, runs it to ``until`` in checkpoint
    slices, and publishes its status document (:data:`STATUS_FILE`)
    after the build and after every slice.  SIGTERM checkpoints and
    exits cleanly; SIGKILL is the crash case the checkpoint file is
    built for.
    """
    global _WORKER_STOP
    _WORKER_STOP = False
    signal.signal(signal.SIGTERM, _worker_sigterm)
    wall_start = time.perf_counter()
    directory = Path(shard_dir)
    if resume and (directory / CHECKPOINT_FILE).exists():
        shard = ServiceShard.restore_from(config, directory)
    else:
        shard = ServiceShard(config)
        shard.start()
    directory.mkdir(parents=True, exist_ok=True)
    # Aggregating workers share one digest directory next to the shard
    # directories — the storage half of the DHT, which (unlike the
    # worker process) survives a SIGKILL.
    board = (
        DirectoryDigestBoard(directory.parent / "dht")
        if shard.aggregator is not None
        else None
    )

    def publish(s: ServiceShard) -> None:
        summary = s.run_summary()
        summary["service"].update(
            pid=os.getpid(),
            heartbeat=time.time(),
            worker_wall_seconds=time.perf_counter() - wall_start,
        )
        atomic_write_text(directory / STATUS_FILE, json.dumps(summary))

    publish(shard)
    shard.run_service(
        until,
        checkpoint_interval,
        directory=directory,
        should_stop=lambda: _WORKER_STOP,
        on_slice=publish,
        board=board,
    )


# ----------------------------------------------------------------------
# Supervisor
# ----------------------------------------------------------------------
def _field(doc: Optional[Dict[str, Any]], path: str) -> float:
    """The number at dotted ``path`` in a status document, or 0 where
    the document or a section of it is absent (before a worker's first
    publish, or ``service.aggregation`` on a shard that does not
    aggregate).  A ``*`` step sums over every entry of a section:
    ``traffic.*.exchanges`` is all protocols' exchanges."""
    keys = path.split(".")
    value: Any = doc
    for i, key in enumerate(keys):
        if not isinstance(value, dict):
            return 0.0
        if key == "*":
            rest = ".".join(keys[i + 1 :])
            return sum(_field(entry, rest) for entry in value.values())
        value = value.get(key)
    return float(value) if value is not None else 0.0


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
        self.config = config
        self.directory = Path(directory)
        self.resume = resume
        self._ctx = mp.get_context("spawn")
        self._procs: List[Optional[mp.process.BaseProcess]] = [None] * config.shards
        self._restarts = [0] * config.shards
        self._gave_up = [False] * config.shards
        self._prev_docs: Optional[List[Dict[str, Any]]] = None
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
        for shard_id in range(self.config.shards):
            if not self.resume:
                # A fresh run must not report an older run's status.
                (self.shard_dir(shard_id) / STATUS_FILE).unlink(missing_ok=True)
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
        """Snapshot every shard's status document into a
        :class:`ServiceStatus` (rates differenced against the documents
        of the previous snapshot)."""
        now_wall = time.time()
        docs = [self.shard_summary(i) for i in range(self.config.shards)]
        prev_docs = self._prev_docs
        dt = (
            now_wall - self._prev_wall
            if self._prev_wall is not None and now_wall > self._prev_wall
            else None
        )
        max_sim = max((_field(doc, "service.sim_now") for doc in docs), default=0.0)
        shards: List[Dict[str, Any]] = []
        for shard_id, doc in enumerate(docs):
            prev = prev_docs[shard_id] if prev_docs is not None else None

            def get(path: str) -> float:
                return _field(doc, path)

            def rate(path: str) -> float:
                if prev is None or dt is None:
                    return 0.0
                return max(0.0, get(path) - _field(prev, path)) / dt

            proc = self._procs[shard_id]
            sim_now = get("service.sim_now")
            ckpts = get("service.ops.checkpoints")
            heartbeat = get("service.heartbeat")
            shards.append(
                {
                    "shard_id": shard_id,
                    "alive": bool(proc is not None and proc.is_alive()),
                    "gave_up": self._gave_up[shard_id],
                    "restarts": self._restarts[shard_id],
                    "pid": int(get("service.pid")),
                    "sim_now": sim_now,
                    "target": float(self.config.until),
                    "lag_behind_leader": max_sim - sim_now,
                    "events_fired": int(get("service.events_fired")),
                    "votes_merged": int(get("nodes.votes_merged")),
                    "merges_per_sec": rate("nodes.votes_merged"),
                    "moderations_per_sec": rate("nodes.moderations_received"),
                    "exchanges_per_sec": rate("traffic.*.exchanges"),
                    "events_per_sec": rate("service.events_fired"),
                    "checkpoints": int(ckpts),
                    "checkpoint_bytes_mean": (
                        get("service.ops.checkpoint_bytes_total") / ckpts
                        if ckpts
                        else 0.0
                    ),
                    "checkpoint_wall_last": get("service.ops.checkpoint_wall_last"),
                    "checkpoint_wall_total": get("service.ops.checkpoint_wall_total"),
                    "digests_published_per_sec": rate(
                        "service.aggregation.digests_published"
                    ),
                    "digests_pulled_per_sec": rate("service.aggregation.digests_pulled"),
                    "dht_messages_per_sec": rate("service.aggregation.dht_messages"),
                    "remote_votes_merged": int(
                        get("service.aggregation.remote_votes_merged")
                    ),
                    "merge_lag_votes": int(get("service.aggregation.pending_votes")),
                    "heartbeat_age": now_wall - heartbeat if heartbeat else None,
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
        self._prev_docs = docs
        self._prev_wall = now_wall
        return ServiceStatus(wall_time=now_wall, shards=shards, totals=totals)

    def shard_summary(self, shard_id: int) -> Optional[Dict[str, Any]]:
        """The shard's last published status document (its full
        run_summary, including cache hit rates, ballot-pool fill and
        eviction pressure, plus the worker's pid and heartbeat), or
        ``None`` before the first one."""
        path = self.shard_dir(shard_id) / STATUS_FILE
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

    def __enter__(self) -> "ServiceSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
