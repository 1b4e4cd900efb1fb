"""Protocol runtime — binds nodes, PSS, BarterCast and the engine.

The runtime owns one :class:`~repro.core.node.VoteSamplingNode` per
peer, keeps their protocol state in one
:class:`~repro.core.columnar.ColumnarStateStore`, and drives the
paper's ``do forever: wait Δ; …`` loops as jittered per-peer ticks
dispatched in batches by the structure-of-arrays
:class:`~repro.sim.population.PopulationEngine`:

* **ModerationCast tick** — push/pull moderation exchange (Fig 1);
* **vote tick** — BallotBox exchange with experience gating, plus the
  conditional VoxPopuli top-K request (Fig 3 a);
* **BarterCast tick** — transfer-record gossip;
* **Newscast tick** — view exchange (only when the gossip PSS is used);
* **adaptive-T tick** — dispersion controller update (only when the
  adaptive experience function is configured).

The first three are one ``wait Δ; p ← PSS.sample()`` loop apart from
the exchange, written once as the staged gossip batch of
:mod:`repro.core.gossip` (which describes it): one handler call per run
of due ticks mixing them, a one-entry call per scalar tick.
Adversaries are rows too (:meth:`ProtocolRuntime.add_crowd_member`).

Transfers observed by the BitTorrent ledger stream straight into
BarterCast; experience is evaluated on demand at each vote exchange.

The executable spec of this scheduling, state and exchange logic — one
``PeriodicProcess`` per peer per protocol over dict ballot boxes, the
scalar per-peer ticks and the per-node colluder class — lives with the
tests, which hold the two bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.bittorrent.session import BitTorrentSession
from repro.core import gossip
from repro.core.columnar import ColumnarStateStore
from repro.core.experience import (
    AdaptiveThresholdExperience,
    ExperienceFunction,
    ThresholdExperience,
)
from repro.core.gossip import _BARTERCAST, _MODERATION, _VOTE
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import VoteEntry
from repro.metrics.traffic import TrafficMeter
from repro.pss.base import PeerSamplingService
from repro.pss.ideal import OraclePSS
from repro.pss.newscast import NewscastConfig, NewscastService
from repro.sim.population import PopulationEngine, ProtocolSpec
from repro.sim.rng import RngRegistry, StreamFamily
from repro.sim.units import MB

#: Each protocol loop's gap is jittered by ±(this · interval), which
#: desynchronises the population's loops.
JITTER_FRACTION = 0.1


@dataclass
class RuntimeConfig:
    """Runtime parameters.

    The paper does not pin Δ numerically; 5 minutes per protocol loop
    gives each node ≈288 exchanges/day, comfortably faster than the
    experience-formation dynamics that dominate the figures.
    """

    node: NodeConfig = field(default_factory=NodeConfig)
    moderation_interval: float = 300.0
    vote_interval: float = 300.0
    bartercast_interval: float = 900.0
    newscast_interval: float = 60.0
    adaptive_update_interval: float = 900.0
    #: Use the Newscast gossip PSS instead of the oracle.
    use_newscast: bool = False
    #: T for the default threshold experience function (bytes).
    experience_threshold: float = 5 * MB
    bartercast: BarterCastConfig = field(default_factory=BarterCastConfig)
    #: Partners gated and exchanged with per vote tick.  1 is the
    #: paper's loop; larger fan-outs gate the whole round's partner set
    #: through one batched ``experienced_many`` evaluation.
    vote_fanout: int = 1
    #: Probability that a moderation or vote exchange fails (connection
    #: reset, NAT timeout, …) beyond what churn already causes.
    #: BarterCast exchanges are exempt: they take no loss draw and no
    #: partner-online check.  Failure injection for robustness tests;
    #: 0 in the paper's experiments.
    message_loss: float = 0.0
    #: Single-valued: the runtime always ticks through the SoA
    #: population engine over the columnar state store.  Both fields
    #: remain only because the repo benchmark's workloads
    #: (``bench/workloads.py``) spell that path out; they leave when
    #: the benchmark is re-baselined (ROADMAP item 1).
    population_engine: str = "soa"
    columnar_state: str = "on"

    def __post_init__(self) -> None:
        if not (0.0 <= self.message_loss < 1.0):
            raise ValueError("message_loss must be in [0, 1)")
        for name in (
            "moderation_interval",
            "vote_interval",
            "bartercast_interval",
            "newscast_interval",
            "adaptive_update_interval",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.vote_fanout < 1:
            raise ValueError("vote_fanout must be >= 1")
        if self.population_engine != "soa":
            raise ValueError("the runtime runs population_engine='soa'")
        if self.columnar_state != "on":
            raise ValueError("the runtime runs columnar_state='on'")


class ProtocolRuntime:
    """Drives the full protocol stack over one BitTorrent session."""

    def __init__(
        self,
        session: BitTorrentSession,
        rng: RngRegistry,
        config: Optional[RuntimeConfig] = None,
        experience: Optional[ExperienceFunction] = None,
        pss: Optional[PeerSamplingService] = None,
    ):
        self.session = session
        self.engine = session.engine
        self.registry = session.registry
        self.config = config or RuntimeConfig()
        self._rng = rng

        self.newscast: Optional[NewscastService] = None
        if pss is not None:
            self.pss = pss
        elif self.config.use_newscast:
            self.newscast = NewscastService(
                self.registry, rng.stream("newscast"), NewscastConfig()
            )
            self.pss = self.newscast
        else:
            self.pss = OraclePSS(self.registry, rng.stream("pss"))

        self.bartercast = BarterCastService(self.pss, self.config.bartercast)
        session.ledger.add_listener(self.bartercast.local_transfers)

        self.experience: ExperienceFunction = (
            experience
            if experience is not None
            else ThresholdExperience(self.bartercast, self.config.experience_threshold)
        )

        self.nodes: Dict[str, VoteSamplingNode] = {}
        self._population: Optional[PopulationEngine] = None
        self._col_store = ColumnarStateStore()
        self.dropped_exchanges = 0
        # The registry memoises streams by name, so caching the
        # generator object draws the identical sequence while skipping
        # a dict lookup per exchange.
        self._message_loss_rng = rng.stream("message-loss")
        # Every trace peer that arrives starts its jitter stream, and
        # a node that draws its node stream; derive their seeds for the
        # whole trace in one pass.
        rng.prime("node", session.trace.peers)
        rng.prime("jitter", session.trace.peers)
        #: ``node_rng(peer_id)`` derives a peer's ``("node", peer_id)``
        #: stream; a node calls it on its first draw, so the nodes of a
        #: run that never draws build no generator
        self.node_rng = StreamFamily(rng, "node")
        self.traffic = TrafficMeter()
        #: node-seconds of the sessions closed so far (for
        #: per-node-hour costs)
        self._online_seconds = 0.0
        #: the session record: peer -> start of its open session.  A
        #: peer is online exactly while it has an entry here.
        self._online_since: Dict[str, float] = {}

        session.on_peer_online(self._peer_online)
        session.on_peer_offline(self._peer_offline)

    # ------------------------------------------------------------------
    # Node lifecycle
    # ------------------------------------------------------------------
    def ensure_node(self, peer_id: str) -> VoteSamplingNode:
        """Get (creating if needed) the protocol node for a peer."""
        node = self.nodes.get(peer_id)
        if node is None:
            node = VoteSamplingNode(
                peer_id, self.config.node, self.node_rng, col_store=self._col_store
            )
            self.nodes[peer_id] = node
        return node

    def add_crowd_member(
        self, peer_id: str, votes: List[VoteEntry], top_k: List[str]
    ) -> VoteSamplingNode:
        """Install one flash-crowd member (attack models use this): an
        ordinary columnar node on its own ``("colluder", peer_id)``
        stream whose row carries the store's crowd behaviour code.  The
        gossip batch then ships ``votes`` on every BallotBox exchange
        the member takes part in (no selection draw — the honest
        receiver applies its cap), answers every VoxPopuli request with
        ``top_k``, merges nothing it is sent and never bootstraps;
        ModerationCast and BarterCast treat it as any node.  Returns the
        node so the caller can seed its moderation store and votes."""
        if peer_id in self.nodes:
            raise ValueError(f"node {peer_id!r} already registered")
        node = VoteSamplingNode(
            peer_id,
            self.config.node,
            self._rng.stream("colluder", peer_id),
            col_store=self._col_store,
        )
        self._col_store.mark_crowd(node.row, votes, top_k)
        self.nodes[peer_id] = node
        return node

    def bring_online(self, peer_id: str, now: float) -> None:
        """Manually bring a peer online (for peers outside the trace,
        e.g. a flash crowd arriving mid-run)."""
        self.registry.set_online(peer_id)
        self._peer_online(peer_id, now)

    def take_offline(self, peer_id: str, now: float) -> None:
        self.registry.set_offline(peer_id)
        self._peer_offline(peer_id, now)

    # ------------------------------------------------------------------
    def _peer_online(self, peer_id: str, now: float) -> None:
        if peer_id in self._online_since:
            return
        self.ensure_node(peer_id)
        self._online_since[peer_id] = now
        if self.newscast is not None:
            self.newscast.node_online(peer_id, now)
        self._start_ticks(peer_id, now)

    def _peer_offline(self, peer_id: str, now: float) -> None:
        since = self._online_since.pop(peer_id, None)
        if since is None:
            return
        self._online_seconds += max(0.0, now - since)
        if self.newscast is not None:
            self.newscast.node_offline(peer_id)
        self._stop_ticks(peer_id)

    # The scheduling seam: production ticks every peer through the SoA
    # population engine; the tests' reference runtime overrides these
    # two with one ``PeriodicProcess`` per peer per protocol.
    def _start_ticks(self, peer_id: str, now: float) -> None:
        self.materialize_population().peer_online(peer_id, now)

    def _stop_ticks(self, peer_id: str) -> None:
        self.materialize_population().peer_offline(peer_id)

    def _protocol_specs(self) -> List[ProtocolSpec]:
        """The canonical per-peer protocol loops, in registration order
        (which is also the order a peer's jitter draws are consumed)."""
        cfg = self.config
        # One batch handler object for the three gossip loops, so a run
        # of due entries spans them.
        gossip = self._vote_tick_batch
        specs: List[ProtocolSpec] = [
            ("moderation", cfg.moderation_interval, self._moderation_tick, gossip),
            ("vote", cfg.vote_interval, self._vote_tick, gossip),
            ("bartercast", cfg.bartercast_interval, self._bartercast_tick, gossip),
        ]
        if self.newscast is not None:
            specs.append(("newscast", cfg.newscast_interval, self._newscast_tick))
        if isinstance(self.experience, AdaptiveThresholdExperience):
            specs.append(
                ("adaptive", cfg.adaptive_update_interval, self._adaptive_tick)
            )
        return specs

    def materialize_population(self) -> PopulationEngine:
        """The SoA scheduler, built at first use, which freezes the
        protocol set: a pre-start ``runtime.experience`` swap is
        honoured, a later one is not.

        First use is normally the first peer-online; restore paths
        pre-populate :attr:`nodes` directly and then replay the
        scheduler columns, so they call this explicitly.
        """
        population = self._population
        if population is None:
            if isinstance(self.experience, AdaptiveThresholdExperience):
                # Mirror per-node thresholds into the exp_threshold
                # column so the batched vote tick can gate fast.
                self.experience.bind_store(self._col_store)
            population = PopulationEngine(
                self.engine,
                self._rng,
                self._protocol_specs(),
                jitter_fraction=JITTER_FRACTION,
                rows=self._col_store.rows,
            )
            self.engine.attach_source(population)
            self._population = population
        return population

    def run_summary(self) -> Dict[str, object]:
        """One dict with everything a run report needs: per-protocol
        traffic (the TrafficMeter), BarterCast exchange and cache
        counters, node-level protocol counters, drops, accumulated
        online node-hours, and population-engine telemetry.

        Everything except the ``population`` section is protocol
        state; ``population`` describes the scheduler itself (batch
        shape, memory), which the reference scheduler does not share.
        BarterCast's exchange count is the traffic meter's.
        """
        bartercast = self.traffic.counters.get("bartercast")
        return {
            "traffic": self.traffic.summary(),
            "bartercast": {
                "exchanges": bartercast.exchanges if bartercast else 0,
                **self.bartercast.cache_stats(),
            },
            "nodes": self.node_counters(),
            "dropped_exchanges": self.dropped_exchanges,
            "online_node_hours": self.online_node_hours(),
            "population": self.population_summary(),
        }

    def ballot_memory_bytes(self) -> int:
        """Measured retained bytes of all ballot-box state: the
        columnar store's columns, payload pool and bookkeeping (shared
        id strings excluded)."""
        return self._col_store.memory_bytes()

    def population_summary(self) -> Dict[str, object]:
        """Tick-scheduler telemetry: population and online counts,
        ticks dispatched per protocol, batch shape, the measured
        ballot-box memory footprint, and ballot-box fill and eviction
        pressure (``ballot_pool``: the payload pool's capacity, tail,
        live entries and garbage share, compactions, evictions, and
        ``flushes`` — landings of a merge run's fresh segments)."""
        out = self.materialize_population().telemetry()
        out["ballot_memory_bytes"] = self.ballot_memory_bytes()
        out["ballot_pool"] = self._col_store.pool_stats()
        return out

    def node_counters(self) -> Dict[str, int]:
        """Protocol counters summed over every materialised node."""
        totals = {
            "moderations_received": 0,
            "votes_merged": 0,
            "votes_rejected_inexperienced": 0,
            "votes_truncated": 0,
            "vp_requests_answered": 0,
            "vp_requests_declined": 0,
        }
        for node in self.nodes.values():
            for key in totals:
                totals[key] += getattr(node, key)
        return totals

    def online_node_hours(self) -> float:
        """Accumulated online node-hours (closed sessions plus the
        still-open ones up to the current simulated time)."""
        total = self._online_seconds
        now = self.engine.now
        for since in self._online_since.values():
            total += max(0.0, now - since)
        return total / 3600.0

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def counters_state(self) -> Dict[str, object]:
        """Run-level counters (not owned by any node) as JSON-clean
        state: traffic meter, drop count and the session record with
        the closed sessions' time.  Cache hit/miss telemetry is
        deliberately excluded — a restarted process starts cold, and
        cache warmth is performance state, not protocol state."""
        return {
            "traffic": {
                name: {
                    "exchanges": counter.exchanges,
                    "items": counter.items,
                    "item_bytes": counter.item_bytes,
                }
                for name, counter in self.traffic.counters.items()
            },
            "dropped_exchanges": self.dropped_exchanges,
            "online_seconds": self._online_seconds,
            "online_since": dict(self._online_since),
        }

    def restore_counters(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`counters_state` snapshot (saved dict order is
        preserved so float summaries reduce in the same order).  Keys
        older snapshots also carry (``bartercast_exchanges``) are
        ignored: the traffic meter holds that count."""
        meter = TrafficMeter()
        for name, rec in state["traffic"].items():  # type: ignore[union-attr]
            counter = meter._get(name)
            counter.exchanges = int(rec["exchanges"])
            counter.items = int(rec["items"])
            counter.item_bytes = float(rec["item_bytes"])
        self.traffic = meter
        self.dropped_exchanges = int(state["dropped_exchanges"])  # type: ignore[arg-type]
        self._online_seconds = float(state["online_seconds"])  # type: ignore[arg-type]
        self._online_since = {
            peer: float(since)
            for peer, since in state["online_since"].items()  # type: ignore[union-attr]
        }

    # ------------------------------------------------------------------
    # Ticks
    # ------------------------------------------------------------------
    # A run of one entry: the engine's scalar action for each gossip
    # loop is a one-entry call of the batch handler.
    def _moderation_tick(self, peer_id: str) -> None:
        self._vote_tick_batch(
            [self.engine.now], [peer_id], [self.nodes[peer_id].row], [_MODERATION]
        )

    def _vote_tick(self, peer_id: str) -> None:
        self._vote_tick_batch(
            [self.engine.now], [peer_id], [self.nodes[peer_id].row], [_VOTE]
        )

    def _bartercast_tick(self, peer_id: str) -> None:
        self._vote_tick_batch(
            [self.engine.now], [peer_id], [self.nodes[peer_id].row], [_BARTERCAST]
        )

    def _vote_tick_batch(
        self, times: List[float], pids: List[str], rows: List[int], protos: List[int]
    ) -> None:
        """One gossip tick per due entry — ModerationCast, BallotBox and
        BarterCast alike: the one definition of the three exchanges
        (Figs 1 and 3 a).

        Registered as the SoA engine's batch handler for all three
        gossip loops (one handler object, so a run mixes them as they
        fall due; ``protos`` holds each entry's spec index), and called
        with one entry by the three scalar tick names.  The stages, and
        why their draws land where the scalar ticks put them, are
        :mod:`repro.core.gossip`'s."""
        run = gossip.draw(self, times, pids, rows, protos)
        gossip.connect(self, run)
        gossip.plan(self, run)
        gossip.exchange(self, run)
        gossip.finish(self, run)

    def _newscast_tick(self, peer_id: str) -> None:
        if peer_id not in self._online_since:
            return
        assert self.newscast is not None
        if self.newscast.gossip_tick(peer_id, self.engine.now):
            self.traffic.newscast_exchange(
                2 * self.newscast.config.view_size
            )

    def _adaptive_tick(self, peer_id: str) -> None:
        if peer_id not in self._online_since:
            return
        node = self.nodes[peer_id]
        assert isinstance(self.experience, AdaptiveThresholdExperience)
        before = self.experience.threshold_for(peer_id)
        after = self.experience.update(peer_id, node.ballot_box)
        if after > before:
            # Raising T means "shield myself from the votes of
            # newcomers": re-screen the ballot box so votes accepted
            # under the looser threshold no longer count.  One batch
            # contribution evaluation covers every voter at once.
            voters = list(node.ballot_box.voters())
            verdicts = self.experience.experienced_many(peer_id, voters)
            for voter in voters:
                if not verdicts[voter]:
                    node.ballot_box.remove_voter(voter)
