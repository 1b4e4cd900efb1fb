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
the exchange, and they are written once, in one batch handler
(:meth:`ProtocolRuntime._vote_tick_batch`): a run of due ticks mixing
them is dispatched in one call, whatever the PSS and the vote fan-out,
and a run of one entry is a one-entry call of the same handler.
Adversaries are rows too: a flash-crowd member
(:meth:`ProtocolRuntime.add_crowd_member`) is an ordinary node whose
row carries a behaviour code the handler branches on.

Transfers observed by the BitTorrent ledger stream straight into
BarterCast; experience is evaluated on demand at each vote exchange.

The executable spec of this scheduling, state and exchange logic — one
``PeriodicProcess`` per peer per protocol over dict ballot boxes, the
scalar per-peer ticks and the per-node colluder class — lives with the
tests, which hold the two bit-identical.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.bittorrent.session import BitTorrentSession
from repro.core.columnar import ColumnarStateStore
from repro.core.experience import (
    AdaptiveThresholdExperience,
    AlwaysExperienced,
    ExperienceFunction,
    ThresholdExperience,
)
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import VoteEntry, select_positions
from repro.metrics.traffic import TrafficMeter
from repro.pss.base import PeerSamplingService
from repro.pss.ideal import OraclePSS
from repro.pss.newscast import NewscastConfig, NewscastService
from repro.sim.population import PopulationEngine, ProtocolSpec
from repro.sim.rng import RngRegistry, StreamFamily
from repro.sim.units import MB

#: Spec-list positions of the three gossip loops (see
#: :meth:`ProtocolRuntime._protocol_specs`): the protocol indices the
#: batched gossip tick receives.
_MODERATION, _VOTE, _BARTERCAST = 0, 1, 2
#: Vote entries from which the batched tick's column pre-pass (numpy
#: gathers over the run, ≈ 20 µs fixed) beats reading each entry's
#: values live.  Measured crossover on ``churn_population`` state: 12–16
#: (EXPERIMENTS.md "One gossip batch").
_PREPASS_FROM = 16


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
    #: Jitter each loop by ±(fraction · interval) to desynchronise.
    jitter_fraction: float = 0.1
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
        if not (0.0 <= self.jitter_fraction < 1.0):
            raise ValueError("jitter_fraction must be in [0, 1)")
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
        #: accumulated online node-seconds (for per-node-hour costs)
        self._online_seconds = 0.0
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
        node = self.ensure_node(peer_id)
        if node.online:
            return
        node.online = True
        self._online_since[peer_id] = now
        if self.newscast is not None:
            self.newscast.node_online(peer_id, now)
        self._start_ticks(peer_id, now)

    def _peer_offline(self, peer_id: str, now: float) -> None:
        node = self.nodes.get(peer_id)
        if node is None or not node.online:
            return
        node.online = False
        since = self._online_since.pop(peer_id, None)
        if since is not None:
            self._online_seconds += max(0.0, now - since)
        if self.newscast is not None:
            self.newscast.node_offline(peer_id)
        self._stop_ticks(peer_id, now)

    # The scheduling seam: production ticks every peer through the SoA
    # population engine; the tests' reference runtime overrides these
    # two with one ``PeriodicProcess`` per peer per protocol.
    def _start_ticks(self, peer_id: str, now: float) -> None:
        self.materialize_population().peer_online(peer_id, now)

    def _stop_ticks(self, peer_id: str, now: float) -> None:
        self.materialize_population().peer_offline(peer_id, now)

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
                jitter_fraction=self.config.jitter_fraction,
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
        """
        return {
            "traffic": self.traffic.summary(),
            "bartercast": {
                "exchanges": self.bartercast.exchanges,
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
        live entries and garbage share, compactions, evictions and
        batched flushes)."""
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
        state: traffic meter, drop count, online-time accounting and
        the BarterCast exchange counter.  Cache hit/miss telemetry is
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
            "bartercast_exchanges": self.bartercast.exchanges,
        }

    def restore_counters(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`counters_state` snapshot (saved dict order is
        preserved so float summaries reduce in the same order)."""
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
        self.bartercast.exchanges = int(state["bartercast_exchanges"])  # type: ignore[arg-type]

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
        self,
        times: List[float],
        pids: List[str],
        rows: List[int],
        protos: List[int],
    ) -> None:
        """One gossip tick per due entry — ModerationCast, BallotBox and
        BarterCast alike — over the state columns: the one definition
        of the three exchanges (Figs 1 and 3 a).

        Registered as the SoA engine's batch handler for all three
        gossip loops (one handler object, so a run mixes them as they
        fall due; ``protos`` holds each entry's spec index), and called
        with one entry by the three scalar tick names.  They are the
        same ``do forever: wait Δ; p ← PSS.sample()`` loop.

        **Sampling.**  Every draw is replayed in the scalar order.  A
        vote entry draws ``vote_fanout`` candidates, every other entry
        one; the PSS stream and the message-loss stream are separate
        generators, so one ``sample_batch`` over the run's requesters
        (vote peers repeated) walks the PSS stream as the per-entry
        calls would — vectorised for the oracle, the scalar loop for
        Newscast, whose views change only in Newscast ticks and churn,
        never inside a run.  Then, in entry order, each candidate of a
        moderation or vote entry is connected: a stale one (offline) is
        no exchange, a connectable one draws its loss, and a surviving
        partner's node is created.  A vote entry keeps each partner once
        (the scalar ``seen`` dedup) and gates its whole partner set with
        one forward ``experienced_many`` call; every partner is one
        *slot*, and slots run through one row-to-row core.  BarterCast
        entries take their draw as is.  Then each exchange runs in
        order — moderation through the node API, BarterCast through
        ``gossip_with``, the vote exchange inline over the columns.  A
        node's ``rng`` feeds over-budget extracts and over-cap vote
        selections alike, so the two interleave as they would scalar.

        **The vote exchange** is row to row: the forward verdict before
        vote selection and the reverse verdict after this node's merge,
        as the scalar exchange orders them; each side's vote list is in
        the store's wire form (interned moderators, own id dropped,
        exchange order; a stale list is repacked on first use), so a
        merge is a pool segment handed to the store — no ``VoteEntry``,
        no id string, no per-vote work.

        **Behaviour rows.**  A row with the store's crowd code
        (:meth:`add_crowd_member`) ships the crowd's constant list with
        no selection draw — the honest receiver applies the
        receiver-side cap and counts ``votes_truncated`` — merges and
        counts nothing it is sent, never bootstraps, and answers
        VoxPopuli with the constant top-K, leaving ``vp_requests_*``
        alone.  Both experience verdicts are still taken.

        **Pre-pass.**  From :data:`_PREPASS_FROM` vote slots on, a
        column pre-pass carries them: one gather per direction over
        ``vl_size`` and ``bb_unique`` proves most of them side-effect
        free — no votes on either side, no VoxPopuli bootstrap, an
        all-accepting experience gate and no behaviour row — so the
        Python loop only visits the ones that do real work, and every
        list the run may send is packed up front.  A slot whose only
        work is merging — a column fast-path gate, no VoxPopuli
        candidate, no behaviour row, no above-cap draw — is not visited
        either: its forward and reverse merges are built from the
        pre-pass arrays as rows ``(owner, voter, segment, time)`` in
        entry order and settle through the store's run entry
        (``bb_merge_run``, array passes over the whole run) before the
        next visited vote slot — whose merges and VoxPopuli reads
        (``bb_unique``, ``respond_top_k``) must see them — and at the
        end of the run; their ``votes_merged`` fold in per receiving
        node.  The skip is sound because box occupancy only grows
        while votes merge (a slot
        starting at or above ``B_min`` can never re-enter bootstrap),
        an accepted empty exchange touches nothing but the aggregate
        counters, and vote lists change mid-run only when a moderation
        exchange fires a vote intention: from then on every vote slot
        is visited, and one that touches a row cast on reads its sizes
        and list live — as every vote slot of a shorter run does (a
        queued one leaves the queue; the others stay queued).  The aggregates are exact
        wholesale: every selection policy returns
        ``min(vl_size, cap)`` entries, so the run's traffic folds into
        one ``*_exchange_many`` call per protocol, and byte totals are
        derived from the integer counters.
        """
        engine = self.engine
        nodes = self.nodes
        own: List[VoteSamplingNode] = [nodes[pid] for pid in pids]
        # Only _peer_online / _peer_offline flip node.online, and the
        # engine's flag with it: a due entry's peer is online.
        assert all([node.online for node in own]), "online flags disagree"
        MODERATION, VOTE, BARTERCAST = _MODERATION, _VOTE, _BARTERCAST
        fanout = self.config.vote_fanout
        if fanout > 1:
            # One slot per candidate draw: a vote entry spans `fanout`.
            entry_of = [
                k for k, p in enumerate(protos) for _ in range(fanout if p == VOTE else 1)
            ]
            times = [times[k] for k in entry_of]
            pids = [pids[k] for k in entry_of]
            rows = [rows[k] for k in entry_of]
            protos = [protos[k] for k in entry_of]
            own = [own[k] for k in entry_of]
        m = len(pids)
        partner_ids = self.pss.sample_batch(pids)
        is_online = self.registry.is_online
        loss = self.config.message_loss
        loss_rng = self._message_loss_rng
        ensure_node = self.ensure_node
        partners: List[Optional[VoteSamplingNode]] = [None] * m
        prow_list = [0] * m
        #: per slot: the protocol of the exchange it makes, -1 for none
        kinds = [-1] * m
        others: List[int] = []  # moderation and BarterCast exchanges
        #: fan-out: a vote entry's first slot -> its partner set
        groups: Dict[int, List[str]] = {}
        entry = lead = -1
        seen: set = set()
        for k, partner, pid, p in zip(range(m), partner_ids, pids, protos):
            if partner is None or partner == pid:
                continue
            if p != BARTERCAST:
                # A stale or lost connect is no exchange.
                if not is_online(partner):
                    continue
                if loss > 0.0 and loss_rng.random() < loss:
                    self.dropped_exchanges += 1
                    continue
                node = nodes.get(partner)
                if node is None:
                    node = ensure_node(partner)
                if fanout > 1 and p == VOTE:
                    if entry_of[k] != entry:
                        entry, lead, seen = entry_of[k], k, {pid}
                        groups[k] = []
                    if partner in seen:
                        continue
                    seen.add(partner)
                    groups[lead].append(partner)
                partners[k] = node
                prow_list[k] = node.row
            kinds[k] = p
            if p != VOTE:
                others.append(k)
        store = self._col_store
        cfg = self.config.node
        cap = cfg.votes_per_exchange
        b_max = cfg.b_max
        b_min = cfg.b_min
        vox = cfg.voxpopuli_enabled and b_min > 0
        n_ex = kinds.count(VOTE)
        n_items = 0
        crowd = store.behaviour
        if n_ex:
            exp = self.experience
            exp_type = type(exp)
            # Experience gating: the all-accepting cases resolve once for
            # the whole run, adaptive thresholds gate via one column
            # gather per direction (in the pre-pass), and anything else
            # takes the scalar evaluation in the scalar call order.
            fast_all = exp_type is AlwaysExperienced or (
                exp_type is ThresholdExperience and exp.threshold <= 0.0
            )
            fwd_fast = rev_fast = None
            verdicts: Dict[str, bool] = {}
            pre_vox = [True] * m if vox else None
            bb_unique = store.bb_unique
            wire = store.vl_wire
            merge = store.bb_merge_packed
            policy = cfg.exchange_policy
            if crowd:
                crowd_mids, crowd_vals = store.crowd_packed(cap)
                crowd_n = len(store.crowd_votes)
                crowd_top_k = store.crowd_top_k
        q_end = 0  # merges queued by the pre-pass (see ``settle``)
        prepared = n_ex >= _PREPASS_FROM
        if prepared:
            rows_arr = np.fromiter(rows, np.int64, m)
            prows_arr = np.fromiter(prow_list, np.int64, m)
            valid = np.fromiter(kinds, np.int64, m) == VOTE
            # One gather per direction stands in for the per-slot
            # vote-list reads, and — because every selection policy
            # returns exactly ``min(vl_size, cap)`` entries — the
            # exchange item total folds into one vectorised sum.
            vl_col = store.vl_size
            vl_own_arr = vl_col[rows_arr]
            vl_par_arr = vl_col[prows_arr]
            n_items = int(
                (np.minimum(vl_own_arr, cap) + np.minimum(vl_par_arr, cap))[
                    valid
                ].sum()
            )
            # A slot must run in Python when any per-slot side effect
            # is possible: votes to merge in either direction, a
            # VoxPopuli bootstrap candidate (occupancy below B_min
            # *before* the run — occupancy only grows as votes merge, so
            # slots at or above B_min can never re-enter bootstrap
            # mid-run), an experience gate that isn't a column fast
            # path (rejection counters fire even on empty exchanges), or
            # a behaviour row (read live).
            has_votes = (vl_own_arr > 0) | (vl_par_arr > 0)
            # Per-slot work besides merging: a VoxPopuli candidate, a
            # behaviour row, a gate that is not a column fast path.
            special = np.zeros(m, dtype=np.bool_)
            if vox:
                pre_vox_arr = bb_unique[rows_arr] < b_min
                special |= pre_vox_arr
                pre_vox = pre_vox_arr.tolist()
            if crowd:
                bad = np.fromiter(crowd, np.int64, len(crowd))
                special |= np.isin(rows_arr, bad) | np.isin(prows_arr, bad)
            if not fast_all:
                if (
                    exp_type is AdaptiveThresholdExperience
                    and exp._store is store
                ):
                    thr = store.exp_threshold
                    fwd_ok = thr[rows_arr] <= 0.0
                    rev_ok = thr[prows_arr] <= 0.0
                    special |= ~(fwd_ok & rev_ok)
                    fwd_fast = fwd_ok.tolist()
                    rev_fast = rev_ok.tolist()
                else:
                    special[:] = True
            active = (has_votes | special) & valid
            # A slot whose only effect is merging — no special work, no
            # above-cap draw — never enters the loop: its two merges go
            # to the store as rows of one run (below).
            quiet = active & ~special & (vl_own_arr <= cap) & (vl_par_arr <= cap)
            vl_own = vl_own_arr.tolist()
            vl_par = vl_par_arr.tolist()
            act = np.flatnonzero(active & ~quiet).tolist()
            # Every list this run may send, packed once up front
            # (partner then own, in slot order): the merges below read
            # pool slices at ``seg_off[k]`` (own) / ``seg_off[m + k]``
            # (partner).
            send = np.flatnonzero(has_votes & valid)
            if send.size:
                lists = np.empty(2 * send.size, dtype=np.int64)
                lists[0::2] = prows_arr[send]
                lists[1::2] = rows_arr[send]
                store.vl_pack_stale(lists)
                both = np.concatenate((rows_arr, prows_arr))
                offs = store.vl_off[both]
                lens = store.vl_len[both]
                seg_off = offs.tolist()
                seg_end = (offs + lens).tolist()
            vl_mod, vl_val = store.vl_mod, store.vl_val
            quiet_k = np.flatnonzero(quiet)
            if quiet_k.size:
                # Merge rows in entry order, each slot's forward merge
                # (the partner's list into our box) before its reverse.
                q_owner = np.stack((rows_arr[quiet_k], prows_arr[quiet_k]), 1).ravel()
                q_voter = np.stack((prows_arr[quiet_k], rows_arr[quiet_k]), 1).ravel()
                q_off = np.stack((offs[m + quiet_k], offs[quiet_k]), 1).ravel()
                q_len = np.stack((lens[m + quiet_k], lens[quiet_k]), 1).ravel()
                q_slot = np.repeat(quiet_k, 2)
                keep = q_len > 0
                q_owner, q_voter, q_off, q_len, q_slot = (
                    q_owner[keep], q_voter[keep], q_off[keep], q_len[keep], q_slot[keep]
                )
                q_time = np.array(times)[q_slot]
                q_slots = q_slot.tolist()
                q_end = len(q_slots)
                is_quiet = quiet.tolist()
            pending = sorted(act + others) if others else act
        else:
            pending = [k for k in range(m) if kinds[k] >= 0]
        #: queued merges: ``[q_pos, q_end)`` are still to settle
        q_pos = 0

        def settle(upto: int) -> None:
            """Hand the queued merges of slots before ``upto`` to the
            store as one run (from the wire pool as the pre-pass read
            it: a live slot may repack since)."""
            nonlocal q_pos
            j = bisect_left(q_slots, upto, q_pos, q_end)
            if j > q_pos:
                store.bb_merge_run(
                    b_max,
                    q_owner[q_pos:j],
                    q_voter[q_pos:j],
                    q_off[q_pos:j],
                    q_len[q_pos:j],
                    q_time[q_pos:j],
                    (vl_mod, vl_val),
                )
                q_pos = j

        bartercast = self.bartercast
        mod_ex = mod_items = bc_ex = bc_items = vp_ex = vp_entries = 0
        #: pre-passed runs: rows a moderation exchange in this run cast a
        #: vote for, and the vote slots proved empty up front (once one
        #: exists)
        recast: set = set()
        inactive: set = set()
        widened = False
        casts = store.vl_casts
        while True:
            cut = -1
            for k in pending:
                now = times[k]
                engine._now = now
                node = own[k]
                partner = partners[k]
                kind = kinds[k]
                if kind == MODERATION:
                    # Push/pull (Fig 1): both sides extract then merge.
                    outbound = node.moderations_to_send()
                    inbound = partner.moderations_to_send()
                    partner.receive_moderations(outbound, now)
                    node.receive_moderations(inbound, now)
                    mod_ex += 1
                    mod_items += len(outbound) + len(inbound)
                    if prepared and store.vl_casts != casts:
                        # A vote intention fired: later vote slots on
                        # these rows must see the new list.
                        casts = store.vl_casts
                        recast.add(node.row)
                        recast.add(partner.row)
                        if not widened:
                            cut = k
                            break
                    continue
                if kind == BARTERCAST:
                    pid = pids[k]
                    bartercast.gossip_with(pid, partner_ids[k], now)
                    bc_ex += 1
                    # Both directions carry up to the per-exchange cap.
                    bc_items += len(bartercast.records_of(pid))
                    continue
                row = rows[k]
                prow = prow_list[k]
                if q_end and is_quiet[k]:
                    # Visited once widened: merges stay queued unless
                    # the slot touches a recast row and runs live.
                    if row not in recast and prow not in recast:
                        continue
                    settle(k)
                    end = bisect_right(q_slots, k, q_pos, q_end)
                    q_len[q_pos:end] = 0  # dropped: merged nothing
                    q_pos = end
                elif q_pos < q_end and q_slots[q_pos] < k:
                    settle(k)  # merges queued before this slot come first
                own_bad = par_bad = False
                if crowd and (row in crowd or prow in crowd):
                    # The crowd is the one behaviour code so far.
                    own_bad = row in crowd
                    par_bad = prow in crowd
                    live = True
                else:
                    live = not prepared or (
                        recast and (row in recast or prow in recast)
                    )
                if live:
                    n_out = crowd_n if own_bad else int(store.vl_size[row])
                    n_in = crowd_n if par_bad else int(store.vl_size[prow])
                    # A crowd list goes out whole, whatever the cap.
                    n_items += (n_out if own_bad else min(n_out, cap)) + (
                        n_in if par_bad else min(n_in, cap)
                    )
                    if prepared:
                        n_items -= min(vl_own[k], cap) + min(vl_par[k], cap)
                elif k in inactive:
                    continue
                else:
                    n_out = vl_own[k]
                    n_in = vl_par[k]
                # Forward verdict (observer = this node), before selection;
                # with a fan-out, once for the entry's whole partner set.
                if fast_all or (fwd_fast is not None and fwd_fast[k]):
                    fwd = True
                else:
                    partner_id = partner.peer_id
                    if fanout == 1:
                        fwd = exp.experienced_many(pids[k], [partner_id])[partner_id]
                    else:
                        if k in groups:
                            verdicts = exp.experienced_many(pids[k], groups[k])
                        fwd = verdicts[partner_id]
                # Each side's selection: at or below the cap the whole
                # list goes and nothing is drawn; above it each honest
                # side draws here — ours first, whatever the verdicts.
                picks_out = (
                    select_positions(n_out, cap, node.rng, policy)
                    if n_out > cap and not own_bad
                    else None
                )
                picks_in = (
                    select_positions(n_in, cap, partner.rng, policy)
                    if n_in > cap and not par_bad
                    else None
                )
                # The partner's list into our box, row to row.
                if own_bad:
                    pass  # a crowd member merges and counts nothing
                elif fwd:
                    if n_in:
                        if par_bad:
                            mids, vals = crowd_mids, crowd_vals
                            if n_in > cap:
                                node.votes_truncated += n_in - cap
                        elif picks_in is not None or live:
                            mids, vals = wire(prow, picks_in)
                        else:
                            off, end = seg_off[m + k], seg_end[m + k]
                            mids, vals = vl_mod[off:end], vl_val[off:end]
                        node.votes_merged += merge(row, b_max, prow, mids, vals, now)
                else:
                    node.votes_rejected_inexperienced += 1
                # Reverse verdict (observer = partner), after our merge.
                if fast_all or (rev_fast is not None and rev_fast[k]):
                    rev = True
                else:
                    pid = pids[k]
                    rev = exp.experienced_many(partner.peer_id, [pid])[pid]
                if par_bad:
                    pass
                elif rev:
                    if n_out:
                        if own_bad:
                            mids, vals = crowd_mids, crowd_vals
                            if n_out > cap:
                                partner.votes_truncated += n_out - cap
                        elif picks_out is not None or live:
                            mids, vals = wire(row, picks_out)
                        else:
                            off, end = seg_off[k], seg_end[k]
                            mids, vals = vl_mod[off:end], vl_val[off:end]
                        partner.votes_merged += merge(prow, b_max, row, mids, vals, now)
                else:
                    partner.votes_rejected_inexperienced += 1
                # VoxPopuli (Fig 3 a+c): pre-gated on the occupancy
                # column, re-checked live — earlier merges this run may
                # have lifted this node past B_min.
                if (
                    pre_vox is not None
                    and pre_vox[k]
                    and not own_bad
                    and bb_unique[row] < b_min
                ):
                    response = crowd_top_k if par_bad else partner.respond_top_k()
                    node.receive_top_k(response)
                    if response:
                        vp_entries += len(response)
                    vp_ex += 1
            if cut < 0:
                break
            # After the first cast every later exchange is visited: a
            # vote slot proved empty up front may touch a recast row, and
            # so may a queued one.
            widened = True
            inactive = set(range(cut + 1, m)).difference(act)
            pending = [j for j in range(cut + 1, m) if kinds[j] >= 0]
        if q_end:
            settle(m)
            # The queued merges' counters, one add per receiving node.
            merged = np.bincount(q_owner, weights=q_len)
            ids = store.rows.ids
            receivers = np.flatnonzero(merged)
            for row, count in zip(receivers.tolist(), merged[receivers].tolist()):
                nodes[ids[row]].votes_merged += int(count)
            engine._now = max(engine._now, times[q_slots[-1]])
        traffic = self.traffic
        if mod_ex:
            traffic.moderation_exchange_many(mod_ex, mod_items)
        if n_ex:
            traffic.vote_exchange_many(n_ex, n_items)
        if vp_ex:
            traffic.voxpopuli_exchange_many(vp_ex, vp_entries)
        if bc_ex:
            traffic.bartercast_exchange_many(bc_ex, bc_items)

    def _newscast_tick(self, peer_id: str) -> None:
        node = self.nodes[peer_id]
        if not node.online:
            return
        assert self.newscast is not None
        if self.newscast.gossip_tick(peer_id, self.engine.now):
            self.traffic.newscast_exchange(
                2 * self.newscast.config.view_size
            )

    def _adaptive_tick(self, peer_id: str) -> None:
        node = self.nodes[peer_id]
        if not node.online:
            return
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
