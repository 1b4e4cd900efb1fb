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
the exchange, and with the oracle PSS they share one batch handler
(:meth:`ProtocolRuntime._vote_tick_batch`): a run of due ticks mixing
them is dispatched in one call.

Transfers observed by the BitTorrent ledger stream straight into
BarterCast; experience is evaluated on demand at each vote exchange.

The executable spec of this scheduling and state — one
``PeriodicProcess`` per peer per protocol over dict ballot boxes —
lives with the tests, which hold the two bit-identical.
"""

from __future__ import annotations

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
from repro.core.votes import select_positions
from repro.metrics.traffic import TrafficMeter
from repro.pss.base import PeerSamplingService
from repro.pss.ideal import OraclePSS
from repro.pss.newscast import NewscastConfig, NewscastService
from repro.sim.population import PopulationEngine, ProtocolSpec
from repro.sim.rng import RngRegistry
from repro.sim.units import MB

#: Spec-list positions of the three gossip loops (see
#: :meth:`ProtocolRuntime._protocol_specs`): the protocol indices the
#: batched gossip tick receives.
_MODERATION, _VOTE, _BARTERCAST = 0, 1, 2
#: Their scalar ticks; an instance-level override of any of them turns
#: the batched tick off.
_GOSSIP_TICKS = frozenset({"_moderation_tick", "_vote_tick", "_bartercast_tick"})
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
    #: Probability that any protocol exchange fails (connection reset,
    #: NAT timeout, …) beyond what churn already causes.  Failure
    #: injection for robustness tests; 0 in the paper's experiments.
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
        self.bartercast.resolve_cache_budget(len(session.trace.peers))
        session.ledger.add_listener(self.bartercast.local_transfer)

        self.experience: ExperienceFunction = (
            experience
            if experience is not None
            else ThresholdExperience(self.bartercast, self.config.experience_threshold)
        )

        self.nodes: Dict[str, VoteSamplingNode] = {}
        self._population: Optional[PopulationEngine] = None
        self._col_store = ColumnarStateStore()
        #: the batched vote tick inlines VoteSamplingNode handlers, so
        #: a registered custom node class (attack models) disables it
        self._batch_safe = True
        self.dropped_exchanges = 0
        # Hoisted from _partner_for: the registry memoises streams by
        # name, so caching the generator object draws the identical
        # sequence while skipping a dict lookup per exchange.
        self._message_loss_rng = rng.stream("message-loss")
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
                peer_id,
                self.config.node,
                self._rng.stream("node", peer_id),
                col_store=self._col_store,
            )
            self.nodes[peer_id] = node
        return node

    def register_node(self, node: VoteSamplingNode) -> None:
        """Install a custom node object (attack models use this)."""
        if node.peer_id in self.nodes:
            raise ValueError(f"node {node.peer_id!r} already registered")
        self.nodes[node.peer_id] = node
        # A registered node may override any handler; the batched vote
        # tick would bypass those overrides, so fall back to scalar.
        self._batch_safe = False

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
        specs: List[ProtocolSpec] = [
            ("moderation", cfg.moderation_interval, self._moderation_tick),
            ("vote", cfg.vote_interval, self._vote_tick),
            ("bartercast", cfg.bartercast_interval, self._bartercast_tick),
        ]
        if (
            cfg.vote_fanout == 1
            and type(self.pss) is OraclePSS
            and _GOSSIP_TICKS.isdisjoint(self.__dict__)
        ):
            # One batch handler object for the three gossip loops, so a
            # run of due entries spans them.  It needs the paper's
            # fanout of 1 (one PSS draw per tick, vectorised by
            # sample_batch) and the oracle PSS (its sampling never
            # reads state the in-run exchanges could mutate).  An
            # instance-level override of a scalar tick
            # (instrumentation wrappers) also opts out — inlining would
            # bypass it.  ``_batch_safe`` handles the remaining dynamic
            # conditions at call time.
            gossip = self._vote_tick_batch
            specs = [spec + (gossip,) for spec in specs]
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
    def _partner_for(self, peer_id: str) -> Optional[VoteSamplingNode]:
        partner = self.pss.sample(peer_id)
        if partner is None or partner == peer_id:
            return None
        if not self.registry.is_online(partner):
            # Stale PSS entry (possible with Newscast) = failed connect.
            return None
        if self.config.message_loss > 0.0:
            if self._message_loss_rng.random() < self.config.message_loss:
                self.dropped_exchanges += 1
                return None
        return self.ensure_node(partner)

    def _moderation_tick(self, peer_id: str) -> None:
        node = self.nodes[peer_id]
        if not node.online:
            return
        partner = self._partner_for(peer_id)
        if partner is None:
            return
        now = self.engine.now
        # Push/pull (Fig 1): both sides extract then merge.
        outbound = node.moderations_to_send()
        inbound = partner.moderations_to_send()
        partner.receive_moderations(outbound, now)
        node.receive_moderations(inbound, now)
        self.traffic.moderation_exchange(len(outbound), len(inbound))

    def _vote_tick(self, peer_id: str) -> None:
        node = self.nodes[peer_id]
        if not node.online:
            return
        # The round's partner set: `vote_fanout` PSS draws (duplicates
        # and failed connects dropped).  The whole set is gated through
        # one `experienced_many` evaluation, which batches the forward
        # flows; with the default fanout of 1 the single-subject fast
        # path makes this bit-identical to the old pairwise gating.
        partners: List[VoteSamplingNode] = []
        seen = {peer_id}
        for _ in range(self.config.vote_fanout):
            candidate = self._partner_for(peer_id)
            if candidate is None or candidate.peer_id in seen:
                continue
            seen.add(candidate.peer_id)
            partners.append(candidate)
        if not partners:
            return
        now = self.engine.now
        verdicts = self.experience.experienced_many(
            peer_id, [p.peer_id for p in partners]
        )
        # Reverse direction: each partner needs its own evaluation of
        # this peer (one call per partner is irreducible), but the
        # single-subject list is loop-invariant — build it once.
        reverse_subjects = [peer_id]
        for partner in partners:
            # BallotBox (Fig 3 a+b): bidirectional vote-list exchange,
            # each side gating on its own experience evaluation.
            votes_out = node.votes_to_send()
            votes_in = partner.votes_to_send()
            node.receive_votes(
                partner.peer_id,
                votes_in,
                now,
                experienced=verdicts[partner.peer_id],
            )
            partner.receive_votes(
                peer_id,
                votes_out,
                now,
                experienced=self.experience.experienced_many(
                    partner.peer_id, reverse_subjects
                )[peer_id],
            )
            self.traffic.vote_exchange(len(votes_out), len(votes_in))
            # VoxPopuli (Fig 3 a+c): only while bootstrapping.
            if node.config.voxpopuli_enabled and node.needs_bootstrap():
                response = partner.respond_top_k()
                node.receive_top_k(response)
                self.traffic.voxpopuli_exchange(len(response) if response else 0)

    def _vote_tick_batch(
        self,
        times: List[float],
        pids: List[str],
        rows: List[int],
        protos: List[int],
    ) -> None:
        """One gossip tick per due entry — ModerationCast, BallotBox and
        BarterCast alike — over the state columns.

        Registered as the SoA engine's batch handler for all three
        gossip loops (one handler object, so a run mixes them as they
        fall due; ``protos`` holds each entry's spec index).  They are
        the same ``do forever: wait Δ; p ← PSS.sample()`` loop of Figs
        1 and 3 a.  Bit-identical to running the scalar ticks entry by
        entry because every random draw and order-sensitive call is
        replayed in the scalar order: PSS draws per entry for all three
        (vectorised by one ``sample_batch``, which repairs self-draws
        inside the one draw stream); loss draws, for moderation and
        vote entries with a connectable candidate, and partner nodes
        created, both in entry order; then each exchange in entry
        order — moderation through the node API, BarterCast through
        ``gossip_with``, the vote exchange inline over the columns.  A
        node's ``rng`` feeds over-budget extracts and over-cap vote
        selections alike, so the two interleave as they would scalar.

        A vote exchange is row to row: the forward experience verdict
        before vote selection and the reverse verdict after this node's
        merge (BarterCast's contribution caches see the scalar call
        sequence); each side's vote list is in the store's wire form
        (interned moderators, own id dropped, exchange order; a stale
        list is repacked on first use), so a merge is two pool slices
        handed to ``bb_merge_packed`` — no ``VoteEntry``, no id string,
        no per-vote work.  Merges settle slots, recency and eviction at
        once but queue the payload writes of voters new to a box; one
        ``bb_flush`` lands the whole run's with one copy per pool
        column.

        From :data:`_PREPASS_FROM` vote entries on, a column pre-pass
        carries them: one gather per direction over ``vl_size`` and
        ``bb_unique`` proves most of them side-effect free — no votes
        on either side, no VoxPopuli bootstrap, and an all-accepting
        experience gate — so the Python loop only visits the ones that
        do real work, and every list the run may send is packed up
        front.  The skip is sound because box occupancy only grows
        while votes merge (an entry starting at or above ``B_min`` can
        never re-enter bootstrap), an accepted empty exchange touches
        nothing but the aggregate counters, and vote lists change
        mid-run only when a moderation exchange fires a vote intention:
        from then on every vote entry is visited, and one that touches
        a row cast on reads its sizes and list live — as every vote
        entry of a shorter run does.  The aggregates are exact
        wholesale: every selection policy returns ``min(vl_size, cap)``
        entries, so the run's traffic folds into one
        ``*_exchange_many`` call per protocol, and byte totals are
        derived from the integer counters.
        """
        engine = self.engine
        nodes = self.nodes
        own: List[VoteSamplingNode] = [nodes[pid] for pid in pids]
        if not self._batch_safe or not all([node.online for node in own]):
            # Custom node classes in play (register_node: their handler
            # overrides must run), or runtime/engine online flags out of
            # sync (manual flips: the scalar ticks skip such peers
            # *before* sampling) — replay the run scalar.
            scalar = (self._moderation_tick, self._vote_tick, self._bartercast_tick)
            for t, pid, p in zip(times, pids, protos):
                engine._now = t
                scalar[p](pid)
            return
        m = len(pids)
        partner_ids = self.pss.sample_batch(pids)
        is_online = self.registry.is_online
        loss = self.config.message_loss
        loss_rng = self._message_loss_rng
        ensure_node = self.ensure_node
        partners: List[Optional[VoteSamplingNode]] = [None] * m
        prow_list = [0] * m
        #: per entry: the protocol of the exchange it makes, -1 for none
        kinds = [-1] * m
        others: List[int] = []  # moderation and BarterCast exchanges
        MODERATION, VOTE, BARTERCAST = _MODERATION, _VOTE, _BARTERCAST
        for k, partner, pid, p in zip(range(m), partner_ids, pids, protos):
            if partner is None or partner == pid:
                continue
            if p != BARTERCAST:
                # _partner_for: a stale or lost connect is no exchange
                if not is_online(partner):
                    continue
                if loss > 0.0 and loss_rng.random() < loss:
                    self.dropped_exchanges += 1
                    continue
                node = nodes.get(partner)
                if node is None:
                    node = ensure_node(partner)
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
            pre_vox = [True] * m if vox else None
            bb_unique = store.bb_unique
            wire = store.vl_wire
            merge = store.bb_merge_packed
            policy = cfg.exchange_policy
        prepared = n_ex >= _PREPASS_FROM
        if prepared:
            rows_arr = np.fromiter(rows, np.int64, m)
            prows_arr = np.fromiter(prow_list, np.int64, m)
            valid = np.fromiter(kinds, np.int64, m) == VOTE
            # One gather per direction stands in for the per-entry
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
            # An entry must run in Python when any per-entry side effect
            # is possible: votes to merge in either direction, a
            # VoxPopuli bootstrap candidate (occupancy below B_min
            # *before* the run — occupancy only grows as votes merge, so
            # entries at or above B_min can never re-enter bootstrap
            # mid-run), or an experience gate that isn't a column fast
            # path (rejection counters fire even on empty exchanges).
            has_votes = (vl_own_arr > 0) | (vl_par_arr > 0)
            active = has_votes.copy()
            if vox:
                pre_vox_arr = bb_unique[rows_arr] < b_min
                active |= pre_vox_arr
                pre_vox = pre_vox_arr.tolist()
            if not fast_all:
                if (
                    exp_type is AdaptiveThresholdExperience
                    and exp._store is store
                ):
                    thr = store.exp_threshold
                    fwd_ok = thr[rows_arr] <= 0.0
                    rev_ok = thr[prows_arr] <= 0.0
                    active |= ~(fwd_ok & rev_ok)
                    fwd_fast = fwd_ok.tolist()
                    rev_fast = rev_ok.tolist()
                else:
                    active[:] = True
            active &= valid
            vl_own = vl_own_arr.tolist()
            vl_par = vl_par_arr.tolist()
            act = np.flatnonzero(active).tolist()
            # Every list this run may send, packed once up front
            # (partner then own, in entry order): the merges below read
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
                seg_off = offs.tolist()
                seg_end = (offs + store.vl_len[both]).tolist()
            vl_mod, vl_val = store.vl_mod, store.vl_val
            pending = sorted(act + others) if others else act
        else:
            pending = [k for k in range(m) if kinds[k] >= 0]
        bartercast = self.bartercast
        mod_ex = mod_items = bc_ex = bc_items = vp_ex = vp_entries = 0
        #: pre-passed runs: rows a moderation exchange in this run cast a
        #: vote for, and the vote entries proved empty up front (once
        #: one exists)
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
                        # A vote intention fired: later vote entries on
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
                live = not prepared or (
                    recast and (row in recast or prow in recast)
                )
                if live:
                    n_out = int(store.vl_size[row])
                    n_in = int(store.vl_size[prow])
                    n_items += min(n_out, cap) + min(n_in, cap)
                    if prepared:
                        n_items -= min(vl_own[k], cap) + min(vl_par[k], cap)
                elif k in inactive:
                    continue
                else:
                    n_out = vl_own[k]
                    n_in = vl_par[k]
                # Forward verdict (observer = this node), before selection.
                if fast_all or (fwd_fast is not None and fwd_fast[k]):
                    fwd = True
                else:
                    partner_id = partner.peer_id
                    fwd = exp.experienced_many(pids[k], [partner_id])[partner_id]
                # node.votes_to_send() / partner.votes_to_send(): at or
                # below the cap the whole list goes and nothing is drawn;
                # above it each side draws its selection here — ours
                # first, whatever the verdicts — as the scalar tick does.
                picks_out = (
                    select_positions(n_out, cap, node.rng, policy)
                    if n_out > cap
                    else None
                )
                picks_in = (
                    select_positions(n_in, cap, partner.rng, policy)
                    if n_in > cap
                    else None
                )
                # node.receive_votes(partner_id, votes_in, now, fwd)
                # inline, row to row: the partner's list into our box.
                if fwd:
                    if n_in:
                        if picks_in is not None or live:
                            mids, vals = wire(prow, picks_in)
                        else:
                            off, end = seg_off[m + k], seg_end[m + k]
                            mids, vals = vl_mod[off:end], vl_val[off:end]
                        node.votes_merged += merge(row, b_max, prow, mids, vals, now, True)
                else:
                    node.votes_rejected_inexperienced += 1
                # Reverse verdict (observer = partner), after our merge —
                # the contribution caches must see the scalar call order.
                if fast_all or (rev_fast is not None and rev_fast[k]):
                    rev = True
                else:
                    pid = pids[k]
                    rev = exp.experienced_many(partner.peer_id, [pid])[pid]
                if rev:
                    if n_out:
                        if picks_out is not None or live:
                            mids, vals = wire(row, picks_out)
                        else:
                            off, end = seg_off[k], seg_end[k]
                            mids, vals = vl_mod[off:end], vl_val[off:end]
                        partner.votes_merged += merge(prow, b_max, row, mids, vals, now, True)
                else:
                    partner.votes_rejected_inexperienced += 1
                # VoxPopuli (Fig 3 a+c): pre-gated on the occupancy
                # column, re-checked live — earlier merges this run may
                # have lifted this node past B_min.
                if pre_vox is not None and pre_vox[k] and bb_unique[row] < b_min:
                    response = partner.respond_top_k()
                    if response:
                        node.topk_cache.add(response)
                        vp_entries += len(response)
                    vp_ex += 1
            if cut < 0:
                break
            # After the first cast every later exchange is visited: a
            # vote entry proved empty up front may touch a recast row.
            widened = True
            inactive = set(range(cut + 1, m)).difference(act)
            pending = [j for j in range(cut + 1, m) if kinds[j] >= 0]
        store.bb_flush()
        traffic = self.traffic
        if mod_ex:
            traffic.moderation_exchange_many(mod_ex, mod_items)
        if n_ex:
            traffic.vote_exchange_many(n_ex, n_items)
        if vp_ex:
            traffic.voxpopuli_exchange_many(vp_ex, vp_entries)
        if bc_ex:
            traffic.bartercast_exchange_many(bc_ex, bc_items)

    def _bartercast_tick(self, peer_id: str) -> None:
        node = self.nodes[peer_id]
        if not node.online:
            return
        before = self.bartercast.exchanges
        self.bartercast.gossip_tick(peer_id, self.engine.now)
        if self.bartercast.exchanges > before:
            # Both directions carry up to the per-exchange record cap.
            n = len(self.bartercast.records_of(peer_id))
            self.traffic.bartercast_exchange(n)

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
