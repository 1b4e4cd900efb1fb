"""The BarterCast gossip service.

Population-managed like the other substrates: one
:class:`BarterCastService` owns every node's direct-record table and
subjective graph.  Wiring:

* the BitTorrent :class:`~repro.bittorrent.ledger.TransferLedger`
  hands each swarm round's transfers to :meth:`local_transfers` (both
  endpoints update their direct tables; the edge reaches their graphs
  when a graph is next read or written — see :class:`_NodeState`);
* the runtime's batched gossip tick draws each due node's partner
  from the PSS and calls :meth:`gossip_with`; the two exchange their
  most significant *direct* records;
* the experience layer calls :meth:`contribution` to get ``f_{j→i}``.

Acceptance rule: a node only folds received records whose *reporter*
field equals the peer that sent them — hearsay about third parties is
rejected, which is what confines collusive edge-faking to the
colluders' own neighbourhood (the "front peer" discussion in §VII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bartercast.graph import ReadOnlySubjectiveGraph, SubjectiveGraph
from repro.bartercast.maxflow import two_hop_flow, two_hop_flows_to_sink
from repro.bartercast.records import TransferRecord
from repro.pss.base import PeerSamplingService


@dataclass
class BarterCastConfig:
    """Protocol parameters (deployed-BarterCast-like defaults)."""

    #: Max records sent per gossip exchange (most-transferred partners).
    max_records_per_exchange: int = 10

    def __post_init__(self) -> None:
        if self.max_records_per_exchange < 1:
            raise ValueError("max_records_per_exchange must be >= 1")


#: Shared sentinel handed out by :meth:`BarterCastService.graph_of`
#: for peers the service has never seen.  Immutable (mutations raise),
#: permanently empty, ``version == 0`` — exactly what a fresh graph
#: would answer, without the allocation.
_EMPTY_GRAPH = ReadOnlySubjectiveGraph("")


class _NodeState:
    """One node's direct table, subjective graph and top-K record cache.

    Direct observations are **folded on read**: a transfer only updates
    ``direct`` and notes the directed edge in ``pending``; the edges
    reach the graph, each once at its current cumulative total, the
    next time anything asks for :attr:`graph`.  Transfers outnumber
    graph reads several times over, and totals are cumulative with a
    max-merge, so folding the latest total once leaves the same weights
    as folding every intermediate one.  ``pending`` keeps first-touched
    order because the order edges *first* appear fixes the graph's
    node order (the one :meth:`SubjectiveGraph.dense` reports); every
    access folds first, so a gossip record or an injected one still
    lands after the observations that preceded it.
    """

    __slots__ = (
        "direct",
        "pending",
        "_graph",
        "direct_version",
        "records_cache",
    )

    def __init__(self, owner: str):
        #: partner -> [up_total, down_total, last_update]
        self.direct: Dict[str, List[float]] = {}
        #: (uploader, downloader) -> the ``direct`` entry holding the
        #: edge's total, for edges observed since the last fold
        self.pending: Dict[Tuple[str, str], List[float]] = {}
        self._graph = SubjectiveGraph(owner)
        #: bumped on every direct-table mutation (invalidates the
        #: cached top-K record list below)
        self.direct_version = 0
        #: (direct_version, records) — top-K most-significant records
        self.records_cache: Optional[Tuple[int, List[TransferRecord]]] = None

    @property
    def graph(self) -> SubjectiveGraph:
        """The subjective graph with every direct observation folded."""
        graph = self._graph
        if self.pending:
            owner = graph.owner
            for (uploader, downloader), totals in self.pending.items():
                graph.observe_direct(
                    uploader, downloader, totals[0] if uploader == owner else totals[1]
                )
            self.pending.clear()
        return graph


class BarterCastService:
    """All nodes' BarterCast state plus the contribution oracle."""

    def __init__(self, pss: PeerSamplingService, config: Optional[BarterCastConfig] = None):
        self._pss = pss
        self.config = config or BarterCastConfig()
        self._nodes: Dict[str, _NodeState] = {}
        #: top-K record cache telemetry (see :meth:`cache_stats`)
        self.records_cache_hits = 0
        self.records_cache_misses = 0

    def _state(self, peer_id: str) -> _NodeState:
        """The peer's state, **materialising** it on first access —
        write paths only.  Read paths (:meth:`graph_of`,
        :meth:`records_of`, :meth:`contribution`,
        :meth:`contributions_to_observer`) use :meth:`_peek` so probing
        never-seen peers stays free."""
        st = self._nodes.get(peer_id)
        if st is None:
            st = _NodeState(peer_id)
            self._nodes[peer_id] = st
        return st

    def _peek(self, peer_id: str) -> Optional[_NodeState]:
        """The peer's state if the service has ever seen it, else
        ``None`` — never materialises."""
        return self._nodes.get(peer_id)

    # ------------------------------------------------------------------
    # Local observation (wired to the transfer ledger)
    # ------------------------------------------------------------------
    def local_transfer(self, uploader: str, downloader: str, nbytes: float, now: float) -> None:
        """One transfer: :meth:`local_transfers` of a batch of one."""
        self.local_transfers(((uploader, downloader, nbytes),), now)

    def local_transfers(
        self, transfers: Iterable[Tuple[str, str, float]], now: float
    ) -> None:
        """``(uploader, downloader, nbytes)`` transfers at ``now``, in
        order — a swarm round's links in one call.  For each, both
        endpoints record it in their direct tables and note the edge
        for their graphs' next fold; non-positive amounts are skipped."""
        nodes = self._nodes
        for uploader, downloader, nbytes in transfers:
            if nbytes <= 0:
                continue
            edge = (uploader, downloader)
            up_state = nodes.get(uploader) or self._state(uploader)
            rec = up_state.direct.get(downloader)
            if rec is None:
                rec = up_state.direct[downloader] = [0.0, 0.0, now]
            rec[0] += nbytes
            rec[2] = now
            up_state.direct_version += 1
            up_state.pending[edge] = rec

            down_state = nodes.get(downloader) or self._state(downloader)
            rec = down_state.direct.get(uploader)
            if rec is None:
                rec = down_state.direct[uploader] = [0.0, 0.0, now]
            rec[1] += nbytes
            rec[2] = now
            down_state.direct_version += 1
            down_state.pending[edge] = rec

    def inject_record(self, holder: str, record: TransferRecord) -> None:
        """Directly fold a record into ``holder``'s graph, bypassing the
        reporter check — used by attack models to simulate colluders
        feeding each other fabricated statements."""
        self._state(holder).graph.add_record(record)

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def gossip_tick(self, peer_id: str, now: float) -> bool:
        """One active exchange: meet a PSS peer, swap direct records."""
        partner = self._pss.sample(peer_id)
        if partner is None or partner == peer_id:
            return False
        self.gossip_with(peer_id, partner, now)
        return True

    def gossip_with(self, peer_id: str, partner: str, now: float) -> None:
        """The exchange itself, with a partner the caller sampled (the
        runtime's batched gossip tick draws a whole run's partners at
        once).  A write path: both parties end up with state."""
        for sender, receiver in ((peer_id, partner), (partner, peer_id)):
            records = self._top_records(sender, self._state(sender))
            graph = self._state(receiver).graph
            for rec in records:
                # Acceptance rule: sender must be the reporter.
                if rec.reporter != sender:
                    continue
                graph.add_record(rec)

    def records_of(self, peer_id: str) -> List[TransferRecord]:
        """The node's own direct records, most-significant first,
        truncated to the per-exchange budget.

        A read path: a peer the service has never seen has no records,
        and asking neither materialises state for it nor touches the
        records-cache counters."""
        st = self._peek(peer_id)
        if st is None:
            return []
        return self._top_records(peer_id, st)

    def _top_records(self, peer_id: str, st: _NodeState) -> List[TransferRecord]:
        """The sorted top-K list is cached per node and invalidated by
        the direct-table version counter, so gossip ticks between
        transfers reuse it instead of re-sorting the whole table."""
        if st.records_cache is not None and st.records_cache[0] == st.direct_version:
            self.records_cache_hits += 1
            return list(st.records_cache[1])
        self.records_cache_misses += 1
        items = sorted(
            st.direct.items(),
            key=lambda kv: -(kv[1][0] + kv[1][1]),
        )[: self.config.max_records_per_exchange]
        records = [
            TransferRecord(
                reporter=peer_id,
                partner=partner,
                up=totals[0],
                down=totals[1],
                timestamp=totals[2],
            )
            for partner, totals in items
        ]
        st.records_cache = (st.direct_version, records)
        return list(records)

    # ------------------------------------------------------------------
    # Contribution oracle
    # ------------------------------------------------------------------
    def contribution(self, observer: str, subject: str) -> float:
        """``f_{subject→observer}``: max flow from ``subject`` to
        ``observer`` in the observer's subjective graph (bytes) under
        deployed BarterCast's 2-hop bound — :func:`two_hop_flow`'s
        closed form over ``subject``'s out-row and ``observer``'s
        in-row.  An observer the service has never seen has an empty
        graph, so every flow is exactly 0; asking materialises no state
        for it."""
        if observer == subject:
            return 0.0
        st = self._peek(observer)
        if st is None:
            return 0.0
        return two_hop_flow(st.graph, subject, observer)

    def contributions_to_observer(
        self, observer: str, subjects: Sequence[str]
    ) -> np.ndarray:
        """``f_{j→observer}`` for every ``j`` in ``subjects`` at once.

        The batch counterpart of :meth:`contribution`: one
        :func:`~repro.bartercast.maxflow.two_hop_flows_to_sink` pass
        over the observer's in-row and each subject's out-row, with its
        fixed (ascending node-id) reduction order.  Values equal
        :func:`two_hop_flow`'s up to the last ulp: the scalar form sums
        in out-row order.  Probing a never-seen observer
        returns zeros without materialising state (metric sweeps over
        the full trace population must leave the service untouched)."""
        subjects = list(subjects)
        st = self._peek(observer)
        if st is None:
            return np.zeros(len(subjects), dtype=float)
        return two_hop_flows_to_sink(st.graph, subjects, observer)

    # ------------------------------------------------------------------
    # Cache telemetry
    # ------------------------------------------------------------------
    def cache_stats(self) -> Dict[str, int]:
        """Hits and misses of the top-K record cache, for run
        summaries."""
        return {
            # Always 0: nothing caches contributions.  They remain only
            # because the repo benchmark's workloads
            # (``bench/workloads.py``) read them for
            # ``bartercast.contribution_hit_rate``; they leave when the
            # benchmark is re-baselined (ROADMAP item 1).
            "contribution_hits": 0,
            "contribution_misses": 0,
            "records_hits": self.records_cache_hits,
            "records_misses": self.records_cache_misses,
        }

    def graph_of(self, peer_id: str) -> SubjectiveGraph:
        """The node's subjective graph (read path; metrics use).

        For a peer the service has never seen, a **shared read-only
        empty graph** is returned instead of materialising fresh state
        — probing the full trace population must not grow ``_nodes``.
        The sentinel raises on any mutation attempt; write paths go
        through :meth:`local_transfers` / :meth:`inject_record`."""
        st = self._peek(peer_id)
        if st is None:
            return _EMPTY_GRAPH
        return st.graph
