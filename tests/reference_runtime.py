"""The executable spec of the runtime's scheduling, state and exchanges.

:class:`ReferenceRuntime` is :class:`ProtocolRuntime` with its
production layers swapped for their plain originals:

* every protocol loop of every peer is its own :class:`PeriodicProcess`
  heap entry (no population engine, so no batched gossip tick) — the
  paper's ``do forever: wait Δ; ...`` loop as one self-rescheduling
  engine event;
* every node keeps its ballot box in the dict-backed
  :class:`~tests.reference_ballotbox.ReferenceBallotBox` (the state
  store still backs the rest of the node);
* the three gossip exchanges are the scalar per-peer ticks of Figs 1
  and 3 a — partner sampling, experience gating, vote selection and
  merging through per-node handlers (:class:`ReferenceNode`);
* a flash-crowd member is a :class:`SpamColluderNode` subclass where
  production installs a behaviour row.

The engine-identity tests run one scenario on both runtimes and demand
bit-identical protocol results.
"""

from functools import partial
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.moderation import Moderation, ModerationStore
from repro.core.moderationcast import eligible_moderations, select_moderations
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.runtime import JITTER_FRACTION, ProtocolRuntime
from repro.core.votes import LocalVoteList, Vote, VoteEntry, select_positions
from repro.sim.engine import Engine, EventHandle
from tests.reference_ballotbox import ReferenceBallotBox


class PeriodicProcess:
    """Repeatedly invoke ``action()`` every ``interval`` simulated seconds.

    Gossip protocols in the paper are ``do forever: wait Δ; ...`` loops
    (Figs 1 and 3); this is one such loop.  It re-schedules itself every
    ``interval`` seconds, with optional uniform jitter so that a
    population of processes does not fire in lock-step.

    Parameters
    ----------
    engine:
        The simulation engine to schedule on.
    interval:
        The paper's Δ — seconds between invocations.
    action:
        Zero-argument callable run on each tick.
    jitter:
        If > 0, each gap is ``interval + U(-jitter, +jitter)`` (clamped
        to be positive).  Requires ``rng``.
    rng:
        Generator used for jitter draws.
    phase:
        Delay before the first tick.  Defaults to one full interval
        (with jitter), matching a node that just started its loop.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        action: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        phase: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self._engine = engine
        self._interval = float(interval)
        self._action = action
        self._jitter = float(jitter)
        self._rng = rng
        self._handle: Optional[EventHandle] = None
        self._stopped = True
        self.ticks = 0
        self._initial_phase = phase

    def _next_gap(self) -> float:
        if self._jitter > 0.0:
            assert self._rng is not None
            gap = self._interval + self._rng.uniform(-self._jitter, self._jitter)
            return max(gap, 1e-9)
        return self._interval

    def _tick(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._action()
        if not self._stopped:  # action may have stopped us
            self._handle = self._engine.schedule(self._next_gap(), self._tick)

    def start(self) -> None:
        """Begin ticking.  Idempotent while running."""
        if not self._stopped:
            return
        self._stopped = False
        first = self._initial_phase if self._initial_phase is not None else self._next_gap()
        self._handle = self._engine.schedule(max(first, 0.0), self._tick)

    def stop(self) -> None:
        """Cancel the pending tick and stop the loop.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        """``True`` between :meth:`start` and :meth:`stop`."""
        return not self._stopped


def population_online(population, peer_id: str) -> bool:
    """Whether a :class:`~repro.sim.population.PopulationEngine`
    dispatches ``peer_id``'s loops."""
    row = population.rows.get(peer_id)
    online = population._online
    return bool(row is not None and row < len(online) and online[row])


def vote_on(vote_list: LocalVoteList, moderator_id: str) -> Optional[Vote]:
    """The local user's vote on a moderator, or ``None``."""
    for entry in vote_list.entries():
        if entry.moderator_id == moderator_id:
            return entry.vote
    return None


def select_for_exchange(
    vote_list: LocalVoteList,
    max_votes: int,
    rng: np.random.Generator,
    policy: str = "recency_random",
) -> List[VoteEntry]:
    """The votes an exchange sends, bounded by ``max_votes``: the whole
    list (newest first) when it fits, else the policy's
    :func:`select_positions`."""
    if max_votes < 1:
        return []
    entries = vote_list.entries()
    if len(entries) <= max_votes:
        return entries
    return [entries[i] for i in select_positions(len(entries), max_votes, rng, policy)]


def extract_moderations(
    store: ModerationStore,
    vote_list: LocalVoteList,
    own_id: str,
    max_items: int,
    rng: np.random.Generator,
) -> List[Moderation]:
    """The ``Extract(local_db)`` of Fig 1 for one exchange, recomputed
    from scratch (the node memoises the eligible list)."""
    if max_items < 1:
        return []
    return select_moderations(
        eligible_moderations(store, vote_list, own_id), max_items, rng
    )


class ReferenceNode(VoteSamplingNode):
    """A node with the per-message BallotBox handlers (Fig 3 b) that the
    production gossip batch runs row to row over the columns, and the
    dict-backed reference box in place of the columnar view."""

    def __init__(self, peer_id, config=None, rng=None, col_store=None):
        super().__init__(peer_id, config, rng, col_store)
        self.ballot_box = ReferenceBallotBox(self.config.b_max)

    def votes_to_send(self) -> List[VoteEntry]:
        """Our vote list, truncated to the exchange cap by the
        configured selection policy."""
        return select_for_exchange(
            self.vote_list,
            self.config.votes_per_exchange,
            self.rng,
            policy=self.config.exchange_policy,
        )

    def receive_votes(
        self, voter: str, entries: Sequence[VoteEntry], now: float, experienced: bool
    ) -> int:
        """Merge a received vote list iff the sender is experienced.

        The ``votes_per_exchange`` cap is enforced *here*, on the
        receiver — honest senders already truncate in
        :meth:`votes_to_send`, but a malicious peer can ship an
        arbitrarily long list, and trusting the sender would let it
        bloat the ballot box with unbounded distinct moderators per
        voter (memory ``B_max`` alone does not bound).

        Returns the number of stored entries (0 on rejection).
        """
        if voter == self.peer_id:
            return 0
        if not experienced:
            self.votes_rejected_inexperienced += 1
            return 0
        entries = list(entries)
        cap = self.config.votes_per_exchange
        if len(entries) > cap:
            self.votes_truncated += len(entries) - cap
            entries = entries[:cap]
        stored = self.ballot_box.merge(voter, entries, now)
        self.votes_merged += stored
        return stored


#: The handlers as plain functions, for any :class:`VoteSamplingNode`
#: (tests fill production nodes' boxes through them).
votes_to_send = ReferenceNode.votes_to_send
receive_votes = ReferenceNode.receive_votes


class SpamColluderNode(ReferenceNode):
    """One flash-crowd member as a node subclass: the per-node form of
    the crowd behaviour code."""

    def __init__(
        self,
        peer_id: str,
        votes: Sequence[VoteEntry],
        top_k: Sequence[str],
        config: Optional[NodeConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__(peer_id, config, rng)
        self.crowd_votes = list(votes)
        self.crowd_top_k = list(top_k)

    def votes_to_send(self) -> List[VoteEntry]:
        """Always the crowd's list: ``+M0`` plus decoy negatives."""
        return list(self.crowd_votes)

    def receive_votes(self, voter, entries, now, experienced) -> int:
        """Colluders don't build honest statistics."""
        return 0

    def needs_bootstrap(self) -> bool:
        """Never poll others — the crowd's ranking is fixed."""
        return False

    def respond_top_k(self) -> Optional[List[str]]:
        """Answer every request with the spam list, regardless of
        B_min."""
        return list(self.crowd_top_k)

    def current_ranking(self):
        return [(self.crowd_top_k[0], float("inf"))]


class ReferenceRuntime(ProtocolRuntime):
    """One ``PeriodicProcess`` per peer per protocol, dict ballot boxes,
    scalar gossip ticks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._processes: Dict[str, List[PeriodicProcess]] = {}

    def ensure_node(self, peer_id: str) -> VoteSamplingNode:
        node = self.nodes.get(peer_id)
        if node is None:
            node = self.nodes[peer_id] = ReferenceNode(
                peer_id,
                self.config.node,
                self._rng.stream("node", peer_id),
                self._col_store,
            )
        return node

    def add_crowd_member(
        self, peer_id: str, votes: List[VoteEntry], top_k: List[str]
    ) -> VoteSamplingNode:
        if peer_id in self.nodes:
            raise ValueError(f"node {peer_id!r} already registered")
        node = self.nodes[peer_id] = SpamColluderNode(
            peer_id,
            votes,
            top_k,
            config=self.config.node,
            rng=self._rng.stream("colluder", peer_id),
        )
        return node

    # ------------------------------------------------------------------
    # Scheduling: one process per peer per protocol
    # ------------------------------------------------------------------
    def _start_ticks(self, peer_id: str, now: float) -> None:
        procs = self._processes.get(peer_id)
        if procs is None:
            rng = self._rng.stream("jitter", peer_id)
            procs = self._processes[peer_id] = [
                PeriodicProcess(
                    self.engine,
                    interval,
                    partial(action, peer_id),
                    jitter=interval * JITTER_FRACTION,
                    rng=rng,
                )
                for _name, interval, action, *_batch in self._protocol_specs()
            ]
        for proc in procs:
            proc.start()

    def _stop_ticks(self, peer_id: str) -> None:
        for proc in self._processes.get(peer_id, ()):
            proc.stop()

    # ------------------------------------------------------------------
    # The scalar gossip ticks
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
        if peer_id not in self._online_since:
            return
        node = self.nodes[peer_id]
        partner = self._partner_for(peer_id)
        if partner is None:
            return
        now = self.engine.now
        # Push/pull (Fig 1): both sides extract then merge.
        outbound = node.moderations_to_send()
        inbound = partner.moderations_to_send()
        partner.receive_moderations(outbound, now)
        node.receive_moderations(inbound, now)
        self.traffic.moderation_exchange_many(1, len(outbound) + len(inbound))

    def _vote_tick(self, peer_id: str) -> None:
        if peer_id not in self._online_since:
            return
        node = self.nodes[peer_id]
        # The round's partner set: `vote_fanout` PSS draws (duplicates
        # and failed connects dropped), gated through one
        # `experienced_many` evaluation.
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
                    partner.peer_id, [peer_id]
                )[peer_id],
            )
            self.traffic.vote_exchange_many(1, len(votes_out) + len(votes_in))
            # VoxPopuli (Fig 3 a+c): only while bootstrapping.
            if node.config.voxpopuli_enabled and node.needs_bootstrap():
                response = partner.respond_top_k()
                node.receive_top_k(response)
                self.traffic.voxpopuli_exchange_many(1, len(response) if response else 0)

    def _bartercast_tick(self, peer_id: str) -> None:
        if peer_id not in self._online_since:
            return
        if self.bartercast.gossip_tick(peer_id, self.engine.now):
            # Both directions carry up to the per-exchange record cap.
            n = len(self.bartercast.records_of(peer_id))
            self.traffic.bartercast_exchange_many(1, n)

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def ballot_memory_bytes(self) -> int:
        return sum(node.ballot_box.memory_bytes() for node in self.nodes.values())

    def population_summary(self) -> Dict[str, object]:
        """The production telemetry's counting keys; every tick is its
        own heap event, so batches degenerate to size 1."""
        names = [spec[0] for spec in self._protocol_specs()]
        ticks_by_protocol = dict.fromkeys(names, 0)
        for procs in self._processes.values():
            for name, proc in zip(names, procs):
                ticks_by_protocol[name] += proc.ticks
        ticks = sum(ticks_by_protocol.values())
        return {
            "peers_total": len(self.nodes),
            "peers_online": len(self._online_since),
            "ticks": ticks,
            "batches": ticks,
            "mean_batch_size": 1.0 if ticks else 0.0,
            "max_batch_size": 1 if ticks else 0,
            "batch_calls": 0,
            "ticks_by_protocol": ticks_by_protocol,
            "ballot_memory_bytes": self.ballot_memory_bytes(),
        }
