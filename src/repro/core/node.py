"""One peer's complete vote-sampling protocol state.

:class:`VoteSamplingNode` composes the local moderation database, the
local vote list, the ballot box and the VoxPopuli cache, and implements
the per-message logic of Fig 1 and of VoxPopuli's passive side.  It is
engine-agnostic — the :mod:`repro.core.runtime` schedules its exchanges
— which keeps every protocol rule unit-testable in isolation.  The
BallotBox exchange (Fig 3 b) works row to row on the state store's
columns, inside the runtime's batched gossip tick; its per-node form
lives with the tests as the executable spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.ballotbox import BallotBox
from repro.core.columnar import ColumnarStateStore
from repro.core.moderation import Moderation, ModerationStore
from repro.core.moderationcast import eligible_moderations, select_moderations
from repro.core.ranking import Ranking, rank_by_sum, top_k
from repro.core.votes import LocalVoteList, Vote
from repro.core.voxpopuli import TopKCache
from repro.sim.rng import StreamFamily


@dataclass
class NodeConfig:
    """Protocol parameters (§VI defaults)."""

    b_min: int = 5
    b_max: int = 100
    v_max: int = 10
    k: int = 3
    votes_per_exchange: int = 50
    moderations_per_exchange: int = 25
    moderation_store_capacity: int = 1000
    #: Vote selection policy: "recency_random" (paper), "recency", "random".
    exchange_policy: str = "recency_random"
    #: Disable the VoxPopuli bootstrap entirely (ablation A6): nodes
    #: below B_min simply have no ranking.
    voxpopuli_enabled: bool = True

    def __post_init__(self) -> None:
        if self.exchange_policy not in ("recency_random", "recency", "random"):
            raise ValueError(f"unknown exchange_policy {self.exchange_policy!r}")
        if self.b_min < 1 or self.b_max < self.b_min:
            raise ValueError("need 1 <= b_min <= b_max")
        if self.v_max < 1 or self.k < 1:
            raise ValueError("v_max and k must be >= 1")
        if self.votes_per_exchange < 1 or self.moderations_per_exchange < 1:
            raise ValueError("exchange budgets must be >= 1")


#: A node's random stream, or how to derive it from the peer id.
NodeRng = Union[np.random.Generator, Callable[[str], np.random.Generator]]


class VoteSamplingNode:
    """Protocol state and message handlers for one peer.

    ``rng`` is the node's stream, or a function that derives it from
    the peer id; a function is called on the node's first draw, so a
    node that never draws never builds a generator (``None``: a
    ``default_rng(0)`` built the same way)."""

    def __init__(
        self,
        peer_id: str,
        config: Optional[NodeConfig] = None,
        rng: Optional[NodeRng] = None,
        col_store: Optional[ColumnarStateStore] = None,
    ):
        self.peer_id = peer_id
        self.config = config or NodeConfig()
        self._rng = rng
        self.store = ModerationStore(self.config.moderation_store_capacity)
        # The state store this node is row :attr:`row` of (a one-node
        # store of its own when none is passed): the ballot box is a
        # view of its columns, and the vote list reports its casts to
        # it (the vl_size column and the packed wire form follow).
        col_store = col_store or ColumnarStateStore()
        self.row = col_store.ensure_row(peer_id)
        self.ballot_box = BallotBox(self.config.b_max, col_store, self.row)
        self.vote_list = LocalVoteList(col_store, self.row)
        self.topk_cache = TopKCache(self.config.v_max, self.config.k)
        #: votes the user will cast when the moderator's metadata arrives
        self.vote_intentions: Dict[str, Vote] = {}
        #: ``((store mutation count, vote-list version), eligible)`` —
        #: see :meth:`moderations_to_send`
        self._eligible: Optional[Tuple[Tuple[int, int], List[Moderation]]] = None
        # Counters for instrumentation.
        self.moderations_received = 0
        self.votes_merged = 0
        self.votes_rejected_inexperienced = 0
        self.votes_truncated = 0
        self.vp_requests_answered = 0
        self.vp_requests_declined = 0

    @property
    def rng(self) -> np.random.Generator:
        """The node's stream; feeds over-budget selections only."""
        rng = self._rng
        if not isinstance(rng, np.random.Generator):
            rng = self._rng = (
                np.random.default_rng(0) if rng is None else rng(self.peer_id)
            )
        return rng

    def rng_state(self) -> Dict[str, Any]:
        """The ``bit_generator.state`` of :attr:`rng`.  A stream a
        :class:`~repro.sim.rng.StreamFamily` derives on first draw is
        read from the family, so asking builds no generator."""
        rng = self._rng
        if isinstance(rng, StreamFamily):
            return rng.state(self.peer_id)
        return self.rng.bit_generator.state

    # ------------------------------------------------------------------
    # User actions
    # ------------------------------------------------------------------
    def create_moderation(
        self, torrent_id: str, title: str, now: float, description: str = ""
    ) -> Moderation:
        """Author a moderation (we are the moderator) and store it."""
        mod = Moderation(
            moderator_id=self.peer_id,
            torrent_id=torrent_id,
            title=title,
            description=description,
            created_at=now,
        )
        self.store.insert(mod, now)
        return mod

    def cast_vote(self, moderator_id: str, vote: Vote, now: float) -> None:
        """The user approves/disapproves a moderator.

        Disapproval purges the moderator's metadata from the local
        database and blocks future moderations from them (§IV).
        """
        if moderator_id == self.peer_id:
            raise ValueError("a node cannot vote on itself")
        if vote.__class__ is not Vote:
            vote = Vote(vote)
        self.vote_list.cast(moderator_id, vote, now)
        if vote is Vote.NEGATIVE:
            self.store.purge_moderator(moderator_id)

    def set_vote_intention(self, moderator_id: str, vote: Vote) -> None:
        """Declare how the user will vote once they actually *see*
        metadata from this moderator (Fig 6 workload semantics: "Voting
        nodes do not vote until they receive the appropriate
        moderations")."""
        self.vote_intentions[moderator_id] = Vote(vote)

    # ------------------------------------------------------------------
    # ModerationCast (Fig 1)
    # ------------------------------------------------------------------
    def moderations_to_send(self) -> List[Moderation]:
        """``Extract(local_db)`` — own + approved moderators only.

        The eligible list is memoised on ``(store.mutation_count,
        vote_list.version)``, which move with everything it reads, so
        an exchange between two changes skips the re-sort; only an
        over-budget selection draws (from :attr:`rng`, which an
        in-budget call does not even build), on every call, as an
        unmemoised Extract does.  Callers must treat the returned list
        as read-only."""
        key = (self.store.mutation_count, self.vote_list.version)
        memo = self._eligible
        if memo is None or memo[0] != key:
            memo = self._eligible = (
                key,
                eligible_moderations(self.store, self.vote_list, self.peer_id),
            )
        budget = self.config.moderations_per_exchange
        if len(memo[1]) <= budget:
            return memo[1]
        return select_moderations(memo[1], budget, self.rng)

    def receive_moderations(self, items: Sequence[Moderation], now: float) -> int:
        """``Merge(local_db, ml)`` — returns how many were newly stored.

        Drops invalid signatures and anything from disapproved
        moderators; fires pending vote intentions on first contact with
        a moderator's metadata.

        Items already held at the same or a newer version are dropped
        up front: the store would turn each away untouched.  The one
        exception is a purge mid-merge — a negative intention firing on
        a moderator's first item removes everything they authored, and
        a later item of theirs is then new again — so a pending
        negative intention among the rest keeps the whole list.
        Capacity is enforced whatever was offered.
        """
        store = self.store
        offered = store.unheld(items)
        new_count = 0
        if offered:
            intentions = self.vote_intentions
            if intentions and any(
                intentions.get(mod.moderator_id) is Vote.NEGATIVE
                and not self.vote_list.has_voted(mod.moderator_id)
                for mod in offered
            ):
                offered = items
            disapproved = self.vote_list.disapproved()
            for mod in offered:
                if not mod.signature_valid:
                    continue
                if mod.moderator_id in disapproved:
                    continue
                if mod.moderator_id == self.peer_id and mod.key() not in store:
                    # Somebody echoing our id with content we never
                    # made — signature checking upstream should prevent
                    # this, but never let it override our own
                    # authorship.
                    continue
                if store.insert(mod, now):
                    new_count += 1
                    self.moderations_received += 1
                    self._maybe_apply_intention(mod.moderator_id, now)
        store.enforce_capacity(self.vote_list.approved())
        return new_count

    def _maybe_apply_intention(self, moderator_id: str, now: float) -> None:
        intention = self.vote_intentions.get(moderator_id)
        if intention is not None and not self.vote_list.has_voted(moderator_id):
            self.cast_vote(moderator_id, intention, now)

    # ------------------------------------------------------------------
    # VoxPopuli (Fig 3 a/c)
    # ------------------------------------------------------------------
    def needs_bootstrap(self) -> bool:
        """Active thread condition: unique voters below ``B_min``."""
        return self.ballot_box.num_unique_users() < self.config.b_min

    def respond_top_k(self) -> Optional[List[str]]:
        """Passive thread (Fig 3 c): answer with our top-K only when we
        are *not* ourselves bootstrapping, else ``null`` — "this
        prevents nodes unwittingly passing potentially malicious top-K
        lists received from others"."""
        if self.needs_bootstrap():
            self.vp_requests_declined += 1
            return None
        self.vp_requests_answered += 1
        return top_k(self.ballot_ranking(), self.config.k)

    def receive_top_k(self, top_k_list: Optional[Sequence[str]]) -> None:
        """Cache a VoxPopuli response (``null`` responses are ignored)."""
        if top_k_list:
            self.topk_cache.add(top_k_list)

    # ------------------------------------------------------------------
    # Ranking
    # ------------------------------------------------------------------
    def known_moderators(self) -> List[str]:
        """Moderators this node can rank: metadata seen, votes heard,
        own votes cast, or names from cached top-K lists."""
        known = set(self.store.moderators())
        known.update(self.ballot_box.moderators())
        known.update(m for m in self.topk_cache.known_moderators())
        known.update(e.moderator_id for e in self.vote_list.entries())
        known.discard(self.peer_id)
        return sorted(known)

    def ballot_ranking(self) -> Ranking:
        """Summation ranking over everything we know."""
        return rank_by_sum(self.ballot_box, universe=self.known_moderators())

    def current_ranking(self) -> Ranking:
        """The ranking the UI would show right now.

        Sample big enough (≥ ``B_min`` voters) → ballot-box statistics;
        otherwise → VoxPopuli merged ranking (possibly empty if nothing
        has been received yet)."""
        if not self.needs_bootstrap():
            return self.ballot_ranking()
        return self.topk_cache.merged_ranking()
