"""The local ballot box (§V-A).

Each entry maps ``(voter peer, moderator) → (vote, received_at)``.  The
box holds votes from at most ``B_max`` *unique peers*; beyond that, the
peer whose votes were received longest ago is evicted wholesale ("new
votes replace the oldest votes").  One-node-one-vote-per-moderator is
structural: a voter's repeated vote on the same moderator overwrites.
A merge drops the voter's self-votes, and one that stores nothing
leaves the voter's recency untouched.

Nodes never forward ballot-box contents — only their *own* vote lists —
which is the design's defence against vote-count fabrication.

The state lives in one row of a
:class:`~repro.core.columnar.ColumnarStateStore` (the store holds every
node's box; :class:`BallotBox` is a view of one).  A box built without
a store gets a one-row store of its own.  The dict-backed form of these
rules is the executable spec in ``tests/reference_ballotbox.py``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.columnar import ColumnarStateStore
from repro.core.votes import Vote, VoteEntry


class BallotBox:
    """Bounded sample of other peers' votes: row ``owner_row`` of
    ``store``.  The view holds only ``(store, owner_row, b_max)``."""

    def __init__(
        self,
        b_max: int = 100,
        store: Optional[ColumnarStateStore] = None,
        owner_row: int = 0,
    ):
        if b_max < 1:
            raise ValueError("b_max must be >= 1")
        if store is None:
            store = ColumnarStateStore()
            owner_row = store.ensure_row("")
        self.b_max = b_max
        self._store = store
        self._row = owner_row

    # -- mutations ------------------------------------------------------
    def merge(self, voter: str, entries: Iterable[VoteEntry], now: float) -> int:
        """Fold a voter's vote list into the box; returns the number of
        *distinct* moderators stored (new or updated).  Eviction by
        unique-voter count follows the merge.  One merge of the rules a
        batched vote tick applies to a whole run
        (:meth:`ColumnarStateStore.bb_merge_run`)."""
        return self._store.bb_merge(self._row, self.b_max, voter, entries, now)

    def remove_voter(self, voter: str) -> bool:
        """Drop all votes from one peer (e.g. identity revoked)."""
        return self._store.bb_remove_voter(self._row, voter)

    # -- reads ----------------------------------------------------------
    def num_unique_users(self) -> int:
        """The Fig 3 ``num_unique_users`` guard — voters sampled."""
        return int(self._store.bb_unique[self._row])

    def voters(self) -> List[str]:
        return sorted(self._store.bb_voters(self._row))

    def voters_by_recency(self) -> List[str]:
        """Voters ordered oldest-received first — the order `B_max`
        eviction consumes them."""
        return self._store.bb_voters(self._row)

    def ballot(self) -> List[Tuple[str, float, List[list]]]:
        """``(voter, last_received, votes)`` per voter, oldest-received
        first, ``votes`` as :meth:`votes_of` lists them but as
        ``[moderator, vote, received_at]`` lists with int values — the
        whole box in one read, as a checkpoint serialises it."""
        return self._store.bb_ballot(self._row)

    def votes_of(self, voter: str) -> List[Tuple[str, Vote, float]]:
        """One voter's stored ``(moderator, vote, received_at)``
        triples, in the order the moderators first arrived."""
        return self._store.bb_votes_of(self._row, voter)

    def last_received_of(self, voter: str) -> float:
        """When the voter's votes last arrived (0.0 if unknown)."""
        return self._store.bb_last_received(self._row, voter)

    def moderators(self) -> List[str]:
        return self._store.bb_moderators(self._row)

    def counts(self, moderator_id: str) -> Tuple[int, int]:
        """``(positive, negative)`` vote counts for a moderator."""
        return self._store.bb_counts(self._row, moderator_id)

    def all_counts(self) -> Dict[str, Tuple[int, int]]:
        """``moderator → (positive, negative)`` for every moderator the
        box has votes on, in one pass over the stored votes."""
        return self._store.bb_all_counts(self._row)

    def score(self, moderator_id: str) -> int:
        """Summation score: positives − negatives."""
        pos, neg = self.counts(moderator_id)
        return pos - neg

    def total_votes(self) -> int:
        return self._store.bb_total_votes(self._row)

    def vote_of(self, voter: str, moderator_id: str):
        return self._store.bb_vote_of(self._row, voter, moderator_id)

    def export_digest(self) -> List[Tuple[str, str, int, float]]:
        """Every stored vote as flat ``(voter, moderator, vote,
        received_at)`` rows, sorted by ``(voter, moderator)`` — what
        the inter-shard aggregation path serializes."""
        return self._store.bb_export_digest(self._row)

    def dispersion(self) -> float:
        """Worst-case per-moderator vote disagreement in ``[0, 1]`` —
        the adaptive-T controller's signal (§VII): for every moderator
        with at least two votes, ``4·p·(1−p)`` where ``p`` is the
        positive fraction, taking the maximum over moderators."""
        return self._store.bb_dispersion(self._row)

    def memory_bytes(self) -> int:
        """The box's share of the store's retained footprint."""
        return self._store.box_memory_bytes(self._row)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BallotBox(voters={self.num_unique_users()}/"
            f"{self.b_max}, votes={self.total_votes()})"
        )
