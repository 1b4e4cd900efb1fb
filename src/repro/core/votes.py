"""Votes and the local vote list (§V-A).

A vote is +1 (approval) or −1 (disapproval) of a **moderator** (not of
an individual moderation — the paper's key efficiency decision).  Each
node keeps its own votes in a :class:`LocalVoteList`: one entry per
moderator (re-voting replaces), timestamped, ordered.  Exchanges send
at most ``max_votes`` entries selected by the paper's *recency and
random* policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import TYPE_CHECKING, Dict, List

import numpy as np

if TYPE_CHECKING:  # columnar imports this module
    from repro.core.columnar import ColumnarStateStore


#: The memoised approved/disapproved set of a list without such votes.
_NONE: frozenset = frozenset()


class Vote(IntEnum):
    """A thumbs-up / thumbs-down on a moderator."""

    POSITIVE = 1
    NEGATIVE = -1


@dataclass(frozen=True)
class VoteEntry:
    """One (moderator, vote) pair with the time the vote was cast."""

    moderator_id: str
    vote: Vote
    cast_at: float


def select_positions(
    n: int, max_votes: int, rng: np.random.Generator, policy: str
) -> List[int]:
    """Which of an ``n``-entry vote list's entries an exchange sends
    when the list exceeds the budget (``n > max_votes >= 1``), as
    ascending positions in the list's newest-first order (at or below
    the budget the whole list goes and nothing is drawn).

    The one place the selection policies (the A2 ablation compares
    them) and their RNG draws live; the columnar store maps the
    positions to slices of a packed list:

    * ``"recency_random"`` — the paper's default: half the budget goes
      to the most recent votes, the rest is drawn uniformly from the
      remainder ("experiments demonstrated that combining these
      policies produced acceptable performance");
    * ``"recency"`` — most recent only;
    * ``"random"`` — uniform over all votes.
    """
    if policy == "recency":
        return list(range(max_votes))
    if policy == "random":
        picks = rng.choice(n, size=max_votes, replace=False)
        return sorted(picks.tolist())
    if policy != "recency_random":
        raise ValueError(f"unknown exchange policy {policy!r}")
    recent_budget = max_votes // 2
    picks = rng.choice(
        n - recent_budget, size=max_votes - recent_budget, replace=False
    )
    return list(range(recent_budget)) + [
        recent_budget + i for i in sorted(picks.tolist())
    ]


class LocalVoteList:
    """The node's own ballot paper.

    Invariant: at most one entry per moderator.  ``cast`` with a new
    value replaces the old entry (the user changed their mind) and
    refreshes the timestamp.

    The list belongs to row ``row`` of ``store`` (a
    :class:`~repro.core.columnar.ColumnarStateStore`) and reports every
    cast to it, so the store's ``vl_size`` column and packed wire form
    can never lag the dict, whoever calls :meth:`cast`.
    """

    def __init__(self, store: "ColumnarStateStore", row: int) -> None:
        self._votes: Dict[str, VoteEntry] = {}
        #: bumped on every cast; keys the approved/disapproved sets and
        #: the node's moderation extract
        self.version = 0
        self._sets_version = -1
        self._approved = self._disapproved = _NONE
        self._store = store
        self._row = row
        store.vl_attach(row, self)

    def cast(self, moderator_id: str, vote: Vote, now: float) -> VoteEntry:
        """Record the local user's vote on a moderator (``vote`` may be
        its int value; a ``Vote`` is stored as it is)."""
        if vote.__class__ is not Vote:
            vote = Vote(vote)
        entry = VoteEntry(moderator_id, vote, now)
        self._votes[moderator_id] = entry
        self.version += 1
        self._store.vl_cast(self._row, len(self._votes))
        return entry

    def has_voted(self, moderator_id: str) -> bool:
        return moderator_id in self._votes

    def entries(self) -> List[VoteEntry]:
        """All entries, newest first (deterministic tie-break on id)."""
        return sorted(
            self._votes.values(), key=lambda e: (-e.cast_at, e.moderator_id)
        )

    def approved(self) -> frozenset:
        """Moderators the local user gave a positive vote (memoised
        between casts, like :meth:`disapproved`)."""
        if self._sets_version != self.version:
            self._split()
        return self._approved

    def disapproved(self) -> frozenset:
        """Moderators the local user gave a negative vote."""
        if self._sets_version != self.version:
            self._split()
        return self._disapproved

    def _split(self) -> None:
        approved = [m for m, e in self._votes.items() if e.vote is Vote.POSITIVE]
        disapproved = [m for m, e in self._votes.items() if e.vote is Vote.NEGATIVE]
        # Most lists hold few votes of either sign: share one empty set.
        self._approved = frozenset(approved) if approved else _NONE
        self._disapproved = frozenset(disapproved) if disapproved else _NONE
        self._sets_version = self.version

    def __len__(self) -> int:
        return len(self._votes)
