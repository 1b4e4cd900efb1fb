"""The dict-backed ballot box: the executable spec of §V-A.

Each entry maps ``(voter peer, moderator) → (vote, received_at)``.  The
box holds votes from at most ``B_max`` *unique peers*; beyond that, the
peer whose votes were received longest ago is evicted wholesale ("new
votes replace the oldest votes").  One-node-one-vote-per-moderator is
structural: a voter's repeated vote on the same moderator overwrites.

Production keeps every box in the columns of a
:class:`~repro.core.columnar.ColumnarStateStore`
(:class:`repro.core.ballotbox.BallotBox` is the view of one); the
differential suites (``test_core_columnar.py``,
``test_columnar_payloads.py``, ``test_deferred_merges.py``) and
:class:`tests.reference_runtime.ReferenceNode` run this plain-dict form
beside it, and ``test_core_ballotbox.py`` holds both to the same unit
tests.
"""

from __future__ import annotations

import sys
from typing import Dict, Iterable, List, Set, Tuple

from repro.core.votes import Vote, VoteEntry


class ReferenceBallotBox:
    """Bounded sample of other peers' votes."""

    def __init__(self, b_max: int = 100):
        if b_max < 1:
            raise ValueError("b_max must be >= 1")
        self.b_max = b_max
        #: voter -> moderator -> (vote, received_at)
        self._votes: Dict[str, Dict[str, Tuple[Vote, float]]] = {}
        #: voter -> last time we received votes from them
        self._last_received: Dict[str, float] = {}
        self._seq = 0
        #: voter -> recency stamp, kept in *recency order*: a bump pops
        #: and re-inserts (move-to-end), so the dict's insertion order
        #: IS the eviction order and the oldest voter is the head.
        self._voter_order: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def merge(self, voter: str, entries: Iterable[VoteEntry], now: float) -> int:
        """Fold a voter's vote list into the box.

        Returns the number of *distinct* moderators stored (new or
        updated).  A list that repeats a moderator id collapses to its
        last vote — one-node-one-vote is structural — so the count must
        not credit the duplicates, or a ``["m","m",...]``-style list
        would report N stored votes while storing 1 and inflate the
        stored-votes telemetry for free.  Eviction by unique-voter
        count runs after the merge.  A merge that stores nothing
        leaves the voter's recency untouched.
        """
        entries = list(entries)
        if not entries:
            return 0
        votes = self._votes.setdefault(voter, {})
        stored: Set[str] = set()
        for e in entries:
            if e.moderator_id == voter:
                # Self-votes carry no information; a moderator always
                # approves of itself.
                continue
            votes[e.moderator_id] = (Vote(e.vote), now)
            stored.add(e.moderator_id)
        if not votes:
            self._votes.pop(voter, None)
            return 0
        if not stored:
            # Nothing usable arrived (e.g. a self-vote-only list).  Do
            # NOT refresh the voter's recency: bumping it here would let
            # a peer dodge B_max eviction forever by periodically
            # shipping empty-calorie exchanges.
            return 0
        self._last_received[voter] = now
        self._bump_recency(voter)
        self._evict()
        return len(stored)

    def _bump_recency(self, voter: str) -> None:
        """Move the voter to the end of the recency order.  A plain
        value assignment would keep the dict's original insertion
        position, so an existing key is popped first."""
        self._seq += 1
        self._voter_order.pop(voter, None)
        self._voter_order[voter] = self._seq

    def _evict(self) -> None:
        # The recency-ordered dict makes the victim the head — O(1)
        # amortised per eviction instead of a min-scan over every
        # voter per merge under eviction pressure.
        while len(self._votes) > self.b_max:
            victim = next(iter(self._voter_order))
            self._votes.pop(victim, None)
            self._last_received.pop(victim, None)
            self._voter_order.pop(victim, None)

    def remove_voter(self, voter: str) -> bool:
        """Drop all votes from one peer (e.g. identity revoked)."""
        if voter not in self._votes:
            return False
        del self._votes[voter]
        self._last_received.pop(voter, None)
        self._voter_order.pop(voter, None)
        return True

    # ------------------------------------------------------------------
    def num_unique_users(self) -> int:
        """The Fig 3 ``num_unique_users`` guard — voters sampled."""
        return len(self._votes)

    def voters(self) -> List[str]:
        return sorted(self._votes)

    def voters_by_recency(self) -> List[str]:
        """Voters ordered oldest-received first — the order `B_max`
        eviction consumes them."""
        return list(self._voter_order)

    def votes_of(self, voter: str) -> List[Tuple[str, Vote, float]]:
        """One voter's stored ``(moderator, vote, received_at)``
        triples — a single pass over the voter's votes, no per-moderator
        probing."""
        return [
            (moderator, vote, received_at)
            for moderator, (vote, received_at) in self._votes.get(voter, {}).items()
        ]

    def last_received_of(self, voter: str) -> float:
        """When the voter's votes last arrived (0.0 if unknown)."""
        return self._last_received.get(voter, 0.0)

    def ballot(self) -> List[Tuple[str, float, List[list]]]:
        """``(voter, last_received, votes)`` per voter, oldest-received
        first, ``votes`` as :meth:`votes_of` lists them but as
        ``[moderator, vote, received_at]`` lists with int values."""
        return [
            (
                voter,
                self.last_received_of(voter),
                [[m, int(v), at] for m, v, at in self.votes_of(voter)],
            )
            for voter in self.voters_by_recency()
        ]

    def moderators(self) -> List[str]:
        out = set()
        for votes in self._votes.values():
            out.update(votes.keys())
        return sorted(out)

    def counts(self, moderator_id: str) -> Tuple[int, int]:
        """``(positive, negative)`` vote counts for a moderator."""
        pos = neg = 0
        for votes in self._votes.values():
            entry = votes.get(moderator_id)
            if entry is None:
                continue
            if entry[0] is Vote.POSITIVE:
                pos += 1
            else:
                neg += 1
        return pos, neg

    def all_counts(self) -> Dict[str, Tuple[int, int]]:
        """``moderator → (positive, negative)`` for every moderator the
        box has votes on, in one pass over the stored votes.

        Equivalent to calling :meth:`counts` per moderator (integer
        tallies, so bit-identical) but O(total votes) instead of
        O(moderators × voters) — the difference between a linear and a
        quadratic dispersion scan per adaptive tick."""
        totals: Dict[str, Tuple[int, int]] = {}
        for votes in self._votes.values():
            for moderator_id, (vote, _at) in votes.items():
                pos, neg = totals.get(moderator_id, (0, 0))
                if vote is Vote.POSITIVE:
                    totals[moderator_id] = (pos + 1, neg)
                else:
                    totals[moderator_id] = (pos, neg + 1)
        return totals

    def dispersion(self) -> float:
        """Worst-case per-moderator vote disagreement in ``[0, 1]`` —
        the adaptive-T controller's signal (§VII): for every moderator
        with at least two votes, ``4·p·(1−p)`` where ``p`` is the
        positive fraction, taking the maximum over moderators.  One
        pass over the stored votes via :meth:`all_counts`; the columnar
        store's bincount scan over interned moderator ids produces
        bit-identical floats."""
        worst = 0.0
        for pos, neg in self.all_counts().values():
            total = pos + neg
            if total < 2:
                continue
            p = pos / total
            worst = max(worst, 4.0 * p * (1.0 - p))
        return worst

    def memory_bytes(self) -> int:
        """Measured retained footprint of the box's containers: the
        per-voter payload dicts, their ``(vote, received_at)`` tuples
        and timestamp floats, and the recency/last-received
        bookkeeping.  Peer/moderator id strings and :class:`Vote`
        members are shared objects (one reference here, owned
        elsewhere) and excluded, as the columnar store's
        ``memory_bytes`` excludes them."""
        total = (
            sys.getsizeof(self._votes)
            + sys.getsizeof(self._last_received)
            + sys.getsizeof(self._voter_order)
        )
        for votes in self._votes.values():
            total += sys.getsizeof(votes)
            for entry in votes.values():
                total += sys.getsizeof(entry) + sys.getsizeof(entry[1])
        for when in self._last_received.values():
            total += sys.getsizeof(when)
        for seq in self._voter_order.values():
            total += sys.getsizeof(seq)
        return total

    def export_digest(self) -> List[Tuple[str, str, int, float]]:
        """Every stored vote as flat ``(voter, moderator, vote,
        received_at)`` rows, sorted by ``(voter, moderator)``.

        The sort makes the export independent of dict insertion/recency
        order, so this box and the columnar one produce byte-identical
        digests for equal box contents."""
        rows = [
            (voter, moderator, int(vote), received_at)
            for voter, votes in self._votes.items()
            for moderator, (vote, received_at) in votes.items()
        ]
        rows.sort(key=lambda r: (r[0], r[1]))
        return rows

    def score(self, moderator_id: str) -> int:
        """Summation score: positives − negatives."""
        pos, neg = self.counts(moderator_id)
        return pos - neg

    def vote_of(self, voter: str, moderator_id: str):
        entry = self._votes.get(voter, {}).get(moderator_id)
        return entry[0] if entry else None

    def total_votes(self) -> int:
        return sum(len(v) for v in self._votes.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReferenceBallotBox(voters={len(self._votes)}/{self.b_max}, "
            f"votes={self.total_votes()})"
        )
