"""Moderator ranking (§V-A) and the VoxPopuli rank merge (§V-C).

Ranking over a ballot box is plain **summation** (positives −
negatives; the paper's default "any suitable method could be applied
such as simple summation").

VoxPopuli merges cached top-K lists by **rank averaging**: a
moderator's merged rank is the mean of its ranks over all cached
lists, counting rank ``K+1`` in lists where it does not appear.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.ballotbox import BallotBox

#: A ranking: moderators best-first with their scores.
Ranking = List[Tuple[str, float]]


def rank_by_sum(
    ballot_box: BallotBox, universe: Optional[Iterable[str]] = None
) -> Ranking:
    """Summation ranking; unvoted moderators from ``universe`` score 0.

    Deterministic: ties break on moderator id.  One
    :meth:`~BallotBox.all_counts` pass, O(votes) rather than a scan of
    the box per moderator.
    """
    scores = {
        m: float(pos - neg) for m, (pos, neg) in ballot_box.all_counts().items()
    }
    if universe is not None:
        for m in universe:
            scores.setdefault(m, 0.0)
    return sorted(scores.items(), key=lambda ms: (-ms[1], ms[0]))


def top_k(ranking: Ranking, k: int) -> List[str]:
    """Best ``k`` moderator ids from a ranking."""
    if k < 1:
        return []
    return [m for m, _s in ranking[:k]]


def merge_rank_lists(lists: Sequence[Sequence[str]], k: int) -> Ranking:
    """VoxPopuli rank-average merge.

    Every moderator appearing in any list gets the average of its
    1-based ranks across **all** lists, with rank ``k + 1`` where
    absent.  Lower average rank is better; the returned scores are the
    *negated* average ranks so that "higher score = better" matches the
    other ranking functions.

    A moderator id repeated inside one list (malformed or hostile
    response — :meth:`TopKCache.add` already dedups, this guards direct
    callers) counts once per list, at its *first* occurrence's rank:
    later duplicates neither add rank mass nor shift the ranks of the
    ids behind them beyond the positions the duplicates occupy.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not lists:
        return []
    n = len(lists)
    rank_sum: Dict[str, float] = {}
    appearances: Dict[str, int] = {}
    for lst in lists:
        ranked: Dict[str, int] = {}
        for m in lst:
            if m not in ranked:
                ranked[m] = len(ranked) + 1
                if len(ranked) >= k:
                    break
        for m, pos in ranked.items():
            rank_sum[m] = rank_sum.get(m, 0.0) + pos
            appearances[m] = appearances.get(m, 0) + 1
    out: Ranking = [
        (m, -(partial + (n - appearances[m]) * (k + 1)) / n)
        for m, partial in rank_sum.items()
    ]
    out.sort(key=lambda ms: (-ms[1], ms[0]))
    return out


def strictly_ordered(ranking: Ranking, order: Sequence[str]) -> bool:
    """``True`` iff every moderator in ``order`` appears in the ranking
    with *strictly* decreasing score — the Fig 6 correctness predicate
    (ties or unknowns do not count as correct)."""
    scores = dict(ranking)
    try:
        values = [scores[m] for m in order]
    except KeyError:
        return False
    return all(a > b for a, b in zip(values, values[1:]))
