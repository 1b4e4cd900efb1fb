"""VoxPopuli support structures (§V-C).

The protocol logic lives in :class:`~repro.core.node.VoteSamplingNode`
(request/respond) — this module provides the bounded cache of received
top-K lists and its merge.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Sequence, Tuple, Union

from repro.core.ranking import Ranking, merge_rank_lists


class TopKCache:
    """The last ``v_max`` top-K lists received via VoxPopuli.

    The bounded deque is allocated by the first list cached: most nodes
    of a large run never receive one."""

    def __init__(self, v_max: int = 10, k: int = 3):
        if v_max < 1:
            raise ValueError("v_max must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.v_max = v_max
        self.k = k
        self._lists: Union[Tuple[()], Deque[List[str]]] = ()

    def add(self, top_k_list: Sequence[str]) -> None:
        """Cache one received list (deduplicated on first occurrence,
        then truncated to K; empty ignored).

        Dedup happens *before* truncation, so a malformed or hostile
        response padded with repeats of one id cannot crowd the other
        ids out of the cached window or hand that id extra rank mass in
        :meth:`merged_ranking`."""
        trimmed = list(dict.fromkeys(top_k_list))[: self.k]
        if trimmed:
            if not self._lists:
                self._lists = deque(maxlen=self.v_max)
            self._lists.append(trimmed)

    def lists(self) -> List[List[str]]:
        """Copies of the cached lists, oldest first — the public read
        surface (persistence uses it; the deque stays private)."""
        return [list(lst) for lst in self._lists]

    def merged_ranking(self) -> Ranking:
        """Rank-average merge of every cached list."""
        return merge_rank_lists(list(self._lists), self.k)

    def known_moderators(self) -> List[str]:
        out = set()
        for lst in self._lists:
            out.update(lst)
        return sorted(out)
