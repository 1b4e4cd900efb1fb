"""ModerationCast extract policy (§IV, Fig 1).

The gossip loop itself is driven by the runtime; this module holds the
``Extract()`` policy: which moderations a node offers a partner
(:meth:`~repro.core.node.VoteSamplingNode.moderations_to_send` composes
the two steps below).

Rules (Fig 2): a node forwards only moderations authored by itself or
by moderators it *approved* (+ vote).  Within that eligible set the
selection is *recency + random* — half the budget goes to the most
recently received items, the rest is drawn uniformly — mirroring the
vote-exchange policy the paper carried over from [6].
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.moderation import Moderation, ModerationStore
from repro.core.votes import LocalVoteList


def eligible_moderations(
    store: ModerationStore, vote_list: LocalVoteList, own_id: str
) -> List[Moderation]:
    """What Extract may send: own and approved moderators' items,
    newest-received first.  A function of the store's contents and the
    vote list alone, so a caller may memoise it on
    ``(store.mutation_count, vote_list.version)``."""
    approved = vote_list.approved()
    return [
        m
        for m in store.recency_order()
        if m.moderator_id == own_id or m.moderator_id in approved
    ]


def select_moderations(
    eligible: List[Moderation], max_items: int, rng: np.random.Generator
) -> List[Moderation]:
    """The budgeted selection from an eligible list: all of it when it
    fits (``eligible`` itself, no draw), else the recency half plus a
    uniform draw from the rest."""
    if len(eligible) <= max_items:
        return eligible
    recent_budget = max_items // 2
    recent = eligible[:recent_budget]
    rest = eligible[recent_budget:]
    random_budget = max_items - recent_budget
    picks = rng.choice(len(rest), size=random_budget, replace=False)
    return recent + [rest[int(i)] for i in sorted(picks)]
