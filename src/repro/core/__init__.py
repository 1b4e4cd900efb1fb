"""The paper's core contribution.

Three protocols plus the experience function (§II–§V):

* :mod:`repro.core.moderationcast` — approval-gated gossip of metadata
  items ("moderations");
* :mod:`repro.core.ballotbox` / :mod:`repro.core.votes` — direct-sample
  vote polling into a bounded local ballot box, gated by experience;
* :mod:`repro.core.voxpopuli` — top-K bootstrap for nodes below the
  ``B_min`` sample threshold;
* :mod:`repro.core.experience` — the BarterCast-maxflow threshold
  experience function (plus the §VII adaptive-T extension);
* :mod:`repro.core.ranking` — summation ranking and the
  rank-average merge used by VoxPopuli;
* :mod:`repro.core.node` — :class:`~repro.core.node.VoteSamplingNode`,
  one peer's complete protocol state;
* :mod:`repro.core.runtime` — binds a population of nodes to the
  simulation engine, the PSS, BarterCast and the BitTorrent session.
"""

from repro.core.ballotbox import BallotBox
from repro.core.columnar import ColumnarStateStore, RowTable
from repro.core.experience import (
    AdaptiveThresholdExperience,
    AlwaysExperienced,
    ExperienceFunction,
    ThresholdExperience,
)
from repro.core.moderation import Moderation, ModerationStore
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.ranking import merge_rank_lists, rank_by_sum, top_k
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import LocalVoteList, Vote
from repro.core.voxpopuli import TopKCache

__all__ = [
    "BallotBox",
    "ColumnarStateStore",
    "RowTable",
    "ExperienceFunction",
    "ThresholdExperience",
    "AdaptiveThresholdExperience",
    "AlwaysExperienced",
    "Moderation",
    "ModerationStore",
    "NodeConfig",
    "VoteSamplingNode",
    "merge_rank_lists",
    "rank_by_sum",
    "top_k",
    "ProtocolRuntime",
    "RuntimeConfig",
    "LocalVoteList",
    "Vote",
    "TopKCache",
]
