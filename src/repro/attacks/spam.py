"""Flash-crowd spam attack (Fig 7/8).

A crowd of fresh identities joins with the single goal of promoting a
spam moderator ``M0``:

* they send ``+M0`` (plus optional decoy negatives) on every BallotBox
  exchange — honest nodes discard these unless the colluder somehow
  became experienced;
* they answer **every** VoxPopuli request with ``[M0, …]`` regardless
  of their own ballot state — this is the unprotected channel the
  attack actually exploits;
* they gossip M0's spam moderation to everyone they meet;
* they never bootstrap-poll others (they don't care about real
  rankings) and they ignore incoming votes.

A member is not a node subclass: it is an ordinary node whose row in
the runtime's state store carries the crowd behaviour code, and the
batched gossip tick does the rest (see
:meth:`~repro.core.runtime.ProtocolRuntime.add_crowd_member`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Sequence

from repro.core.moderation import Moderation
from repro.core.votes import Vote, VoteEntry

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import ProtocolRuntime


class FlashCrowd:
    """Creates, installs and (de)activates a crowd of colluders."""

    def __init__(
        self,
        runtime: "ProtocolRuntime",
        size: int,
        spam_moderator: str = "M0",
        id_prefix: str = "colluder",
        decoys: Sequence[str] = (),
    ):
        if size < 1:
            raise ValueError("crowd size must be >= 1")
        self.runtime = runtime
        self.spam_moderator = spam_moderator
        self.members: List[str] = []
        decoys = list(decoys)
        votes = [VoteEntry(spam_moderator, Vote.POSITIVE, 0.0)]
        votes.extend(VoteEntry(d, Vote.NEGATIVE, 0.0) for d in decoys)
        # Fig 3(c)'s honest guard cannot stop this at the sender side.
        top_k = [spam_moderator] + decoys[: runtime.config.node.k - 1]
        pids = [f"{id_prefix}{i:03d}" for i in range(size)]
        runtime._rng.prime("colluder", pids)
        runtime._rng.prime("jitter", pids)
        for pid in pids:
            node = runtime.add_crowd_member(pid, votes, top_k)
            # Colluders approve the spam moderator so ModerationCast
            # forwards its metadata through them.
            node.vote_list.cast(spam_moderator, Vote.POSITIVE, 0.0)
            node.store.insert(
                Moderation(
                    moderator_id=spam_moderator,
                    torrent_id="spam-torrent",
                    title="TOTALLY LEGIT RELEASE",
                    description="spam",
                ),
                now=0.0,
            )
            self.members.append(pid)

    def arrive(self, now: float) -> None:
        """Bring the whole crowd online (the flash)."""
        for pid in self.members:
            self.runtime.bring_online(pid, now)
