"""PSS interface and the online-membership registry."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional


class OnlineRegistry:
    """Tracks which peers are currently online.

    The session driver flips peers online/offline as trace events fire;
    every other component (PSS, protocols, metrics) reads through this
    registry.  Sampling support uses a swap-remove list so both updates
    and uniform draws are O(1) (hot path: one draw per gossip tick per
    node).
    """

    def __init__(self) -> None:
        self._order: List[str] = []
        self._index: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def set_online(self, peer_id: str) -> None:
        """Mark ``peer_id`` online.  Idempotent."""
        if peer_id in self._index:
            return
        self._index[peer_id] = len(self._order)
        self._order.append(peer_id)

    def set_offline(self, peer_id: str) -> None:
        """Mark ``peer_id`` offline.  Idempotent."""
        i = self._index.pop(peer_id, None)
        if i is None:
            return
        last = self._order.pop()
        if last != peer_id:
            self._order[i] = last
            self._index[last] = i

    def is_online(self, peer_id: str) -> bool:
        return peer_id in self._index

    def online_count(self) -> int:
        return len(self._order)

    def online_peers(self) -> List[str]:
        """Snapshot of online peer ids (copy; safe to mutate)."""
        return list(self._order)

    def peer_at(self, index: int) -> str:
        """Internal-order access used by O(1) uniform sampling."""
        return self._order[index]

    def indices_of(self, peer_ids: List[str]) -> List[int]:
        """Inverse of :meth:`peer_at` for a whole batch; ``-1`` for an
        offline peer."""
        index = self._index
        return [index.get(peer_id, -1) for peer_id in peer_ids]



class PeerSamplingService(ABC):
    """Interface of §III: return a random online peer."""

    @abstractmethod
    def sample(self, requester: str) -> Optional[str]:
        """A random online peer ≠ ``requester``, or ``None`` if the
        service cannot currently provide one."""

    def sample_batch(self, requesters: List[str]) -> List[Optional[str]]:
        """One :meth:`sample` result per requester, in order.

        Must consume the service's RNG exactly as the equivalent
        sequence of scalar :meth:`sample` calls would — batched tick
        dispatch relies on this to stay bit-identical to the scalar
        loop.  The default is that scalar loop; subclasses may
        vectorise (see :class:`~repro.pss.ideal.OraclePSS`).
        """
        return [self.sample(r) for r in requesters]
