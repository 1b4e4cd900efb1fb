"""Oracle PSS — the paper's idealised sampling assumption."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.pss.base import OnlineRegistry, PeerSamplingService


class OraclePSS(PeerSamplingService):
    """Uniform random peer from the set of currently online peers.

    This is exactly the service §III assumes ("periodically returns a
    random peer from the entire population of online peers").  Draws
    are O(1) against the registry's swap-remove list.
    """

    def __init__(self, registry: OnlineRegistry, rng: np.random.Generator):
        self._registry = registry
        self._rng = rng

    def sample(self, requester: str) -> Optional[str]:
        n = self._registry.online_count()
        if n == 0 or (n == 1 and self._registry.is_online(requester)):
            return None
        # Rejection-sample the requester out: at most a couple of
        # retries in expectation even for tiny populations.
        for _ in range(64):
            peer = self._registry.peer_at(int(self._rng.integers(0, n)))
            if peer != requester:
                return peer
        return None

    def sample_batch(self, requesters: List[str]) -> List[Optional[str]]:
        """Vectorised :meth:`sample` for a whole due batch.

        ``integers(0, n, size=m)`` produces exactly the integers ``m``
        scalar ``integers(0, n)`` calls would, so the batch walks that
        one stream the way the scalar calls would consume it: each
        requester takes the next value, and one that draws itself
        keeps taking values until one is somebody else (``None`` after
        64 tries, as :meth:`sample`).  A self-draw therefore shifts
        every later requester one value down the stream, and when the
        stream runs out with ``r`` requesters unserved exactly ``r``
        more values are drawn — each of them needs at least one, so
        the generator never advances further than the scalar loop
        would and ends in the same state.  ``n == 1`` takes the scalar
        path: it is the one case where :meth:`sample` may return
        without drawing.
        """
        m = len(requesters)
        registry = self._registry
        n = registry.online_count()
        if n == 0:
            return [None] * m
        if n == 1 or m < 2:
            return [self.sample(r) for r in requesters]
        rng = self._rng
        own = np.array(registry.indices_of(requesters), dtype=np.int64)
        picks = np.empty(m, dtype=np.int64)
        stream = rng.integers(0, n, size=m)
        j = 0  # next unread stream value
        k = 0  # next unserved requester
        while k < m:
            if j == stream.size:
                stream = rng.integers(0, n, size=m - k)
                j = 0
            # Serve requesters one value each up to the first self-draw
            # (the stream never holds more values than requesters wait).
            span = stream.size - j
            hits = np.flatnonzero(stream[j : j + span] == own[k : k + span])
            clean = int(hits[0]) if hits.size else span
            picks[k : k + clean] = stream[j : j + clean]
            k += clean
            j += clean
            if clean == span:
                continue
            # Requester k drew itself: the scalar rejection loop, fed
            # from the stream.
            picks[k] = -1
            for _ in range(64):
                if j == stream.size:
                    stream = rng.integers(0, n, size=m - k)
                    j = 0
                value = stream[j]
                j += 1
                if value != own[k]:
                    picks[k] = value
                    break
            k += 1
        peer_at = registry.peer_at
        return [None if i < 0 else peer_at(i) for i in picks.tolist()]
