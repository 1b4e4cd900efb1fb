"""Newscast-style gossip peer sampling.

Tribler's BuddyCast is a Newscast [Jelasity et al. 2003] variant: each
node keeps a bounded *partial view* of ``(peer, heartbeat)`` descriptors
and periodically swaps views with a random view member; both sides merge
and keep the ``c`` freshest descriptors.  The emergent overlay is
random-like, self-healing under churn, and supports sampling by drawing
from the local view.

The implementation here is population-managed (one
:class:`NewscastService` owns all node views) so the session driver can
flip nodes online/offline and drive gossip ticks without per-node
plumbing, and so the whole service doubles as a
:class:`~repro.pss.base.PeerSamplingService` for the protocol layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.pss.base import OnlineRegistry, PeerSamplingService


@dataclass
class NewscastConfig:
    """Newscast parameters.

    ``view_size`` of 20 matches the literature's robust regime;
    ``bootstrap_size`` models the tracker/superpeer introduction a
    BitTorrent client gets on startup.
    """

    view_size: int = 20
    bootstrap_size: int = 5

    def __post_init__(self) -> None:
        if self.view_size < 1:
            raise ValueError("view_size must be >= 1")
        if self.bootstrap_size < 1:
            raise ValueError("bootstrap_size must be >= 1")


class NewscastService(PeerSamplingService):
    """All Newscast node views plus the sampling interface.

    Lifecycle hooks (called by the session driver):

    * :meth:`node_online` — (re)bootstrap the node's view;
    * :meth:`node_offline` — freeze the view (descriptors pointing at
      the node decay out of other views via freshness);
    * :meth:`gossip_tick` — one active-thread exchange for one node.
    """

    def __init__(
        self,
        registry: OnlineRegistry,
        rng: np.random.Generator,
        config: Optional[NewscastConfig] = None,
    ):
        self._registry = registry
        self._rng = rng
        self.config = config or NewscastConfig()
        self._views: Dict[str, Dict[str, float]] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def node_online(self, peer_id: str, now: float) -> None:
        """Bootstrap ``peer_id``'s view from a few online contacts."""
        view = self._views.setdefault(peer_id, {})
        online = [p for p in self._registry.online_peers() if p != peer_id]
        if online:
            k = min(self.config.bootstrap_size, len(online))
            picks = self._rng.choice(len(online), size=k, replace=False)
            for i in picks:
                view[online[int(i)]] = now
        self._trim(peer_id, view)

    def node_offline(self, peer_id: str) -> None:
        """No-op by design: the node keeps its (aging) view for its next
        session; remote descriptors for it age out naturally."""

    # ------------------------------------------------------------------
    # Gossip
    # ------------------------------------------------------------------
    def gossip_tick(self, peer_id: str, now: float) -> bool:
        """One active Newscast exchange for ``peer_id``.

        Returns ``True`` if an exchange happened.  A chosen partner that
        is offline is dropped from the view (connection failure) and the
        tick counts as failed.
        """
        view = self._views.get(peer_id)
        if view is None or not self._registry.is_online(peer_id):
            return False
        partner = self._pick_partner(peer_id, view)
        if partner is None:
            # View exhausted/stale — fall back to re-bootstrap, which
            # models asking the introducer again.
            self.node_online(peer_id, now)
            return False
        if not self._registry.is_online(partner):
            view.pop(partner, None)
            return False
        self._exchange(peer_id, partner, now)
        return True

    def _pick_partner(self, peer_id: str, view: Dict[str, float]) -> Optional[str]:
        candidates = list(view.keys())
        if not candidates:
            return None
        return candidates[int(self._rng.integers(0, len(candidates)))]

    def _exchange(self, a: str, b: str, now: float) -> None:
        view_a = self._views.setdefault(a, {})
        view_b = self._views.setdefault(b, {})
        # Each side sends its view plus a fresh self-descriptor.
        sent_a = dict(view_a)
        sent_a[a] = now
        sent_b = dict(view_b)
        sent_b[b] = now
        self._merge(a, view_a, sent_b)
        self._merge(b, view_b, sent_a)

    def _merge(self, owner: str, view: Dict[str, float], incoming: Dict[str, float]) -> None:
        for peer, ts in incoming.items():
            if peer == owner:
                continue
            if peer not in view or ts > view[peer]:
                view[peer] = ts
        self._trim(owner, view)

    def _trim(self, owner: str, view: Dict[str, float]) -> None:
        c = self.config.view_size
        if len(view) <= c:
            return
        # Keep the c freshest; tie-break on peer id for determinism.
        keep = sorted(view.items(), key=lambda kv: (-kv[1], kv[0]))[:c]
        view.clear()
        view.update(keep)

    # ------------------------------------------------------------------
    # Sampling interface
    # ------------------------------------------------------------------
    def sample(self, requester: str) -> Optional[str]:
        """Random member of the requester's view.

        Unlike the oracle, a Newscast sample may be stale; callers see
        ``None`` only when the view is empty.  Offline picks are
        reported as-is — the protocol layer treats them as failed
        connections, exactly as a deployed client would.
        """
        view = self._views.get(requester)
        if not view:
            return None
        candidates = list(view.keys())
        return candidates[int(self._rng.integers(0, len(candidates)))]
