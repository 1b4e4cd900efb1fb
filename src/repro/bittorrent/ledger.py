"""Directed transfer ledger.

Records cumulative bytes transferred between ordered peer pairs.  This
is the ground truth the BarterCast layer consumes: each peer's *own
direct statistics* are exactly its rows/columns here, and the
simulator's instrumentation can read global totals for metrics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple


class TransferLedger:
    """Cumulative ``bytes[u → d]`` with per-peer views.

    Listeners (e.g. BarterCast local records) receive every transfer as
    ``listener(uploader, downloader, nbytes, now)``, in the order the
    transfers were recorded.
    """

    def __init__(self) -> None:
        self._sent: Dict[str, Dict[str, float]] = defaultdict(dict)
        self._received: Dict[str, Dict[str, float]] = defaultdict(dict)
        self.total_bytes = 0.0
        self._listeners: List[Callable[[str, str, float, float], None]] = []

    def add_listener(self, listener: Callable[[str, str, float, float], None]) -> None:
        self._listeners.append(listener)

    def record(self, uploader: str, downloader: str, nbytes: float, now: float) -> None:
        """Record ``nbytes`` flowing ``uploader → downloader`` at ``now``."""
        self.record_many(((uploader, downloader, nbytes),), now)

    def record_many(
        self, transfers: Sequence[Tuple[str, str, float]], now: float
    ) -> None:
        """Record ``(uploader, downloader, nbytes)`` transfers at ``now``,
        in order — one swarm round's links in one call.  Exactly
        ``record`` of each in turn: non-positive amounts are skipped,
        totals add up in the given order and each listener hears every
        transfer once, transfer by transfer."""
        sent, received = self._sent, self._received
        listeners = self._listeners
        for uploader, downloader, nbytes in transfers:
            if nbytes <= 0:
                continue
            if uploader == downloader:
                raise ValueError("self-transfer is meaningless")
            row = sent[uploader]
            row[downloader] = row.get(downloader, 0.0) + nbytes
            col = received[downloader]
            col[uploader] = col.get(uploader, 0.0) + nbytes
            self.total_bytes += nbytes
            for listener in listeners:
                listener(uploader, downloader, nbytes, now)

    # ------------------------------------------------------------------
    def sent(self, uploader: str, downloader: str) -> float:
        """Total bytes ``uploader`` sent to ``downloader``."""
        return self._sent.get(uploader, {}).get(downloader, 0.0)

    def uploaded_by(self, peer: str) -> float:
        """Total bytes uploaded by ``peer`` to anyone."""
        return sum(self._sent.get(peer, {}).values())

    def downloaded_by(self, peer: str) -> float:
        """Total bytes downloaded by ``peer`` from anyone."""
        return sum(self._received.get(peer, {}).values())

    def upload_partners(self, peer: str) -> Dict[str, float]:
        """Copy of ``{downloader: bytes}`` for ``peer``'s uploads."""
        return dict(self._sent.get(peer, {}))

    def edges(self) -> List[Tuple[str, str, float]]:
        """All ``(uploader, downloader, bytes)`` edges (metrics use)."""
        return [
            (u, d, b)
            for u, row in self._sent.items()
            for d, b in row.items()
        ]

    def sharing_ratio(self, peer: str) -> float:
        """Upload/download ratio (∞-safe: 0 download ⇒ ratio of upload)."""
        down = self.downloaded_by(peer)
        up = self.uploaded_by(peer)
        return up / down if down > 0 else up
