"""Directed transfer ledger.

Records cumulative bytes transferred between ordered peer pairs.  This
is the ground truth the BarterCast layer consumes: each peer's *own
direct statistics* are exactly its rows/columns here, and the
simulator's instrumentation can read global totals for metrics.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: ``(uploader, downloader, nbytes)``
Transfer = Tuple[str, str, float]
Listener = Callable[[List[Transfer], float], None]


class TransferLedger:
    """Cumulative ``bytes[u → d]``.

    Listeners (e.g. BarterCast's
    :meth:`~repro.bartercast.protocol.BarterCastService.local_transfers`)
    receive each :meth:`record_many` batch once, as
    ``listener(transfers, now)``: the batch's positive transfers as a
    list of ``(uploader, downloader, nbytes)``, in recorded order.
    """

    def __init__(self) -> None:
        self._sent: Dict[str, Dict[str, float]] = defaultdict(dict)
        self.total_bytes = 0.0
        self._listeners: List[Listener] = []

    def add_listener(self, listener: Listener) -> None:
        self._listeners.append(listener)

    def record_many(self, transfers: Sequence[Transfer], now: float) -> None:
        """Record ``(uploader, downloader, nbytes)`` transfers at ``now``,
        in order — one swarm round's links in one call.  Non-positive
        amounts are skipped and totals add up in the given order.  The
        whole batch is checked first: a self-transfer anywhere in it
        raises before anything is recorded or heard.  Each listener
        then hears the batch once."""
        batch = []
        for transfer in transfers:
            if transfer[2] > 0:
                if transfer[0] == transfer[1]:
                    raise ValueError("self-transfer is meaningless")
                batch.append(transfer)
        sent = self._sent
        for uploader, downloader, nbytes in batch:
            row = sent[uploader]
            row[downloader] = row.get(downloader, 0.0) + nbytes
            self.total_bytes += nbytes
        if batch:
            for listener in self._listeners:
                listener(batch, now)

    # ------------------------------------------------------------------
    def edges(self) -> List[Tuple[str, str, float]]:
        """All ``(uploader, downloader, bytes)`` edges (metrics use)."""
        return [
            (u, d, b)
            for u, row in self._sent.items()
            for d, b in row.items()
        ]
