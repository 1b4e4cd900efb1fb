"""Protocol overhead accounting — the paper's "light-weight" claim.

The abstract promises a "light-weight, fully decentralized" design.
:class:`TrafficMeter` counts every protocol exchange and the items it
carried, and converts them to bytes with a wire-size model calibrated
to Tribler-era message encodings:

* moderation: ≈300 B (ids, title, description, signature);
* vote entry: ≈50 B (moderator id, vote, timestamp, signature share);
* BarterCast record: ≈60 B (two ids, two counters, timestamp);
* top-K list: ≈K·20 B;
* Newscast descriptor: ≈30 B.

The headline check (``benchmarks/test_overhead_lightweight.py``): the
whole metadata/rating stack costs well under 1 % of the BitTorrent
payload traffic it rides on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

#: wire-size model (bytes per item)
MODERATION_BYTES = 300.0
VOTE_BYTES = 50.0
RECORD_BYTES = 60.0
TOPK_ENTRY_BYTES = 20.0
DESCRIPTOR_BYTES = 30.0
#: Chord control message (ids, a couple of idents, rtt bookkeeping)
DHT_MESSAGE_BYTES = 40.0
#: fixed per-exchange framing cost (headers, handshake share)
EXCHANGE_OVERHEAD_BYTES = 80.0


@dataclass
class ProtocolCounter:
    """Counts for one protocol.

    Only integers accumulate (exchanges and items); :attr:`bytes` is
    derived at read time.  The wire model's per-item sizes are
    integral, so the derived value equals the old running float sum
    exactly while letting batched paths fold thousands of exchanges
    into two integer adds.
    """

    exchanges: int = 0
    items: int = 0
    item_bytes: float = 0.0

    def record_many(self, exchanges: int, items: int, item_bytes: float) -> None:
        """Fold a whole batch of exchanges in at once."""
        self.item_bytes = item_bytes
        self.exchanges += exchanges
        self.items += items

    @property
    def bytes(self) -> float:
        return self.exchanges * EXCHANGE_OVERHEAD_BYTES + self.items * self.item_bytes


@dataclass
class TrafficMeter:
    """Per-protocol traffic counters for a whole run."""

    counters: Dict[str, ProtocolCounter] = field(default_factory=dict)

    def _get(self, protocol: str) -> ProtocolCounter:
        c = self.counters.get(protocol)
        if c is None:
            c = ProtocolCounter()
            self.counters[protocol] = c
        return c

    # ------------------------------------------------------------------
    def moderation_exchange_many(self, exchanges: int, items: int) -> None:
        """A batch of moderation exchanges (the batched gossip tick)."""
        self._get("moderationcast").record_many(exchanges, items, MODERATION_BYTES)

    def vote_exchange_many(self, exchanges: int, items: int) -> None:
        """A batch of vote exchanges (the batched gossip tick)."""
        self._get("ballotbox").record_many(exchanges, items, VOTE_BYTES)

    def voxpopuli_exchange_many(self, exchanges: int, entries: int) -> None:
        self._get("voxpopuli").record_many(exchanges, entries, TOPK_ENTRY_BYTES)

    def bartercast_exchange_many(self, exchanges: int, records: int) -> None:
        self._get("bartercast").record_many(exchanges, records, RECORD_BYTES)

    def newscast_exchange(self, view_entries: int) -> None:
        self._get("newscast").record_many(1, view_entries, DESCRIPTOR_BYTES)

    def dht_exchange_many(self, exchanges: int, messages: int) -> None:
        """A batch of Chord operations (lookups, stores, fetches,
        timeout retries) from the inter-shard aggregation path."""
        self._get("dht").record_many(exchanges, messages, DHT_MESSAGE_BYTES)

    def aggregation_exchange_many(self, exchanges: int, votes: int) -> None:
        """Digest payload votes shipped between shards via the DHT."""
        self._get("aggregation").record_many(exchanges, votes, VOTE_BYTES)

    # ------------------------------------------------------------------
    def total_bytes(self) -> float:
        return sum(c.bytes for c in self.counters.values())

    def total_exchanges(self) -> int:
        return sum(c.exchanges for c in self.counters.values())

    def summary(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {
                "exchanges": c.exchanges,
                "items": c.items,
                "bytes": c.bytes,
            }
            for name, c in sorted(self.counters.items())
        }
