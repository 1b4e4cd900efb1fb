"""Simplified Chord ring with cost accounting.

Faithful pieces: consistent-hash ring placement (BLAKE2 of the peer
id), successor-based ownership, ``m``-entry finger tables, and greedy
closest-preceding-finger routing (O(log n) hops on a fresh ring).

Cost model (message counts, the currency §II argues in):

* **join** — ``m`` finger initialisations, each costing one lookup's
  hops, plus a key-transfer message from the successor;
* **graceful leave** — key transfer + predecessor/successor repair;
* **failure** (session ends without leave — the common case under
  churn) — detected by the successor's stabilisation, costing repair
  messages and losing locally stored keys until re-publication;
* **stabilisation** — each online node, every period, runs one
  successor check and refreshes one finger (Chord's incremental
  schedule): 2 messages.

Fingers go stale between stabilisations: lookups that route through a
node that has since gone offline pay a timeout penalty and retry via
the predecessor finger — counted, like everything else, in messages.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


def chord_id(name: str, bits: int) -> int:
    """Stable ring position for a peer or key name."""
    digest = hashlib.blake2b(name.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") % (1 << bits)


@dataclass
class ChordConfig:
    """Ring parameters."""

    bits: int = 16
    #: seconds between per-node stabilisation rounds (cost accounting).
    stabilize_interval: float = 60.0

    def __post_init__(self) -> None:
        if not (4 <= self.bits <= 48):
            raise ValueError("bits must be in [4, 48]")
        if self.stabilize_interval <= 0:
            raise ValueError("stabilize_interval must be positive")


class _Node:
    __slots__ = ("name", "ident", "fingers")

    def __init__(self, name: str, ident: int):
        self.name = name
        self.ident = ident
        #: finger i targets (ident + 2^i); stores ``(ident, name)`` of
        #: the node found.  The name disambiguates liveness: a linear-
        #: probed collision ident can be *recycled* by a later joiner,
        #: so a bare ident cannot tell a dead finger from its impostor.
        self.fingers: List[Tuple[int, str]] = []


class ChordRing:
    """The ring, its finger tables, and the message ledger."""

    def __init__(self, config: Optional[ChordConfig] = None):
        self.config = config or ChordConfig()
        self._nodes: Dict[str, _Node] = {}
        #: sorted idents of online nodes + ident->name
        self._ring: List[int] = []
        self._by_ident: Dict[int, str] = {}
        # message counters
        self.join_messages = 0
        self.leave_messages = 0
        self.failure_messages = 0
        self.stabilize_messages = 0
        self.lookup_messages = 0
        self.timeouts = 0
        self.keys_lost = 0

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, name: str, now: float) -> None:
        """Node joins: finger bootstrap + key transfer."""
        if name in self._nodes:
            return
        ident = chord_id(name, self.config.bits)
        while ident in self._by_ident:  # collision: linear probe
            ident = (ident + 1) % (1 << self.config.bits)
        # m finger-init lookups over the *existing* ring (before the
        # newcomer is inserted), each routed from the joining node's
        # successor — the node that introduces it to the ring.
        if self._ring:
            start = self._successor_ident(ident)
            for i in range(self.config.bits):
                target = (ident + (1 << i)) % (1 << self.config.bits)
                hops = self._route_hops(target, start=start)
                self.join_messages += max(1, hops)
            self.join_messages += 1  # key transfer from successor
        node = _Node(name, ident)
        self._nodes[name] = node
        insort(self._ring, ident)
        self._by_ident[ident] = name
        self._build_fingers(node)

    def leave(self, name: str, now: float, graceful: bool = False) -> None:
        """Node departs.  Graceful ⇒ handover; otherwise a failure the
        ring pays to detect and repair, losing the node's keys."""
        node = self._nodes.pop(name, None)
        if node is None:
            return
        i = bisect_left(self._ring, node.ident)
        if i < len(self._ring) and self._ring[i] == node.ident:
            self._ring.pop(i)
        self._by_ident.pop(node.ident, None)
        if graceful:
            self.leave_messages += 3  # key transfer + 2 pointer updates
        else:
            self.failure_messages += 4  # detection probe + repair
            self.keys_lost += 1

    def online_count(self) -> int:
        return len(self._ring)

    # ------------------------------------------------------------------
    # Stabilisation
    # ------------------------------------------------------------------
    def stabilize_all(self, now: float) -> None:
        """One stabilisation round for every online node (2 messages
        each) and refresh of its finger table snapshot."""
        for node in self._nodes.values():
            self.stabilize_messages += 2
            self._build_fingers(node)

    def _build_fingers(self, node: _Node) -> None:
        node.fingers = []
        if not self._ring:
            return
        for i in range(self.config.bits):
            target = (node.ident + (1 << i)) % (1 << self.config.bits)
            ident = self._successor_ident(target)
            node.fingers.append((ident, self._by_ident[ident]))

    def _successor_ident(self, target: int) -> int:
        i = bisect_left(self._ring, target)
        if i == len(self._ring):
            return self._ring[0]
        return self._ring[i]

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _route_hops(self, target: int, start: Optional[int] = None) -> int:
        """Hop count of a greedy finger walk on the *current* ring.

        Each hop jumps via the largest power-of-2 finger that does not
        overshoot the target — halving the clockwise distance, i.e.
        O(log n) hops on a fresh ring."""
        if len(self._ring) <= 1:
            return 0
        size = 1 << self.config.bits
        current = self._ring[0] if start is None else start
        hops = 0
        while not self._owns_live(current, target) and hops <= 2 * self.config.bits:
            dist = (target - current) % size
            step = 1 << max(0, dist.bit_length() - 1)
            nxt = self._successor_ident((current + step) % size)
            hops += 1
            if nxt == current:
                break
            current = nxt
        return hops

    def lookup(self, from_name: str, key: str, now: float) -> Tuple[int, bool]:
        """Route a lookup from ``from_name`` to the key's owner using
        the requester's (possibly stale) fingers.

        Returns ``(messages, succeeded)``.  Each hop is one message; a
        hop into a now-offline finger costs a timeout (one extra
        message-equivalent) and falls back to the live successor.
        """
        node = self._nodes.get(from_name)
        if node is None or not self._ring:
            return (0, False)
        target = chord_id(key, self.config.bits)
        size = 1 << self.config.bits
        current = node.ident
        fingers = node.fingers
        messages = 0
        for _ in range(2 * self.config.bits):
            if self._owns_live(current, target):
                self.lookup_messages += messages
                return (messages, True)
            dist = (target - current) % size
            step = 1 << max(0, dist.bit_length() - 1)
            # the requester's stale finger for this step:
            stale = None
            if fingers:
                idx = min(max(0, step.bit_length() - 1), len(fingers) - 1)
                stale = fingers[idx]
            messages += 1
            if stale is not None and self._by_ident.get(stale[0]) != stale[1]:
                # timeout on a dead finger (or a recycled ident now
                # owned by a different node), retry via live ring
                self.timeouts += 1
                messages += 1
            nxt = self._successor_ident((current + step) % size)
            if nxt == current:
                break
            current = nxt
            fingers = []  # remote hops use live routing
        self.lookup_messages += messages
        return (messages, self._owns_live(current, target))

    def _owns_live(self, ident: int, target: int) -> bool:
        if not self._ring:
            return False
        return self._successor_ident(target) == ident

    # ------------------------------------------------------------------
    def total_maintenance_messages(self) -> int:
        return (
            self.join_messages
            + self.leave_messages
            + self.failure_messages
            + self.stabilize_messages
        )
