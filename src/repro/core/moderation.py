"""Moderations (metadata items) and the local moderation database.

A *moderation* is a signed metadata item a *moderator* attaches to a
torrent: description, thumbnail URL, and so on (§I–§IV).  Each node
stores received moderations in a local database (``local_db`` in Fig 1)
keyed by ``(moderator, torrent)``; newer versions replace older ones,
and disapproving a moderator purges every moderation they authored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Moderation:
    """One signed metadata item.

    ``signature_valid`` carries the envelope verification result: the
    runtime verifies against the identity layer at creation/receipt and
    protocol code drops anything invalid (simulating the paper's "we
    use digital signatures" authentication).
    """

    moderator_id: str
    torrent_id: str
    title: str
    description: str = ""
    created_at: float = 0.0
    version: int = 1
    signature_valid: bool = True

    def key(self) -> Tuple[str, str]:
        return (self.moderator_id, self.torrent_id)


class ModerationStore:
    """A node's ``local_db`` of moderations.

    Capacity-bounded: when full, the oldest-received moderation from a
    *non-approved* moderator is evicted first, then the oldest overall —
    approved moderators' metadata is what the user actually wants to
    keep and forward.
    """

    def __init__(self, capacity: int = 1000):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._items: Dict[Tuple[str, str], Moderation] = {}
        self._received_at: Dict[Tuple[str, str], float] = {}
        self._seq = 0
        self._order: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    def insert(self, moderation: Moderation, now: float) -> bool:
        """Store/refresh a moderation.  Returns ``True`` if it is new
        (not previously held in any version)."""
        if not moderation.signature_valid:
            return False
        key = moderation.key()
        existing = self._items.get(key)
        if existing is not None and existing.version >= moderation.version:
            return False
        is_new = existing is None
        self._items[key] = moderation
        self._received_at[key] = now
        self._seq += 1
        self._order[key] = self._seq
        return is_new

    def _evict_if_needed(self, approved: frozenset) -> None:
        while len(self._items) > self.capacity:
            # Oldest non-approved first; then oldest overall.
            candidates = [
                k for k in self._items if k[0] not in approved
            ] or list(self._items)
            victim = min(candidates, key=lambda k: self._order[k])
            self._items.pop(victim, None)
            self._received_at.pop(victim, None)
            self._order.pop(victim, None)
            self._seq += 1

    def enforce_capacity(self, approved: frozenset = frozenset()) -> None:
        """Apply the eviction policy (called by the owning node after
        merges so one pass covers a whole batch)."""
        self._evict_if_needed(approved)

    def purge_moderator(self, moderator_id: str) -> int:
        """Remove all moderations by ``moderator_id`` (disapproval).
        Returns the number removed."""
        victims = [k for k in self._items if k[0] == moderator_id]
        for k in victims:
            del self._items[k]
            self._received_at.pop(k, None)
            self._order.pop(k, None)
        if victims:
            self._seq += 1
        return len(victims)

    # ------------------------------------------------------------------
    def get(self, moderator_id: str, torrent_id: str) -> Optional[Moderation]:
        return self._items.get((moderator_id, torrent_id))

    def has_moderator(self, moderator_id: str) -> bool:
        return any(k[0] == moderator_id for k in self._items)

    def moderators(self) -> List[str]:
        """Distinct moderator ids present, sorted for determinism."""
        return sorted({k[0] for k in self._items})

    def by_moderator(self, moderator_id: str) -> List[Moderation]:
        return [m for k, m in self._items.items() if k[0] == moderator_id]

    def all_items(self) -> List[Moderation]:
        return list(self._items.values())

    def received_at(self, moderation: Moderation) -> Optional[float]:
        return self._received_at.get(moderation.key())

    def recency_order(self) -> List[Moderation]:
        """Items newest-received first (Extract's recency half)."""
        keys = sorted(self._items, key=lambda k: -self._order[k])
        return [self._items[k] for k in keys]

    def export_state(self) -> Tuple[List[Moderation], List[float], List[int], int]:
        """``(items, received_at, order stamps, mutation count)`` with
        the three lists parallel, in storage order — everything
        :meth:`load_state` needs to rebuild this store exactly."""
        keys = list(self._items)
        return (
            list(self._items.values()),
            [self._received_at[k] for k in keys],
            [self._order[k] for k in keys],
            self._seq,
        )

    def load_state(
        self,
        items: List[Moderation],
        received_at: List[float],
        order: List[int],
        seq: int,
    ) -> None:
        """Adopt an :meth:`export_state` snapshot into an empty store:
        same storage order, same recency stamps (refreshed items keep
        their newer stamp), same mutation count."""
        if self._items:
            raise ValueError("load_state needs an empty store")
        keys = [mod.key() for mod in items]
        self._items = dict(zip(keys, items))
        self._received_at = dict(zip(keys, received_at))
        self._order = dict(zip(keys, order))
        self._seq = seq

    def unheld(self, items: Sequence[Moderation]) -> List[Moderation]:
        """The offered ``items`` that :meth:`insert` would not turn away
        as already held at the same or a newer version, in order."""
        get = self._items.get
        out = []
        for mod in items:
            held = get((mod.moderator_id, mod.torrent_id))
            if held is None or held.version < mod.version:
                out.append(mod)
        return out

    @property
    def mutation_count(self) -> int:
        """Monotone counter bumped by every change to the held set: each
        stored insert or refresh, each capacity eviction, each purge
        that removed something.  Equal counts on one store mean equal
        contents and recency order, so derived structures (the search
        index, the node's extract memo) detect change cheaply."""
        return self._seq

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: Tuple[str, str]) -> bool:
        return key in self._items
