"""Choking: tit-for-tat with optimistic unchoke.

Every choke round each leecher unchokes the ``regular_slots`` peers
that uploaded to it fastest in the previous round (reciprocity) plus
one optimistic slot rotated every ``optimistic_rounds`` rounds.  Seeds
have nothing to reciprocate, so they unchoke round-robin over
interested peers — spreading upload (and hence BarterCast credit)
across the swarm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np


@dataclass
class ChokerConfig:
    """Choking parameters (mainline defaults)."""

    regular_slots: int = 3
    optimistic_slots: int = 1
    #: Optimistic unchoke rotates every this many choke rounds.
    optimistic_rounds: int = 3

    def __post_init__(self) -> None:
        if self.regular_slots < 0 or self.optimistic_slots < 0:
            raise ValueError("slot counts must be non-negative")
        if self.regular_slots + self.optimistic_slots < 1:
            raise ValueError("need at least one unchoke slot")
        if self.optimistic_rounds < 1:
            raise ValueError("optimistic_rounds must be >= 1")


class Choker:
    """Per-peer choking state machine.

    The owner calls :meth:`select` once per choke round with the
    current interested neighbours and the bytes each of them uploaded
    to the owner in the last round; it returns the unchoke set.
    """

    def __init__(self, config: ChokerConfig, rng: np.random.Generator):
        self.config = config
        self._rng = rng
        self._round = 0
        self._optimistic: List[str] = []
        self._rr_cursor = 0

    def select(
        self,
        interested: Sequence[str],
        received_from: Dict[str, float],
        seeding: bool,
    ) -> List[str]:
        """Unchoke decision for this round.

        Parameters
        ----------
        interested:
            Neighbours currently interested in our pieces (stable order
            supplied by the swarm for determinism).
        received_from:
            Bytes received from each neighbour during the last round —
            the tit-for-tat signal.
        seeding:
            ``True`` once our download is complete.
        """
        self._round += 1
        cfg = self.config
        total_slots = cfg.regular_slots + cfg.optimistic_slots
        if not interested:
            self._optimistic = []
            return []
        if len(interested) <= total_slots:
            return list(interested)
        if seeding:
            return self._seed_select(interested, total_slots)
        return self._leech_select(list(interested), received_from)

    # ------------------------------------------------------------------
    def _seed_select(self, interested: Sequence[str], slots: int) -> List[str]:
        """Round-robin over interested peers, advancing each round."""
        n = len(interested)
        start = self._rr_cursor % n
        picked = [interested[(start + i) % n] for i in range(slots)]
        self._rr_cursor = (start + slots) % n
        return picked

    def _leech_select(
        self, interested: List[str], received_from: Dict[str, float]
    ) -> List[str]:
        cfg = self.config
        # Reciprocity: fastest recent uploaders first; stable tie-break
        # on peer id keeps runs deterministic.
        ranked = sorted(
            interested,
            key=lambda p: (-received_from.get(p, 0.0), p),
        )
        regular = ranked[: cfg.regular_slots]
        pool = [p for p in interested if p not in regular]
        # Rotate the optimistic pick every optimistic_rounds rounds or
        # when the current pick disappeared / got promoted.
        rotate = (
            (self._round - 1) % cfg.optimistic_rounds == 0
            or not self._optimistic
            or any(p not in pool for p in self._optimistic)
        )
        if rotate:
            self._optimistic = []
            if pool and cfg.optimistic_slots > 0:
                k = min(cfg.optimistic_slots, len(pool))
                if k == 1:
                    # The same value and generator state as
                    # choice(len(pool), size=1, replace=False), at a
                    # tenth of the cost (pinned in test_bt_choker).
                    self._optimistic = [pool[int(self._rng.integers(0, len(pool)))]]
                else:
                    picks = self._rng.choice(len(pool), size=k, replace=False)
                    self._optimistic = [pool[int(i)] for i in picks]
        return regular + self._optimistic
