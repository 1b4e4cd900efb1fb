"""Piece possession bitfields.

Backed by a numpy boolean array so set operations used by the piece
picker ("pieces you have that I miss") are vectorised — the guide's
"vectorizing for loops" idiom applied to the simulator's hottest set
algebra.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np


class Bitfield:
    """Which pieces of one file a peer holds."""

    __slots__ = ("num_pieces", "_bits", "_readonly", "_count")

    def __init__(self, num_pieces: int, full: bool = False):
        if num_pieces < 1:
            raise ValueError("num_pieces must be >= 1")
        self.num_pieces = num_pieces
        self._bits = np.full(num_pieces, full, dtype=bool)
        self._readonly = self._bits.view()
        self._readonly.flags.writeable = False
        self._count = num_pieces if full else 0

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of pieces held (maintained incrementally)."""
        return self._count

    @property
    def complete(self) -> bool:
        return self._count == self.num_pieces

    @property
    def empty(self) -> bool:
        return self._count == 0

    def has(self, index: int) -> bool:
        return bool(self._bits[index])

    def set(self, index: int) -> bool:
        """Mark a piece held.  Returns ``True`` if it was newly added."""
        if self._bits[index]:
            return False
        self._bits[index] = True
        self._count += 1
        return True

    def fill(self) -> None:
        """Become a full seed bitfield."""
        self._bits[:] = True
        self._count = self.num_pieces

    # ------------------------------------------------------------------
    def interesting_mask(self, other: "Bitfield") -> np.ndarray:
        """Pieces ``other`` has that we miss (the 'interested' test)."""
        return other._bits & ~self._bits

    def is_interested_in(self, other: "Bitfield") -> bool:
        """BitTorrent 'interested': other holds ≥1 piece we miss.

        The scalar definition.  The swarm round decides interest for
        all neighbour pairs at once (``Swarm._round_interest``); tests
        hold that kernel to this method."""
        return bool(np.any(other._bits & ~self._bits))

    def as_array(self) -> np.ndarray:
        """Read-only view of the raw bits (do not mutate)."""
        return self._readonly

    def held_indices(self) -> List[int]:
        return [int(i) for i in np.flatnonzero(self._bits)]

    @classmethod
    def from_indices(cls, num_pieces: int, indices: Iterable[int]) -> "Bitfield":
        bf = cls(num_pieces)
        for i in indices:
            bf.set(int(i))
        return bf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Bitfield({self._count}/{self.num_pieces})"
