"""Piece possession bitfields.

Possession is held once, as a plain Python int: bit ``i`` of
:attr:`Bitfield.bits` is set when piece ``i`` is held.  The swarms of
the workloads are small (a handful of members, 215–3 140 pieces), so a
whole-file set operation — "pieces you have that I miss" is
``have_u & ~have_d`` — is one C-level int op, where a numpy call would
pay its per-call overhead on an array of a few hundred bytes.
"""

from __future__ import annotations

from typing import List

import numpy as np


class Bitfield:
    """Which pieces of one file a peer holds.

    ``bits`` and ``count`` are plain attributes for the round's hot
    loop; they change only through :meth:`fill` or the swarm's
    :meth:`~repro.bittorrent.swarm.SwarmPeer.gain`, which keep
    ``count == bits.bit_count()``."""

    __slots__ = ("num_pieces", "bits", "count")

    def __init__(self, num_pieces: int, full: bool = False):
        if num_pieces < 1:
            raise ValueError("num_pieces must be >= 1")
        self.num_pieces = num_pieces
        self.bits = (1 << num_pieces) - 1 if full else 0
        self.count = num_pieces if full else 0

    # ------------------------------------------------------------------
    @property
    def complete(self) -> bool:
        return self.count == self.num_pieces

    def fill(self) -> None:
        """Become a full seed bitfield."""
        self.bits = (1 << self.num_pieces) - 1
        self.count = self.num_pieces

    # ------------------------------------------------------------------
    def held_indices(self) -> List[int]:
        return np.flatnonzero(bits_to_array(self.bits, self.num_pieces)).tolist()


def bits_to_array(bits: int, num_pieces: int) -> np.ndarray:
    """Bit ``i`` of ``bits`` as element ``i`` of a boolean array."""
    raw = bits.to_bytes((num_pieces + 7) // 8, "little")
    packed = np.frombuffer(raw, dtype=np.uint8)
    return np.unpackbits(packed, count=num_pieces, bitorder="little").astype(bool)
