"""Piece selection: rarest-first with random-first bootstrap.

The picker ranks candidate pieces (pieces the uploader holds and the
downloader misses) by swarm-wide availability and picks the rarest,
breaking ties uniformly at random.  Until the downloader holds
``random_first_threshold`` pieces it instead picks uniformly among
candidates — mainline BitTorrent's "random first piece" policy that
gets a fresh peer tradeable material quickly.

Possession is held once, as int bitsets (see
:mod:`repro.bittorrent.bitfield`), and so is the picker's view of it:
``levels[a]`` is the bitset of pieces exactly ``a`` active members
hold.  A pick is then a few int ops — the first non-empty
``candidates & levels[a]`` is the rarest set — plus, for a tie, the
``j``-th set bit for the same ``rng.integers(0, k)`` draw the
ascending index list of an array picker would take.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from repro.bittorrent.bitfield import Bitfield, bits_to_array


class PiecePicker:
    """Swarm-wide piece availability plus the selection policy.

    One picker exists per swarm; it maintains, for the *connected*
    swarm members, the availability ``levels`` and each piece's
    availability count, updated incrementally on join/leave (one
    vectorised add and one walk up the levels the member's pieces sit
    on) and on a completed piece (O(1): one bit moves up one level).
    """

    def __init__(
        self,
        num_pieces: int,
        rng: np.random.Generator,
        random_first_threshold: int = 4,
    ):
        if num_pieces < 1:
            raise ValueError("num_pieces must be >= 1")
        self.num_pieces = num_pieces
        self._rng = rng
        self.random_first_threshold = random_first_threshold
        #: ``levels[a]``: pieces held by exactly ``a`` active members —
        #: a partition of all pieces, so every piece is on one level
        self.levels: List[int] = [(1 << num_pieces) - 1]
        #: each piece's level; ``_counts`` is the same buffer as a
        #: numpy array, for the vectorised join/leave update
        self._level_of = array("i", bytes(4 * num_pieces))
        self._counts = np.frombuffer(self._level_of, dtype=np.int32)

    @property
    def availability(self) -> np.ndarray:
        """Read-only view of the number of active members holding each
        piece."""
        view = self._counts.view()
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # Availability maintenance
    # ------------------------------------------------------------------
    def peer_joined(self, bitfield: Bitfield) -> None:
        """Every piece ``bitfield`` holds moves one level up."""
        remaining = bitfield.bits
        if not remaining:
            return
        self._counts += bits_to_array(remaining, self.num_pieces)
        levels = self.levels
        carry = a = 0
        while remaining:
            level = levels[a]
            moving = level & remaining
            levels[a] = (level ^ moving) | carry
            carry = moving
            remaining ^= moving
            a += 1
        if a == len(levels):
            levels.append(carry)
        else:
            levels[a] |= carry

    def peer_left(self, bitfield: Bitfield) -> None:
        """Every piece ``bitfield`` holds moves one level down."""
        remaining = bitfield.bits
        if not remaining:
            return
        self._counts -= bits_to_array(remaining, self.num_pieces)
        levels = self.levels
        a = 1
        while remaining:
            moving = levels[a] & remaining
            if moving:
                levels[a] ^= moving
                levels[a - 1] |= moving
                remaining ^= moving
            a += 1
        while not levels[-1]:
            levels.pop()

    def piece_completed(self, index: int) -> None:
        level_of = self._level_of
        a = level_of[index]
        level_of[index] = a + 1
        bit = 1 << index
        levels = self.levels
        levels[a] ^= bit
        if a + 1 == len(levels):
            levels.append(bit)
        else:
            levels[a + 1] |= bit

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def pick(self, wanted: int, held: int, uploader: int) -> Optional[int]:
        """Choose the next piece to fetch from ``uploader``.

        ``wanted`` is the downloader's bitset of pieces it neither
        holds nor is already fetching from someone (see
        :class:`~repro.bittorrent.swarm.SwarmPeer`), ``held`` the number
        of pieces it holds and ``uploader`` the uploader's bitset.
        Returns a piece index, or ``None`` when ``uploader`` has
        nothing the downloader still wants.
        """
        candidates = wanted & uploader
        if not candidates:
            return None
        if held < self.random_first_threshold:
            k = candidates.bit_count()
            return nth_set_bit(candidates, int(self._rng.integers(0, k)))
        # The uploader is active, so every candidate is on a level >= 1
        # and the scan stops at the rarest one.
        for level in self.levels:
            rarest = candidates & level
            if rarest:
                break
        k = rarest.bit_count()
        if k == 1:
            return rarest.bit_length() - 1
        return nth_set_bit(rarest, int(self._rng.integers(0, k)))


def nth_set_bit(bits: int, j: int) -> int:
    """Index of the ``j``-th (0-based, ascending) set bit of ``bits``:
    halve the window by population count, then clear low bits."""
    pos = 0
    width = bits.bit_length()
    while width > 16:
        half = width >> 1
        low = bits & ((1 << half) - 1)
        n = low.bit_count()
        if j < n:
            bits = low
            width = half
        else:
            j -= n
            bits >>= half
            pos += half
            width -= half
    for _ in range(j):
        bits &= bits - 1
    return pos + (bits & -bits).bit_length() - 1
