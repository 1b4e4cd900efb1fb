"""Piece selection: rarest-first with random-first bootstrap.

The picker ranks candidate pieces (pieces the uploader holds and the
downloader misses) by swarm-wide availability and picks the rarest,
breaking ties uniformly at random.  Until the downloader holds
``random_first_threshold`` pieces it instead picks uniformly among
candidates — mainline BitTorrent's "random first piece" policy that
gets a fresh peer tradeable material quickly.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bittorrent.bitfield import Bitfield


class PiecePicker:
    """Swarm-wide piece availability plus the selection policy.

    One picker exists per swarm; it maintains ``availability[i]`` =
    number of *connected* swarm members holding piece ``i``, updated
    incrementally on join/leave/piece-completed (O(pieces) only on
    membership changes, O(1) per completed piece).
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
        self.availability = np.zeros(num_pieces, dtype=np.int32)
        self._rng = rng
        self.random_first_threshold = random_first_threshold

    # ------------------------------------------------------------------
    # Availability maintenance
    # ------------------------------------------------------------------
    def peer_joined(self, bitfield: Bitfield) -> None:
        self.availability += bitfield.as_array()

    def peer_left(self, bitfield: Bitfield) -> None:
        self.availability -= bitfield.as_array()

    def piece_completed(self, index: int) -> None:
        self.availability[index] += 1

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def pick(
        self, wanted: np.ndarray, held: int, uploader: Bitfield
    ) -> Optional[int]:
        """Choose the next piece to fetch from ``uploader``.

        ``wanted`` is the downloader's maintained boolean row of pieces
        it neither holds nor is already fetching from someone (see
        :class:`~repro.bittorrent.swarm.SwarmPeer`), ``held`` the number
        of pieces it holds.  Returns a piece index, or ``None`` when
        ``uploader`` has nothing the downloader still wants.
        """
        idx = (wanted & uploader.as_array()).nonzero()[0]
        if idx.size == 0:
            return None
        if held < self.random_first_threshold:
            return int(idx[self._rng.integers(0, idx.size)])
        avail = self.availability[idx]
        rarest = idx[avail == avail.min()]
        if rarest.size == 1:
            return int(rarest[0])
        return int(rarest[self._rng.integers(0, rarest.size)])
