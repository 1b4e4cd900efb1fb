"""The executable spec of piece selection and interest.

The swarm holds possession as Python-int bitsets and its picker keeps
per-availability-level bitsets (:mod:`repro.bittorrent.picker`).  This
module keeps the plain numpy definitions those replaced:

* :class:`ReferencePicker` — an ``availability`` count array, and a
  pick that takes the ascending index list of the candidates, their
  minimum availability, and ``rng.integers(0, k)`` over the rarest;
* :func:`interesting_mask` / :func:`is_interested_in` — BitTorrent
  "interested" as a boolean-array difference;
* :func:`bitfield_of` — a :class:`~repro.bittorrent.bitfield.Bitfield`
  holding given pieces, for building test cases.

Tests hold the production picker and the swarm's interest decision to
these, piece for piece and RNG draw for RNG draw.
"""

from typing import Iterable, Optional

import numpy as np

from repro.bittorrent.bitfield import Bitfield


def bitfield_of(num_pieces: int, indices: Iterable[int]) -> Bitfield:
    """A bitfield of ``num_pieces`` pieces holding ``indices``."""
    bf = Bitfield(num_pieces)
    for i in indices:
        bf.set(int(i))
    return bf


class ReferencePicker:
    """Rarest-first with random-first bootstrap over a count array."""

    def __init__(
        self, num_pieces: int, rng: np.random.Generator, random_first_threshold: int = 4
    ):
        self.num_pieces = num_pieces
        self.availability = np.zeros(num_pieces, dtype=np.int32)
        self._rng = rng
        self.random_first_threshold = random_first_threshold

    def peer_joined(self, have: np.ndarray) -> None:
        self.availability += have

    def peer_left(self, have: np.ndarray) -> None:
        self.availability -= have

    def piece_completed(self, index: int) -> None:
        self.availability[index] += 1

    def pick(
        self, wanted: np.ndarray, held: int, uploader: np.ndarray
    ) -> Optional[int]:
        """``wanted`` and ``uploader`` are boolean rows: the pieces the
        downloader neither holds nor fetches, and the uploader's."""
        idx = (wanted & uploader).nonzero()[0]
        if idx.size == 0:
            return None
        if held < self.random_first_threshold:
            return int(idx[self._rng.integers(0, idx.size)])
        avail = self.availability[idx]
        rarest = idx[avail == avail.min()]
        if rarest.size == 1:
            return int(rarest[0])
        return int(rarest[self._rng.integers(0, rarest.size)])


def interesting_mask(mine: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Pieces ``other`` has that ``mine`` misses."""
    return other & ~mine


def is_interested_in(mine: np.ndarray, other: np.ndarray) -> bool:
    """BitTorrent 'interested': ``other`` holds a piece ``mine`` misses."""
    return bool(np.any(other & ~mine))
