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
  holding given pieces, for building test cases;
* reads that only tests make — a bitfield as a boolean array, a
  picker's availability counts, a member's progress, a piece's cost,
  ledger totals — and :func:`run_session`, a session started and run to
  a horizon.

Tests hold the production picker and the swarm's interest decision to
these, piece for piece and RNG draw for RNG draw.
"""

from typing import Iterable, Optional

import numpy as np

from repro.bittorrent.bitfield import Bitfield, bits_to_array


def set_piece(bf: Bitfield, index: int) -> bool:
    """Mark a piece held.  Returns ``True`` if it was newly added."""
    bit = 1 << index
    if bf.bits & bit:
        return False
    bf.bits |= bit
    bf.count += 1
    return True


def bitfield_of(num_pieces: int, indices: Iterable[int]) -> Bitfield:
    """A bitfield of ``num_pieces`` pieces holding ``indices``."""
    bf = Bitfield(num_pieces)
    for i in indices:
        set_piece(bf, int(i))
    return bf


def as_array(bf: Bitfield) -> np.ndarray:
    """The bits as a boolean array."""
    return bits_to_array(bf.bits, bf.num_pieces)


def availability(picker) -> np.ndarray:
    """How many active members hold each piece (the picker's counts)."""
    return picker._counts


def progress_of(swarm, peer_id: str) -> float:
    """The share of the file a member holds (0.0 for a non-member)."""
    member = swarm.members.get(peer_id)
    return 0.0 if member is None else member.bitfield.count / swarm.num_pieces


def piece_cost(swarm, index: int) -> float:
    """Bytes of piece ``index``: uniform but for the final remainder."""
    if index == swarm.num_pieces - 1:
        return swarm._last_piece_cost
    return swarm.spec.piece_size


def sent(ledger, uploader: str, downloader: str) -> float:
    """Total bytes ``uploader`` sent to ``downloader``."""
    return sum(b for u, d, b in ledger.edges() if (u, d) == (uploader, downloader))


def uploaded_by(ledger, peer: str) -> float:
    return sum(b for u, _d, b in ledger.edges() if u == peer)


def downloaded_by(ledger, peer: str) -> float:
    return sum(b for _u, d, b in ledger.edges() if d == peer)


def run_session(session, until: Optional[float] = None) -> None:
    """Start ``session`` (if needed) and run it to ``until`` (default:
    the trace horizon)."""
    if not session._started:
        session.start()
    session.engine.run_until(until if until is not None else session.trace.duration)


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
