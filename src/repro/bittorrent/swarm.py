"""Swarm state and the round-based transfer engine.

Each swarm advances in fixed *rounds* (default 30 s — a small multiple
of mainline's 10 s choke interval).  A round:

1. decides interest for every (uploader, active neighbour) pair —
   piece counts settle most pairs, one ``have_u & ~have_d`` the rest —
   and runs every active peer's choker;
2. allocates rates — an uploader splits its capacity evenly across its
   unchoked+interested links, then each downloader's incoming rates are
   scaled down to its download capacity;
3. moves bytes along links, converting them into pieces via
   rarest-first picking (partial pieces carry over between rounds), and
   hands the round's transfers to the ledger in one call, in link order;
4. handles completions: altruists keep seeding, free-riders leave the
   swarm immediately (the behaviour split §VI simulates).

Piece identity is tracked end-to-end: a downloader only ever completes
pieces its uploader actually holds, in-flight pieces are not picked
twice, and the final piece costs only the file remainder.

Possession is held once, as Python-int bitsets (:class:`SwarmPeer`,
:class:`~repro.bittorrent.picker.PiecePicker`): the swarms of the
workloads are small, so per-call overhead, not bit work, is what a
numpy array would cost the round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.bittorrent.bitfield import Bitfield
from repro.bittorrent.choker import Choker, ChokerConfig
from repro.bittorrent.ledger import TransferLedger
from repro.bittorrent.picker import PiecePicker
from repro.traces.model import PeerProfile, SwarmSpec


@dataclass
class SwarmConfig:
    """Per-swarm engine parameters."""

    max_connections: int = 30
    random_first_threshold: int = 4
    choker: ChokerConfig = field(default_factory=ChokerConfig)

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ValueError("max_connections must be >= 1")


class SwarmPeer:
    """Per-(swarm, peer) state.  Survives across sessions so partial
    downloads resume, mirroring a real client's disk state.

    Possession is held once, as two int bitsets: ``bitfield.bits``
    (have) and ``wanted_bits = ~have & ~in_flight``, the pieces a pick may
    take.  Both change only through :meth:`gain` / :meth:`gain_all`,
    and a piece goes in and out of flight only through
    :meth:`start_fetch` / :meth:`reset_link_state`."""

    __slots__ = (
        "profile",
        "peer_id",
        "bitfield",
        "choker",
        "active",
        "received_last_round",
        "accum",
        "in_flight",
        "wanted_bits",
        "completed_at",
    )

    def __init__(self, profile: PeerProfile, num_pieces: int, choker: Choker):
        self.profile = profile
        self.peer_id = profile.peer_id
        self.bitfield = Bitfield(num_pieces)
        self.choker = choker
        self.active = False
        #: bytes received per uploader during the current round (t4t signal)
        self.received_last_round: Dict[str, float] = {}
        #: partial-piece bytes accumulated per uploader
        self.accum: Dict[str, float] = {}
        #: piece currently being fetched from each uploader
        self.in_flight: Dict[str, int] = {}
        #: pieces neither held nor in flight, so a pick is one ``&``
        #: with the uploader's bits
        self.wanted_bits = (1 << num_pieces) - 1
        self.completed_at: Optional[float] = None

    def gain(self, piece: int) -> bool:
        """Hold ``piece`` from now on.  ``True`` if it was newly added."""
        bitfield = self.bitfield
        bit = 1 << piece
        if bitfield.bits & bit:
            return False
        bitfield.bits |= bit
        bitfield.count += 1
        self.wanted_bits &= ~bit
        return True

    def gain_all(self) -> None:
        """Become a full seed."""
        self.bitfield.fill()
        self.wanted_bits = 0

    def start_fetch(self, uploader: str, piece: int) -> None:
        """Start fetching ``piece`` over the link from ``uploader``."""
        self.in_flight[uploader] = piece
        self.wanted_bits &= ~(1 << piece)
        self.accum[uploader] = 0.0

    def reset_link_state(self) -> None:
        """Drop in-flight transfer state (on leave: connections die)."""
        self.received_last_round = {}
        self.accum = {}
        self.in_flight = {}
        bitfield = self.bitfield
        self.wanted_bits = ((1 << bitfield.num_pieces) - 1) ^ bitfield.bits


#: per active member in sorted id order: the member, its active
#: neighbours' ids (sorted — the order the chokers see) and their
#: bitfields.  Two flat lists, not a tuple per pair: at thousands of
#: members the tuples alone kept the cyclic GC busy.
_Pairs = List[Tuple[SwarmPeer, List[str], List[Bitfield]]]


class Swarm:
    """One torrent's swarm: membership, connections, and transfers."""

    def __init__(
        self,
        spec: SwarmSpec,
        config: SwarmConfig,
        rng: np.random.Generator,
        ledger: TransferLedger,
    ):
        self.spec = spec
        self.config = config
        self._rng = rng
        self.ledger = ledger
        self.num_pieces = spec.num_pieces
        self.picker = PiecePicker(
            self.num_pieces, rng, random_first_threshold=config.random_first_threshold
        )
        #: every peer that ever joined (bitfields persist)
        self.members: Dict[str, SwarmPeer] = {}
        #: currently active members
        self.active: Dict[str, SwarmPeer] = {}
        self.neighbors: Dict[str, Set[str]] = {}
        #: dropped whenever membership or a connection changes
        self._pairs: Optional[_Pairs] = None
        self.rounds_run = 0
        # Piece cost: uniform except the final remainder piece.
        last = spec.file_size - (self.num_pieces - 1) * spec.piece_size
        self._last_piece_cost = max(last, 1.0)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, profile: PeerProfile, now: float) -> bool:
        """Add a peer to the active swarm.  Returns ``False`` if the
        join is refused/meaningless (already active, or a free-rider
        that already holds the full file — it has nothing to gain and
        will not seed)."""
        pid = profile.peer_id
        member = self.members.get(pid)
        if member is None:
            member = self._new_member(profile)
            if self.spec.initial_seeder == pid:
                member.gain_all()
                member.completed_at = now
        if member.active:
            return False
        if profile.free_rider and member.bitfield.complete:
            return False
        member.active = True
        self.active[pid] = member
        self.picker.peer_joined(member.bitfield)
        self._connect(pid)
        return True

    def _new_member(self, profile: PeerProfile) -> SwarmPeer:
        member = SwarmPeer(
            profile, self.num_pieces, Choker(self.config.choker, self._rng)
        )
        self.members[profile.peer_id] = member
        return member

    def leave(self, peer_id: str, now: float) -> None:
        """Remove a peer from the active swarm.  Idempotent."""
        member = self.active.pop(peer_id, None)
        if member is None:
            return
        self._pairs = None
        member.active = False
        member.reset_link_state()
        self.picker.peer_left(member.bitfield)
        for nb in self.neighbors.pop(peer_id, set()):
            self.neighbors.get(nb, set()).discard(peer_id)

    def _connect(self, pid: str) -> None:
        """Open connections to up to ``max_connections`` active members,
        respecting connectability (two firewalled peers cannot connect)."""
        self._pairs = None
        me = self.members[pid].profile
        mine = self.neighbors.setdefault(pid, set())
        candidates = [
            other
            for other in self.active
            if other != pid
            and other not in mine
            and (me.connectable or self.members[other].profile.connectable)
            and len(self.neighbors.get(other, ())) < 4 * self.config.max_connections
        ]
        budget = self.config.max_connections - len(mine)
        if budget <= 0 or not candidates:
            return
        if len(candidates) > budget:
            picks = self._rng.choice(len(candidates), size=budget, replace=False)
            chosen = [candidates[int(i)] for i in picks]
        else:
            chosen = candidates
        for other in chosen:
            mine.add(other)
            self.neighbors.setdefault(other, set()).add(pid)

    # ------------------------------------------------------------------
    # Round engine
    # ------------------------------------------------------------------
    def run_round(self, now: float, dt: float) -> float:
        """Advance the swarm by one round of ``dt`` seconds.

        Returns the number of bytes transferred this round.
        """
        self.rounds_run += 1
        if len(self.active) < 2:
            return 0.0
        links = self._choke_and_link()
        if not links:
            # Reset t4t signal so stale rates do not linger.
            for member in self.active.values():
                member.received_last_round = {}
            return 0.0
        moved = self._transfer(links, now, dt)
        self._handle_completions(now)
        return moved

    def _round_pairs(self) -> _Pairs:
        """Every active member in sorted id order with its active
        neighbours, rebuilt only after a membership or connection
        change dropped it."""
        pairs = self._pairs
        if pairs is None:
            active = self.active
            pairs = self._pairs = []
            for pid in sorted(active):
                nbs = sorted(self.neighbors.get(pid, ()))
                names = [nb for nb in nbs if nb in active]
                bitfields = [active[nb].bitfield for nb in names]
                pairs.append((active[pid], names, bitfields))
        return pairs

    def _round_interest(self) -> List[Tuple[SwarmPeer, List[str]]]:
        """Every active member, in sorted id order, with the active
        neighbours interested in it (sorted): those that miss a piece
        the member holds.

        Piece counts settle most pairs: nobody wants anything from an
        empty uploader, a complete neighbour wants nothing, and an
        uploader holding *more* pieces than the neighbour must hold one
        the neighbour misses (pigeonhole).  Only the rest test bits,
        ``have_u & ~have_d`` on the two ints."""
        n = self.num_pieces
        out: List[Tuple[SwarmPeer, List[str]]] = []
        for member, names, others in self._round_pairs():
            bitfield = member.bitfield
            held = bitfield.count
            if not held:
                out.append((member, []))
                continue
            have = bitfield.bits
            out.append(
                (
                    member,
                    [
                        nb
                        for nb, other in zip(names, others)
                        if other.count < held
                        or (other.count < n and have & ~other.bits)
                    ],
                )
            )
        return out

    def _choke_and_link(self) -> List[Tuple[SwarmPeer, SwarmPeer, float]]:
        """Run every active peer's choker; return the links that are
        unchoked *and* interested, as ``(uploader, downloader, rate)``
        with the uploader's capacity split evenly across its links."""
        active = self.active
        links: List[Tuple[SwarmPeer, SwarmPeer, float]] = []
        for member, interested in self._round_interest():
            unchoked = member.choker.select(
                interested,
                member.received_last_round,
                seeding=member.bitfield.complete,
            )
            if unchoked:
                rate = member.profile.upload_capacity / len(unchoked)
                links.extend([(member, active[d], rate) for d in unchoked])
        return links

    def _transfer(
        self, links: List[Tuple[SwarmPeer, SwarmPeer, float]], now: float, dt: float
    ) -> float:
        """Move bytes along every link in order, completing pieces, and
        record the round's transfers in the ledger."""
        # Download-side cap: proportional scale-down.
        in_sum: Dict[SwarmPeer, float] = {}
        for _up, down, rate in links:
            in_sum[down] = in_sum.get(down, 0.0) + rate
        scale: Dict[SwarmPeer, float] = {}
        for down, total in in_sum.items():
            cap = down.profile.download_capacity
            scale[down] = min(1.0, cap / total) if total > 0 else 1.0
        # Reset this round's reception record.
        for member in self.active.values():
            member.received_last_round = {}
        pick = self.picker.pick
        piece_completed = self.picker.piece_completed
        num_pieces = self.num_pieces
        last_piece = num_pieces - 1
        last_cost = self._last_piece_cost
        piece_size = self.spec.piece_size
        transfers: List[Tuple[str, str, float]] = []
        moved = 0.0
        for up, down, rate in links:
            budget = rate * scale[down] * dt
            if budget <= 0:
                continue
            u = up.peer_id
            up_bits = up.bitfield.bits
            have = down.bitfield
            in_flight = down.in_flight
            accum = down.accum
            delivered = 0.0
            while budget > 0:
                piece = in_flight.get(u)
                if piece is None:
                    piece = pick(down.wanted_bits, have.count, up_bits)
                    if piece is None:
                        break  # nothing (more) to fetch from u
                    down.start_fetch(u, piece)
                    got = 0.0
                else:
                    got = accum[u]
                cost = last_cost if piece == last_piece else piece_size
                rest = cost - got
                take = rest if rest < budget else budget
                got += take
                budget -= take
                delivered += take
                if got >= cost - 1e-9:
                    # Piece complete.
                    del in_flight[u]
                    accum[u] = 0.0
                    if down.gain(piece):
                        piece_completed(piece)
                    if have.count == num_pieces:
                        break
                else:
                    accum[u] = got
            if delivered > 0:
                transfers.append((u, down.peer_id, delivered))
                down.received_last_round[u] = delivered
                moved += delivered
        if transfers:
            self.ledger.record_many(transfers, now)
        return moved

    def _handle_completions(self, now: float) -> None:
        finished = [
            pid
            for pid, m in self.active.items()
            if m.bitfield.complete and m.completed_at is None
        ]
        for pid in finished:
            member = self.active[pid]
            member.completed_at = now
            if member.profile.free_rider:
                # Free-riders leave as soon as the download completes.
                self.leave(pid, now)
