"""Swarm state and the round-based transfer engine.

Each swarm advances in fixed *rounds* (default 30 s — a small multiple
of mainline's 10 s choke interval).  A round:

1. recomputes interest for every (uploader, active neighbour) pair in
   one batch — piece counts settle most pairs, one packed-bit test the
   rest — and runs every active peer's choker;
2. allocates rates — an uploader splits its capacity evenly across its
   unchoked+interested links, then each downloader's incoming rates are
   scaled down to its download capacity;
3. moves bytes along links, converting them into pieces via
   rarest-first picking (partial pieces carry over between rounds);
4. handles completions: altruists keep seeding, free-riders leave the
   swarm immediately (the behaviour split §VI simulates).

Piece identity is tracked end-to-end: a downloader only ever completes
pieces its uploader actually holds, in-flight pieces are not picked
twice, and the final piece costs only the file remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

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

    Possession is held three ways that must agree — the
    :class:`Bitfield`, the ``wanted`` row the picker reads and the
    peer's packed row of the swarm's interest matrix — so it changes
    only through :meth:`gain` / :meth:`gain_all`, and a piece goes in
    and out of flight only through :meth:`start_fetch` /
    :meth:`reset_link_state`."""

    __slots__ = (
        "profile",
        "bitfield",
        "choker",
        "active",
        "received_last_round",
        "accum",
        "in_flight",
        "wanted",
        "slot",
        "have_packed",
        "completed_at",
    )

    def __init__(
        self,
        profile: PeerProfile,
        num_pieces: int,
        choker: Choker,
        slot: int,
        have_packed: np.ndarray,
    ):
        self.profile = profile
        self.bitfield = Bitfield(num_pieces)
        self.choker = choker
        self.active = False
        #: bytes received per uploader during the current round (t4t signal)
        self.received_last_round: Dict[str, float] = {}
        #: partial-piece bytes accumulated per uploader
        self.accum: Dict[str, float] = {}
        #: piece currently being fetched from each uploader
        self.in_flight: Dict[str, int] = {}
        #: pieces neither held nor in flight (``~have & ~in_flight``),
        #: maintained so a pick is one ``&`` with the uploader's bits
        self.wanted = np.ones(num_pieces, dtype=bool)
        #: row index in, and a view of this peer's row of, the swarm's
        #: bit-packed possession matrix (see ``Swarm._round_interest``)
        self.slot = slot
        self.have_packed = have_packed
        self.completed_at: Optional[float] = None

    @property
    def peer_id(self) -> str:
        return self.profile.peer_id

    def gain(self, piece: int) -> bool:
        """Hold ``piece`` from now on.  ``True`` if it was newly added."""
        if not self.bitfield.set(piece):
            return False
        self.wanted[piece] = False
        self.have_packed[piece >> 3] |= 0x80 >> (piece & 7)
        return True

    def gain_all(self) -> None:
        """Become a full seed."""
        self.bitfield.fill()
        self.wanted[:] = False
        self.have_packed[:] = np.packbits(self.bitfield.as_array())

    def start_fetch(self, uploader: str, piece: int) -> None:
        """Start fetching ``piece`` over the link from ``uploader``."""
        self.in_flight[uploader] = piece
        self.wanted[piece] = False
        self.accum[uploader] = 0.0

    def reset_link_state(self) -> None:
        """Drop in-flight transfer state (on leave: connections die)."""
        self.received_last_round = {}
        self.accum = {}
        self.in_flight = {}
        np.logical_not(self.bitfield.as_array(), out=self.wanted)


class _RoundPairs(NamedTuple):
    """The (uploader, active neighbour) pairs of a round, uploaders in
    sorted order and each uploader's neighbours sorted — the order the
    chokers see.  Depends only on membership and connections, so it is
    built once and reused until either changes.  Peers are named by
    their row (``SwarmPeer.slot``) in the packed possession matrix."""

    #: active members in sorted id order, and their slots
    members: List[SwarmPeer]
    slots: np.ndarray
    #: per pair: the uploader's and the neighbour's slot
    up: np.ndarray
    down: np.ndarray
    #: per pair: the neighbour's id
    names: List[str]
    #: pairs of ``members[k]`` are ``bounds[k]:bounds[k + 1]``
    bounds: List[int]


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
        #: bit-packed possession, one row per member (``SwarmPeer.slot``),
        #: grown by doubling
        self._have_packed = np.zeros((0, (self.num_pieces + 7) // 8), dtype=np.uint8)
        #: dropped whenever membership or a connection changes
        self._pairs: Optional[_RoundPairs] = None
        self.rounds_run = 0
        self._completion_listeners: List[Callable[[str, str, float], None]] = []
        # Piece cost: uniform except the final remainder piece.
        last = spec.file_size - (self.num_pieces - 1) * spec.piece_size
        self._last_piece_cost = max(last, 1.0)

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    def piece_cost(self, index: int) -> float:
        if index == self.num_pieces - 1:
            return self._last_piece_cost
        return self.spec.piece_size

    def add_completion_listener(
        self, listener: Callable[[str, str, float], None]
    ) -> None:
        """``listener(peer_id, swarm_id, now)`` on download completion."""
        self._completion_listeners.append(listener)

    def progress_of(self, peer_id: str) -> float:
        member = self.members.get(peer_id)
        if member is None:
            return 0.0
        return member.bitfield.count / self.num_pieces

    def seeds(self) -> List[str]:
        return [p for p, m in self.active.items() if m.bitfield.complete]

    def leechers(self) -> List[str]:
        return [p for p, m in self.active.items() if not m.bitfield.complete]

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
        slot = len(self.members)
        if slot == len(self._have_packed):
            grown = np.zeros(
                (max(16, 2 * slot), self._have_packed.shape[1]), dtype=np.uint8
            )
            grown[:slot] = self._have_packed
            self._have_packed = grown
            for other in self.members.values():
                other.have_packed = grown[other.slot]
        member = SwarmPeer(
            profile,
            self.num_pieces,
            Choker(self.config.choker, self._rng),
            slot,
            self._have_packed[slot],
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

    def _round_pairs(self) -> _RoundPairs:
        """The round's pair list, rebuilt only after a membership or
        connection change dropped it."""
        pairs = self._pairs
        if pairs is not None:
            return pairs
        active = self.active
        members = [active[pid] for pid in sorted(active)]
        up: List[int] = []
        names: List[str] = []
        bounds = [0]
        for member in members:
            nbs = [
                nb
                for nb in sorted(self.neighbors.get(member.peer_id, ()))
                if nb in active
            ]
            names.extend(nbs)
            up.extend([member.slot] * len(nbs))
            bounds.append(len(names))
        slots = np.fromiter((m.slot for m in members), dtype=np.intp, count=len(members))
        down = np.fromiter(
            (active[nb].slot for nb in names), dtype=np.intp, count=len(names)
        )
        pairs = self._pairs = _RoundPairs(
            members, slots, np.array(up, dtype=np.intp), down, names, bounds
        )
        return pairs

    def _round_interest(self) -> List[Tuple[SwarmPeer, List[str]]]:
        """Every active member, in sorted id order, with the active
        neighbours interested in it (sorted): those that miss a piece
        the member holds.

        Piece counts settle most pairs: nobody wants anything from an
        empty uploader, a complete neighbour wants nothing, and an
        uploader holding *more* pieces than the neighbour must hold one
        the neighbour misses (pigeonhole).  Only the rest read bits —
        one ``have[u] & ~have[d]`` over the packed rows of just those
        pairs, so the work and the memory are O(pairs × pieces / 8),
        never members × members."""
        pairs = self._round_pairs()
        members = pairs.members
        have = self._have_packed
        held = np.zeros(len(have), dtype=np.int64)
        held[pairs.slots] = np.fromiter(
            (m.bitfield.count for m in members), dtype=np.int64, count=len(members)
        )
        held_up = held[pairs.up]
        held_down = held[pairs.down]
        interested = held_up > held_down
        unsettled = np.flatnonzero(
            ~interested & (held_up > 0) & (held_down < self.num_pieces)
        )
        if unsettled.size:
            interested[unsettled] = (
                have[pairs.up[unsettled]] & ~have[pairs.down[unsettled]]
            ).any(axis=1)
        flags = interested.tolist()
        names, bounds = pairs.names, pairs.bounds
        return [
            (member, list(compress(names[lo:hi], flags[lo:hi])))
            for member, lo, hi in zip(members, bounds, bounds[1:])
        ]

    def _choke_and_link(self) -> List[tuple]:
        """Run every active peer's choker; return (uploader, downloader)
        links that are unchoked *and* interested."""
        links: List[tuple] = []
        for member, interested in self._round_interest():
            unchoked = member.choker.select(
                interested,
                member.received_last_round,
                seeding=member.bitfield.complete,
            )
            pid = member.peer_id
            for d in unchoked:
                links.append((pid, d))
        return links

    def _transfer(self, links: List[tuple], now: float, dt: float) -> float:
        active = self.active
        # Upload-side allocation: capacity split evenly across links.
        out_degree: Dict[str, int] = {}
        for u, _d in links:
            out_degree[u] = out_degree.get(u, 0) + 1
        rates: List[float] = []
        in_sum: Dict[str, float] = {}
        for u, d in links:
            r = active[u].profile.upload_capacity / out_degree[u]
            rates.append(r)
            in_sum[d] = in_sum.get(d, 0.0) + r
        # Download-side cap: proportional scale-down.
        scale: Dict[str, float] = {}
        for d, total in in_sum.items():
            cap = active[d].profile.download_capacity
            scale[d] = min(1.0, cap / total) if total > 0 else 1.0
        # Reset this round's reception record.
        for member in active.values():
            member.received_last_round = {}
        moved = 0.0
        for (u, d), r in zip(links, rates):
            nbytes = r * scale[d] * dt
            if nbytes <= 0:
                continue
            delivered = self._deliver(u, d, nbytes, now)
            if delivered > 0:
                moved += delivered
        return moved

    def _deliver(self, u: str, d: str, nbytes: float, now: float) -> float:
        """Move up to ``nbytes`` from ``u`` to ``d``, completing pieces."""
        down = self.active[d]
        up_have = self.active[u].bitfield
        have = down.bitfield
        in_flight = down.in_flight
        accum = down.accum
        budget = nbytes
        delivered = 0.0
        while budget > 0:
            piece = in_flight.get(u)
            if piece is None:
                piece = self.picker.pick(down.wanted, have.count, up_have)
                if piece is None:
                    break  # nothing (more) to fetch from u
                down.start_fetch(u, piece)
            cost = self.piece_cost(piece)
            got = accum.get(u, 0.0)
            take = min(budget, cost - got)
            got += take
            budget -= take
            delivered += take
            if got >= cost - 1e-9:
                # Piece complete.
                del in_flight[u]
                accum[u] = 0.0
                if down.gain(piece):
                    self.picker.piece_completed(piece)
                if have.complete:
                    break
            else:
                accum[u] = got
        if delivered > 0:
            self.ledger.record(u, d, delivered, now)
            down.received_last_round[u] = (
                down.received_last_round.get(u, 0.0) + delivered
            )
        return delivered

    def _handle_completions(self, now: float) -> None:
        finished = [
            pid
            for pid, m in self.active.items()
            if m.bitfield.complete and m.completed_at is None
        ]
        for pid in finished:
            member = self.active[pid]
            member.completed_at = now
            for listener in self._completion_listeners:
                listener(pid, self.spec.swarm_id, now)
            if member.profile.free_rider:
                # Free-riders leave as soon as the download completes.
                self.leave(pid, now)
