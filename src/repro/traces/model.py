"""Trace data model.

A :class:`Trace` records, for a fixed population over a fixed window:

* :class:`PeerProfile` — per-peer constants: connectability (firewalled
  or not), bandwidth class, and behavioural predisposition (altruistic
  seeder vs free-rider), mirroring what the paper's filelist.org traces
  expose;
* :class:`SwarmSpec` — per-swarm constants: shared file size and piece
  size;
* :class:`Session` — one continuous online interval of one peer;
* :class:`TraceEvent` — the flattened, time-ordered event stream
  (session up/down, swarm join/leave) that drives the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple


class EventKind(str, Enum):
    """Kinds of trace events, in the order they tie-break at equal time."""

    SESSION_START = "session_start"
    SWARM_JOIN = "swarm_join"
    SWARM_LEAVE = "swarm_leave"
    SESSION_END = "session_end"

    @property
    def order(self) -> int:
        """Tie-break rank: ends before starts would lose sessions, so
        starts sort first at equal timestamps."""
        return _KIND_ORDER[self]


_KIND_ORDER = {
    EventKind.SESSION_START: 0,
    EventKind.SWARM_JOIN: 1,
    EventKind.SWARM_LEAVE: 2,
    EventKind.SESSION_END: 3,
}


@dataclass(frozen=True)
class PeerProfile:
    """Static per-peer attributes recorded by the tracker.

    Attributes
    ----------
    peer_id:
        Stable identifier, unique within the trace.
    connectable:
        ``False`` for firewalled/NATed peers that cannot accept
        incoming connections (the filelist.org traces record this).
    free_rider:
        ``True`` for peers predisposed to leave swarms as soon as their
        download completes and to cap upload aggressively.  The paper
        reports ≈25 % of traced peers "uploaded little to others".
    upload_capacity / download_capacity:
        Link capacities in bytes/second.
    """

    peer_id: str
    connectable: bool = True
    free_rider: bool = False
    upload_capacity: float = 64_000.0
    download_capacity: float = 512_000.0

    def __post_init__(self) -> None:
        if self.upload_capacity <= 0 or self.download_capacity <= 0:
            raise ValueError(f"capacities must be positive for {self.peer_id}")


@dataclass(frozen=True)
class SwarmSpec:
    """Static per-swarm attributes.

    Attributes
    ----------
    swarm_id:
        Stable identifier, unique within the trace.
    file_size:
        Size of the shared file in bytes.
    piece_size:
        BitTorrent piece size in bytes (default 256 KiB as in mainline).
    initial_seeder:
        Peer id of the original seeder (holds all pieces at t=0), or
        ``None`` if the trace leaves seeding to session dynamics.
    """

    swarm_id: str
    file_size: float
    piece_size: float = 262_144.0
    initial_seeder: Optional[str] = None

    def __post_init__(self) -> None:
        if self.file_size <= 0:
            raise ValueError(f"file_size must be positive for {self.swarm_id}")
        if self.piece_size <= 0:
            raise ValueError(f"piece_size must be positive for {self.swarm_id}")

    @property
    def num_pieces(self) -> int:
        """Number of pieces (last piece may be short)."""
        return max(1, int(-(-self.file_size // self.piece_size)))


@dataclass(frozen=True)
class Session:
    """One continuous online interval ``[start, end)`` of one peer."""

    peer_id: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError(
                f"session end {self.end} must exceed start {self.start} ({self.peer_id})"
            )

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped trace event.

    ``swarm_id`` is ``None`` for session events and set for swarm
    join/leave events.
    """

    time: float
    peer_id: str
    kind: EventKind
    swarm_id: Optional[str] = None

    def sort_key(self) -> Tuple[float, int, str]:
        return (self.time, self.kind.order, self.peer_id)


@dataclass
class Trace:
    """A complete churn trace: population, swarms, and the event stream.

    The event list is kept sorted by :meth:`TraceEvent.sort_key`;
    :meth:`validate` checks structural invariants (sessions well formed,
    joins inside sessions, every join eventually left or truncated).
    """

    duration: float
    peers: Dict[str, PeerProfile]
    swarms: Dict[str, SwarmSpec]
    events: List[TraceEvent]
    name: str = "trace"
    _session_index: Optional[Dict[str, List[Session]]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def sessions(self) -> Dict[str, List[Session]]:
        """Per-peer online sessions reconstructed from the event stream.

        A dangling SESSION_START (no matching end before the trace
        horizon) is truncated at ``duration``.  The result is cached.
        """
        if self._session_index is not None:
            return self._session_index
        open_at: Dict[str, float] = {}
        out: Dict[str, List[Session]] = {pid: [] for pid in self.peers}
        for ev in self.events:
            if ev.kind is EventKind.SESSION_START:
                open_at[ev.peer_id] = ev.time
            elif ev.kind is EventKind.SESSION_END:
                start = open_at.pop(ev.peer_id, None)
                if start is not None and ev.time > start:
                    out.setdefault(ev.peer_id, []).append(
                        Session(ev.peer_id, start, ev.time)
                    )
        for pid, start in open_at.items():
            if self.duration > start:
                out.setdefault(pid, []).append(Session(pid, start, self.duration))
        self._session_index = out
        return out

    def arrival_order(self) -> List[str]:
        """Peer ids by first SESSION_START (the paper's 'first three
        nodes entering the system' become moderators)."""
        seen = set()
        order = []
        for ev in self.events:
            if ev.kind is EventKind.SESSION_START and ev.peer_id not in seen:
                seen.add(ev.peer_id)
                order.append(ev.peer_id)
        return order

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` on any structural violation."""
        last_key: Optional[Tuple[float, int, str]] = None
        online: Dict[str, bool] = {pid: False for pid in self.peers}
        joined: Dict[Tuple[str, str], bool] = {}
        for ev in self.events:
            key = ev.sort_key()
            if last_key is not None and key < last_key:
                raise ValueError(f"events out of order at t={ev.time}")
            last_key = key
            if ev.peer_id not in self.peers:
                raise ValueError(f"unknown peer {ev.peer_id!r} at t={ev.time}")
            if not (0.0 <= ev.time <= self.duration):
                raise ValueError(f"event outside [0, duration] at t={ev.time}")
            if ev.kind is EventKind.SESSION_START:
                if online[ev.peer_id]:
                    raise ValueError(f"{ev.peer_id} started while online at t={ev.time}")
                online[ev.peer_id] = True
            elif ev.kind is EventKind.SESSION_END:
                if not online[ev.peer_id]:
                    raise ValueError(f"{ev.peer_id} ended while offline at t={ev.time}")
                online[ev.peer_id] = False
            else:
                if ev.swarm_id is None or ev.swarm_id not in self.swarms:
                    raise ValueError(f"bad swarm ref {ev.swarm_id!r} at t={ev.time}")
                if not online[ev.peer_id]:
                    raise ValueError(
                        f"{ev.peer_id} touched swarm {ev.swarm_id} while offline"
                    )
                jkey = (ev.peer_id, ev.swarm_id)
                if ev.kind is EventKind.SWARM_JOIN:
                    if joined.get(jkey):
                        raise ValueError(f"double join {jkey} at t={ev.time}")
                    joined[jkey] = True
                else:
                    if not joined.get(jkey):
                        raise ValueError(f"leave without join {jkey} at t={ev.time}")
                    joined[jkey] = False

    def __len__(self) -> int:
        """Number of events — the paper's '≈23,000 events' measure."""
        return len(self.events)
