"""Trace-driven BitTorrent session driver.

Binds the swarm engine to the discrete-event engine: replays a
:class:`~repro.traces.model.Trace` (sessions up/down, swarm join/leave)
and runs every swarm's transfer round on a fixed cadence.  Higher
layers (PSS, BarterCast, the vote-sampling node runtime) subscribe to
its online/offline hooks and read the shared
:class:`~repro.bittorrent.ledger.TransferLedger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.bittorrent.ledger import TransferLedger
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.pss.base import OnlineRegistry
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.traces.model import EventKind, Trace


@dataclass
class SessionConfig:
    """Driver parameters."""

    swarm: SwarmConfig = field(default_factory=SwarmConfig)
    #: Interval between transfer rounds across all swarms.
    round_interval: float = 30.0

    def __post_init__(self) -> None:
        if self.round_interval <= 0:
            raise ValueError("round_interval must be positive")


class BitTorrentSession:
    """Replays one trace on one engine.

    Usage::

        engine = Engine()
        session = BitTorrentSession(engine, trace, rng=RngRegistry(0))
        session.start()
        engine.run_until(trace.duration)
    """

    def __init__(
        self,
        engine: Engine,
        trace: Trace,
        rng: RngRegistry,
        config: Optional[SessionConfig] = None,
        registry: Optional[OnlineRegistry] = None,
        ledger: Optional[TransferLedger] = None,
    ):
        self.engine = engine
        self.trace = trace
        self.config = config or SessionConfig()
        self.registry = registry if registry is not None else OnlineRegistry()
        self.ledger = ledger if ledger is not None else TransferLedger()
        self._rng = rng
        self.swarms: Dict[str, Swarm] = {
            sid: Swarm(spec, self.config.swarm, rng.stream("swarm", sid), self.ledger)
            for sid, spec in trace.swarms.items()
        }
        self._online_listeners: List[Callable[[str, float], None]] = []
        self._offline_listeners: List[Callable[[str, float], None]] = []
        self._started = False
        self._last_round_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_peer_online(self, listener: Callable[[str, float], None]) -> None:
        """``listener(peer_id, now)`` when a peer's session starts."""
        self._online_listeners.append(listener)

    def on_peer_offline(self, listener: Callable[[str, float], None]) -> None:
        """``listener(peer_id, now)`` when a peer's session ends."""
        self._offline_listeners.append(listener)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule all trace events and the recurring transfer round."""
        if self._started:
            raise RuntimeError("session already started")
        self._started = True
        for ev in self.trace.events:
            # Priority mirrors the trace's canonical kind order so
            # same-time events replay in trace order.
            self.engine.schedule_at(
                ev.time, self._apply_event, ev, priority=ev.kind.order
            )
        # Transfer rounds run at low priority (after the trace events at
        # the same timestamp), so a join at t sees its first round at t.
        self._last_round_at = self.engine.now
        self._schedule_next_round()

    def _schedule_next_round(self) -> None:
        self.engine.schedule(
            self.config.round_interval, self._run_rounds, priority=10
        )

    def _run_rounds(self) -> None:
        now = self.engine.now
        assert self._last_round_at is not None
        dt = now - self._last_round_at
        self._last_round_at = now
        if dt > 0:
            for swarm in self.swarms.values():
                if len(swarm.active) >= 2:
                    swarm.run_round(now, dt)
        if now < self.trace.duration:
            self._schedule_next_round()

    # ------------------------------------------------------------------
    def _apply_event(self, ev) -> None:
        now = self.engine.now
        if ev.kind is EventKind.SESSION_START:
            self.registry.set_online(ev.peer_id)
            for listener in self._online_listeners:
                listener(ev.peer_id, now)
        elif ev.kind is EventKind.SESSION_END:
            # Leave any swarms the peer is still in (safety net; traces
            # normally emit explicit leaves first).
            for swarm in self.swarms.values():
                swarm.leave(ev.peer_id, now)
            self.registry.set_offline(ev.peer_id)
            for listener in self._offline_listeners:
                listener(ev.peer_id, now)
        elif ev.kind is EventKind.SWARM_JOIN:
            profile = self.trace.peers[ev.peer_id]
            self.swarms[ev.swarm_id].join(profile, now)
        elif ev.kind is EventKind.SWARM_LEAVE:
            self.swarms[ev.swarm_id].leave(ev.peer_id, now)
