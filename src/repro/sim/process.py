"""Periodic process helper.

Gossip protocols in the paper are ``do forever: wait Δ; ...`` loops
(Figs 1 and 3).  :class:`PeriodicProcess` models one such loop: it
re-schedules itself every ``interval`` seconds, with optional uniform
jitter so that a population of processes does not fire in lock-step
(real deployments desynchronise naturally).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.sim.engine import Engine, EventHandle


class PeriodicProcess:
    """Repeatedly invoke ``action()`` every ``interval`` simulated seconds.

    Parameters
    ----------
    engine:
        The simulation engine to schedule on.
    interval:
        The paper's Δ — seconds between invocations.
    action:
        Zero-argument callable run on each tick.
    jitter:
        If > 0, each gap is ``interval + U(-jitter, +jitter)`` (clamped
        to be positive).  Requires ``rng``.
    rng:
        Generator used for jitter draws.
    phase:
        Delay before the first tick.  Defaults to one full interval
        (with jitter), matching a node that just started its loop.
    """

    def __init__(
        self,
        engine: Engine,
        interval: float,
        action: Callable[[], None],
        *,
        jitter: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        phase: Optional[float] = None,
    ):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative, got {jitter}")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self._engine = engine
        self._interval = float(interval)
        self._action = action
        self._jitter = float(jitter)
        self._rng = rng
        self._handle: Optional[EventHandle] = None
        self._stopped = True
        self.ticks = 0
        self._initial_phase = phase

    # ------------------------------------------------------------------
    def _next_gap(self) -> float:
        if self._jitter > 0.0:
            assert self._rng is not None
            gap = self._interval + self._rng.uniform(-self._jitter, self._jitter)
            return max(gap, 1e-9)
        return self._interval

    def _tick(self) -> None:
        if self._stopped:
            return
        self.ticks += 1
        self._action()
        if not self._stopped:  # action may have stopped us
            self._handle = self._engine.schedule(self._next_gap(), self._tick)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin ticking.  Idempotent while running."""
        if not self._stopped:
            return
        self._stopped = False
        first = self._initial_phase if self._initial_phase is not None else self._next_gap()
        self._handle = self._engine.schedule(max(first, 0.0), self._tick)

    def stop(self) -> None:
        """Cancel the pending tick and stop the loop.  Idempotent."""
        self._stopped = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def running(self) -> bool:
        """``True`` between :meth:`start` and :meth:`stop`."""
        return not self._stopped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return f"PeriodicProcess(interval={self._interval}, {state}, ticks={self.ticks})"
