"""Heap-based discrete-event simulation engine.

The engine is intentionally minimal: a priority queue of ``(time,
priority, seq, callback)`` entries and a clock.  Protocol objects
schedule plain callables; there is no process/coroutine machinery to
keep the hot loop cheap (hundreds of thousands of events per run).

Determinism guarantees:

* events at equal times fire in ``(priority, insertion order)`` order;
* cancellation is O(1) and lazy: a cancelled entry stays queued,
  holding no references, until it reaches the head and is skipped;
* the engine itself consumes no randomness.

Besides the heap, the engine can merge events from one attached
**event source** (see :meth:`Engine.attach_source`) — an object that
maintains its own schedule outside the heap (the structure-of-arrays
population engine in ``repro.sim.population``).  The merged execution
order is the exact ``(time, priority, seq)`` total order both would
produce if every source event were a heap entry: sources obtain their
``seq`` values from :meth:`claim_seq`, the same counter heap insertions
consume.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Protocol, Tuple


class SimulationError(RuntimeError):
    """Raised on invalid scheduling (e.g. events in the past)."""


class EventSource(Protocol):
    """An external schedule the engine merges with its heap.

    Implementations keep their own pending-event structure and expose
    it through two methods; the engine interleaves them with heap
    entries in exact ``(time, priority, seq)`` order.
    """

    def peek_key(self) -> Optional[Tuple[float, int, int]]:
        """``(time, priority, seq)`` of the earliest pending event, or
        ``None`` when the source is idle."""

    def run_due(self, limit_key: Optional[Tuple[float, int, int]]) -> int:
        """Execute pending events with key ``< limit_key`` (no limit
        when ``None``) — at least the one :meth:`peek_key` just
        reported, as many more as the source has at hand — advancing
        the engine clock via :meth:`Engine.advance_to` per event.
        Returns the number executed; the engine calls again while the
        source's head still precedes its heap."""


class EventHandle:
    """Cancellable reference to a scheduled event.

    Handles are returned by :meth:`Engine.schedule` /
    :meth:`Engine.schedule_at`.  Calling :meth:`cancel` marks the
    event; the engine skips it when it reaches the head of the queue.
    """

    __slots__ = ("time", "cancelled", "callback", "args")

    def __init__(
        self,
        time: float,
        callback: Callable[..., None],
        args: Tuple[Any, ...],
    ):
        self.time = time
        self.callback: Optional[Callable[..., None]] = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent.  Drops the
        callback and its arguments so a cancelled entry does not pin
        objects alive while it waits to be skipped; the engine does
        the same to an entry it fires."""
        self.cancelled = True
        self.callback = None
        self.args = ()

    @property
    def active(self) -> bool:
        """``True`` while the event is still pending."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time:.3f}, {state})"


class Engine:
    """Discrete-event simulation engine with a float-seconds clock.

    Parameters
    ----------
    start_time:
        Initial value of :attr:`now` (seconds).

    Examples
    --------
    >>> eng = Engine()
    >>> hits = []
    >>> _ = eng.schedule(5.0, hits.append, 1)
    >>> _ = eng.schedule(2.0, hits.append, 2)
    >>> eng.run()
    >>> hits
    [2, 1]
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue: List[Tuple[float, int, int, EventHandle]] = []
        self._seq = 0
        self._events_fired = 0
        self._source: Optional[EventSource] = None

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far (for profiling)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of queue entries, including cancelled ones not yet
        skipped (events held by an attached source are not counted)."""
        return len(self._queue)

    def advance_to(self, time: float) -> None:
        """Move the clock forward to ``time`` without firing anything.

        Event-source API: batch dispatchers advance the clock to each
        event's timestamp before invoking its action, exactly as the
        pop loop does for heap entries.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot advance clock backwards to t={time:.6f} "
                f"from now={self._now:.6f}"
            )
        self._now = time

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``priority`` breaks ties among events at the same time (lower
        fires first); insertion order breaks remaining ties.
        """
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at t={time:.6f} before now={self._now:.6f}"
            )
        handle = EventHandle(time, callback, tuple(args))
        self._seq += 1
        heapq.heappush(self._queue, (time, priority, self._seq, handle))
        return handle

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def restore_clock(
        self,
        now: float,
        seq: Optional[int] = None,
        events_fired: Optional[int] = None,
    ) -> None:
        """Reposition the clock (and optionally the seq/event counters)
        at a checkpointed state.

        Checkpoint-restore API: only valid on an engine whose queue is
        still empty — restore the clock first, then replay pending
        entries with :meth:`restore_event`.
        """
        if self._queue:
            raise SimulationError("restore_clock requires an empty queue")
        self._now = float(now)
        if seq is not None:
            self._seq = int(seq)
        if events_fired is not None:
            self._events_fired = int(events_fired)

    def restore_event(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., None],
        *args: Any,
    ) -> EventHandle:
        """Re-insert a checkpointed pending entry with its **original**
        ``(time, priority, seq)`` key.

        Unlike :meth:`schedule_at` this does not consume a fresh seq —
        the caller restored the counter via :meth:`restore_clock`, and
        every replayed entry must sort exactly where it did in the
        saved run.  ``seq`` must have been claimed before the
        checkpoint (i.e. be ``<=`` the restored counter).
        """
        if seq > self._seq:
            raise SimulationError(
                f"restore_event seq {seq} is ahead of the engine counter "
                f"{self._seq}; restore_clock first"
            )
        handle = EventHandle(time, callback, tuple(args))
        heapq.heappush(self._queue, (time, priority, seq, handle))
        return handle

    def live_entries(self) -> List[Tuple[float, int, int, EventHandle]]:
        """Snapshot of non-cancelled queue entries in heap-key order.

        Checkpoint API: callers map each handle back to the object that
        owns it (periodic process, session round) and persist the
        ``(time, priority, seq)`` key so :meth:`restore_event` can
        replay it bit-identically.  Source-held events are not included
        — the source checkpoints its own schedule.
        """
        return sorted(
            (entry for entry in self._queue if not entry[3].cancelled),
            key=lambda entry: entry[:3],
        )

    def claim_seq(self) -> int:
        """Reserve the next insertion-order slot without a heap entry.

        Event-source API: a source stamps its events with claimed seqs
        so they interleave with heap entries exactly as if each had
        been scheduled individually at the same moment.
        """
        self._seq += 1
        return self._seq

    def attach_source(self, source: EventSource) -> None:
        """Merge ``source``'s events into the execution order.

        Only one source is supported (the population engine); a second
        attach raises.
        """
        if self._source is not None:
            raise SimulationError("an event source is already attached")
        self._source = source

    def next_event_key(self) -> Optional[Tuple[float, int, int]]:
        """``(time, priority, seq)`` of the queue head, or ``None``.

        Cancelled entries at the head are dropped on the way.  Source
        events are not considered.
        """
        queue = self._queue
        while queue and queue[0][3].cancelled:
            heapq.heappop(queue)
        if not queue:
            return None
        time, prio, seq, _handle = queue[0]
        return (time, prio, seq)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _pop_and_fire(self) -> None:
        """Execute the (known-live) queue head."""
        time, _prio, _seq, handle = heapq.heappop(self._queue)
        self._now = time
        callback, args = handle.callback, handle.args
        handle.cancel()
        self._events_fired += 1
        assert callback is not None
        callback(*args)

    def step(self) -> bool:
        """Execute the next pending event (or, with an attached source
        whose head precedes the queue's, one source batch).

        Returns ``False`` when nothing is pending, ``True`` otherwise.
        """
        qkey = self.next_event_key()
        source = self._source
        if source is not None:
            skey = source.peek_key()
            if skey is not None and (qkey is None or skey < qkey):
                fired = source.run_due(qkey)
                self._events_fired += fired
                return fired > 0
        if qkey is None:
            return False
        self._pop_and_fire()
        return True

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events executed by this call.  With an
        attached source, a batch may overshoot ``max_events`` by the
        batch size minus one.
        """
        fired = 0
        while max_events is None or fired < max_events:
            before = self._events_fired
            if not self.step():
                break
            fired += self._events_fired - before
        return fired

    def run_until(self, end_time: float) -> int:
        """Run all events with ``time <= end_time`` and advance the clock.

        The clock is left at exactly ``end_time`` even if the last event
        fired earlier (or no event fired at all).  Returns the number of
        events executed.
        """
        if end_time < self._now:
            raise SimulationError(
                f"run_until({end_time:.6f}) is before now={self._now:.6f}"
            )
        fired = 0
        boundary = (end_time, float("inf"), 0)
        while True:
            qkey = self.next_event_key()
            # Re-read per iteration: the population source attaches
            # lazily, mid-run, at the first peer-online event.
            source = self._source
            if source is not None:
                skey = source.peek_key()
                if (
                    skey is not None
                    and skey[0] <= end_time
                    and (qkey is None or skey < qkey)
                ):
                    limit = qkey if (qkey is not None and qkey < boundary) else boundary
                    batch = source.run_due(limit)
                    self._events_fired += batch
                    fired += batch
                    continue
            if qkey is None or qkey[0] > end_time:
                break
            self._pop_and_fire()
            fired += 1
        self._now = end_time
        return fired

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Engine(now={self._now:.3f}, pending={len(self._queue)})"
