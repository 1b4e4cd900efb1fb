"""Structure-of-arrays population engine: batched protocol ticks.

The straightforward scheduler gives every online peer one
``PeriodicProcess`` heap entry per protocol
loop, so a tick costs a heap pop, a Python callback, a jitter draw and
a heap push — ~12 µs of scheduler machinery per tick before any
protocol work runs.  At a million peers that machinery alone is the
scale ceiling.  ``ProtocolRuntime`` always ticks through this engine;
the per-peer scheduler survives as the tests' reference runtime (the
"object engine" below), together with the runtime's scalar per-peer
gossip ticks.

:class:`PopulationEngine` replaces the per-peer heap entries with
columnar state:

* the ``peer_id ↔ row`` table it shares with the state store, and an
  online flag per row;
* per-protocol ``next_tick`` (float64, ``inf`` = idle) and ``seq``
  (int64 insertion-order stamp) columns;
* a per-protocol block-minimum index (2048-wide blocks) so "earliest
  pending tick" and "all ticks due before H" are resolved by scanning
  block summaries instead of the full population.

Due ticks are selected in bulk (``np.nonzero(next_tick < horizon)``
over candidate blocks), ordered by ``(time, seq)`` with one lexsort,
and kept as the **open window**: a sorted cache of the columns with a
dispatch cursor.  The engine's merge loop hands control back and forth
— ``run_due(limit_key)`` dispatches the window's prefix that precedes
the next heap event and returns, the heap event fires, ``run_due``
resumes at the cursor — so interleaved churn costs a heap pop per
event, not an extraction per event.

**Bit-identity contract.**  The tick schedule — every (time, protocol,
peer) triple, in execution order — is bit-identical to the object
engine's, because each ingredient is replicated exactly:

* *jitter*: all of a peer's loops share one stream, the one
  ``rng.stream("jitter", peer_id)`` would hand out.  No generator is
  kept per peer: each row's PCG64 position (state and increment, as
  hi/lo words; all zero until the row first draws) lives in a uint64
  column.  A scalar refill runs it through one scratch generator; a
  window refills every row it runs past its buffer in one
  :func:`~repro.sim.rng.pcg64_doubles` call, a kernel pinned to
  numpy's draws.  The engine pre-draws raw doubles in chunks
  (``Generator.random(n)`` produces the same doubles as n scalar
  ``uniform`` calls) and computes each gap as ``interval + (-j + (j+j)
  * u)`` — the exact FP operations inside ``Generator.uniform(-j,
  +j)`` — consuming one double per (re)schedule in the same order the
  object engine draws them;
* *ordering*: each scheduled tick is stamped with a sequence number
  from :meth:`Engine.claim_seq` — the same counter heap insertions
  use, claimed at the same moments the object engine would call
  ``engine.schedule`` — so ties against heap events (equal time and
  priority 0) resolve identically;
* *batching — the window invariant*: while a window is open, every
  pending column entry with ``time < horizon`` is in its unexecuted
  part ``[k, n)``, in order.  What is cached: the extracted times,
  seqs, protocols and rows, each entry's precomputed reschedule time,
  and — for the executed prefix — the seq its reschedule claimed; the
  column writes themselves wait for the flush.  The horizon starts at
  ``t0 + G`` (``G`` the smallest possible reschedule gap), so a tick
  rescheduled by the window lands at or past it, never inside.  What
  lowers the horizon: any other column write below it — a peer coming
  online whose first tick is due before ``horizon`` — cuts the window
  back to that time; the dropped tail is still scheduled in the
  columns and the next window merges the newcomer in.  When it closes:
  once spent, or whenever something needs the columns themselves
  (:meth:`PopulationEngine.schedule_state`, a restore) — the executed
  prefix is flushed in one vectorised pass, the rest discarded;
* *mutation safety*: ``peer_online``/``peer_offline`` write the
  columns directly and bump a churn epoch; from then on the window
  revalidates each entry against the columns before dispatching it
  (offline, or no longer holding the extracted time = superseded) and
  each executed entry again in the flush.  An action that schedules a
  heap event cuts the running slice at that event's key so the engine
  can merge it.

A protocol may additionally register a **batch handler** (a fourth
``ProtocolSpec`` element).  Protocols that register the *same handler
object* form one batch group: a maximal run of due entries whose
protocols all belong to the group — in ``(time, seq)`` order, however
the protocols interleave — is handed over in one call,
``handler(times, peer_ids, rows, protocols)``, instead of one action
call per tick; ``protocols`` holds each entry's protocol index (its
position in the spec list).  A run of one entry takes the scalar
action — which may itself be a one-entry call of the handler, as the
runtime's three gossip actions are, so the gossip exchanges have one
definition.  The handler must behave as the scalar actions called entry
by entry in that order, and it owns the per-entry clock
(``engine._now``), but it must not schedule events, claim sequence
numbers or flip peers on/offline — the dispatcher verifies this after
every handler call — so the reschedule draws and sequence claims the
dispatcher performs afterwards land in the same stream positions the
scalar loop would have used.  ``batch_calls`` in :meth:`telemetry`
counts the dispatcher's handler calls (runs of two or more).

``tests/test_sim_population.py`` enforces the contract end-to-end
against the reference runtime, whose per-peer processes drive the
scalar gossip ticks the handler replaces.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.core.checkpoint import take
from repro.core.columnar import RowTable
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry, pcg64_doubles

_INF = float("inf")
_MASK64 = (1 << 64) - 1
#: Block width of the per-protocol minimum index (power of two).
_BLOCK_SHIFT = 11
_BLOCK = 1 << _BLOCK_SHIFT
#: Raw jitter doubles pre-drawn per peer per refill.  Over-drawing is
#: invisible: nothing but this scheduler reads a peer's jitter stream.
_JITTER_CHUNK = 16

#: Batched protocol handler: ``batch_action(times, peer_ids, rows,
#: protocols)`` for one ordered run of due ticks across the protocols
#: registering this handler object.  Contract: set ``engine._now`` per
#: entry, and never schedule events, claim sequence numbers or flip
#: peers on/offline (verified at dispatch).
BatchAction = Callable[[List[float], List[str], List[int], List[int]], None]
#: One protocol loop: ``(name, interval_seconds, action(peer_id))``,
#: optionally extended with a batch handler as a fourth element.
ProtocolSpec = Union[
    Tuple[str, float, Callable[[str], None]],
    Tuple[str, float, Callable[[str], None], BatchAction],
]


class _Window:
    """The open tick window: every tick the columns held in ``[t0,
    horizon)`` when it was extracted, in ``(time, seq)`` order, plus
    the dispatch cursor and the executed prefix's deferred reschedules.
    A cache of the columns, never the truth: entries ``[k, n)`` are
    still scheduled there and may be dropped at any time."""

    __slots__ = (
        "horizon", "epoch", "t_arr", "p_arr", "r_arr", "t", "s", "p", "row",
        "when", "advanced", "spare", "claimed", "left", "k", "n", "fired",
    )

    def __init__(
        self,
        horizon: float,
        epoch: int,
        times: np.ndarray,
        seqs: np.ndarray,
        protos: np.ndarray,
        rows: np.ndarray,
        when: List[float],
        advanced: Optional[np.ndarray],
        spare: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ):
        #: every pending column entry below this time is in ``[k, n)``
        self.horizon = horizon
        #: churn epoch at extraction; a later one means revalidate
        self.epoch = epoch
        self.t_arr, self.p_arr, self.r_arr = times, protos, rows
        #: hot-loop views (scalar list reads beat numpy scalar reads)
        self.t: List[float] = times.tolist()
        self.s: List[int] = seqs.tolist()
        self.p: List[int] = protos.tolist()
        self.row: List[int] = rows.tolist()
        #: precomputed reschedule time per entry
        self.when = when
        #: per entry: its jitter draw already moved the peer's cursor
        #: (reconciled by ``peer_online``), so the flush must not;
        #: ``None`` = no jitter
        self.advanced = advanced
        #: ``(rows, chunks, state words)``: the next jitter chunk of
        #: every row whose draws this window run past its buffer, for
        #: the flush to install if they did; ``None`` = no such row
        self.spare = spare
        #: per entry: seq claimed for its reschedule; 0 = executed but
        #: went offline during its action; -1 = pending or skipped
        self.claimed = [-1] * len(self.t)
        #: rows that went offline under this window — the only ones a
        #: ``peer_online`` may have to reconcile a jitter cursor for
        self.left: set = set()
        self.k = 0
        self.n = len(self.t)
        #: ticks executed so far
        self.fired = 0

    def prefix_end(self, lo: int, hi: int, limit_key: Tuple[float, int, int]) -> int:
        """End of the run of entries in ``[lo, hi)`` whose ``(time, 0,
        seq)`` key precedes ``limit_key``."""
        limit_time = limit_key[0]
        end = bisect_left(self.t, limit_time, lo, hi)
        limit_tail = limit_key[1:]
        t, s = self.t, self.s
        while end < hi and t[end] == limit_time and (0, s[end]) < limit_tail:
            end += 1
        return end


class PopulationEngine:
    """Columnar peer state plus the batch tick scheduler.

    Attach to an :class:`~repro.sim.engine.Engine` via
    ``engine.attach_source(pop)``; the engine merges the population's
    ticks with its heap in exact ``(time, priority, seq)`` order.
    Protocol ticks run at priority 0, like the reference runtime's
    ``PeriodicProcess`` callbacks.
    """

    def __init__(
        self,
        engine: Engine,
        rng: RngRegistry,
        protocols: Sequence[ProtocolSpec],
        jitter_fraction: float = 0.0,
        rows: Optional[RowTable] = None,
    ):
        if not protocols:
            raise ValueError("need at least one protocol loop")
        if not (0.0 <= jitter_fraction < 1.0):
            raise ValueError("jitter_fraction must be in [0, 1)")
        self._engine = engine
        self._registry = rng
        self._names = [spec[0] for spec in protocols]
        self._intervals = [float(spec[1]) for spec in protocols]
        self._actions = [spec[2] for spec in protocols]
        self._batch_actions: List[Optional[BatchAction]] = [
            spec[3] if len(spec) > 3 else None for spec in protocols
        ]
        #: per protocol: its batch group — the first protocol index
        #: registering the same handler object — or -1 for none
        self._group = [
            -1 if h is None
            else next(q for q, o in enumerate(self._batch_actions) if o is h)
            for h in self._batch_actions
        ]
        #: per group: its member protocols (for the tick counters)
        self._members = {
            g: [p for p, gp in enumerate(self._group) if gp == g]
            for g in set(self._group) - {-1}
        }
        self._any_batch = bool(self._members)
        if min(self._intervals) <= 0:
            raise ValueError("intervals must be positive")
        self._jf = float(jitter_fraction)
        #: per-protocol half-width j and full span (j + j == 2j exactly)
        self._jit_half = [ival * self._jf for ival in self._intervals]
        self._jit_span = [j + j for j in self._jit_half]
        #: interval, -j and 2j per protocol as float64 arrays, for the
        #: vectorised per-batch gap computation (bit-identical ops)
        self._iv_arr = np.array(self._intervals, dtype=np.float64)
        self._neg_half_arr = -np.array(self._jit_half, dtype=np.float64)
        self._span_arr = np.array(self._jit_span, dtype=np.float64)
        #: smallest possible reschedule gap — the batch-horizon bound
        self._min_gap = min(
            ival - j for ival, j in zip(self._intervals, self._jit_half)
        )
        assert self._min_gap > 0.0

        n_protocols = len(protocols)
        self._capacity = 0
        #: ``peer_id ↔ row``, usually shared: the columnar state store
        #: keys its columns by the same rows, and may append rows,
        #: which ``_sync_rows`` adopts lazily.
        self.rows = rows if rows is not None else RowTable()
        #: Python list, not numpy: the hot loop reads one flag per tick
        #: and scalar list reads are several times cheaper.
        self._online: List[bool] = []
        self._next: List[np.ndarray] = [
            np.zeros(0, dtype=np.float64) for _ in range(n_protocols)
        ]
        self._seq: List[np.ndarray] = [
            np.zeros(0, dtype=np.int64) for _ in range(n_protocols)
        ]
        self._bmin: List[np.ndarray] = [
            np.zeros(0, dtype=np.float64) for _ in range(n_protocols)
        ]
        #: per-peer pre-drawn jitter doubles (one chunk buffer per
        #: row), cursors (== _JITTER_CHUNK ⇒ buffer empty), and each
        #: row's jitter stream position after its last refill: PCG64
        #: state hi/lo, increment hi/lo (all zero = never drawn; an
        #: increment is odd)
        self._jit_buf = np.zeros((0, _JITTER_CHUNK), dtype=np.float64)
        self._jit_pos = np.zeros(0, dtype=np.int64)
        self._jit_state = np.zeros((0, 4), dtype=np.uint64)
        #: the one generator every refill draws through
        self._scratch = np.random.Generator(np.random.PCG64(0))

        #: telemetry
        self.ticks_by_protocol = [0] * n_protocols
        self.batches = 0
        self.max_batch_size = 0
        #: batch-handler calls (each carries a run of >= 2 entries)
        self.batch_calls = 0

        #: online/offline flips bump this; a window extracted under an
        #: older epoch revalidates its entries against the columns
        self._churn_epoch = 0
        #: the open tick window (``None`` between windows) and whether
        #: :meth:`run_due` is on the stack (i.e. we are inside an action)
        self._win: Optional[_Window] = None
        self._dispatching = False

    # ------------------------------------------------------------------
    # Peer lifecycle
    # ------------------------------------------------------------------
    def _grow(self, needed: int) -> None:
        new_cap = max(self._capacity * 2, 1024)
        while new_cap < needed:
            new_cap *= 2
        n_blocks = (new_cap + _BLOCK - 1) >> _BLOCK_SHIFT

        def _resize(arr: np.ndarray, fill: object, dtype) -> np.ndarray:
            out = np.full(new_cap, fill, dtype=dtype)
            out[: arr.size] = arr
            return out

        self._jit_pos = _resize(self._jit_pos, _JITTER_CHUNK, np.int64)
        for name in ("_jit_buf", "_jit_state"):
            old = getattr(self, name)
            grown = np.zeros((new_cap, old.shape[1]), dtype=old.dtype)
            grown[: old.shape[0]] = old
            setattr(self, name, grown)
        for p in range(len(self._next)):
            self._next[p] = _resize(self._next[p], _INF, np.float64)
            self._seq[p] = _resize(self._seq[p], 0, np.int64)
            bmin = np.full(n_blocks, _INF, dtype=np.float64)
            bmin[: self._bmin[p].size] = self._bmin[p]
            self._bmin[p] = bmin
        self._capacity = new_cap

    def _sync_rows(self) -> None:
        """Adopt rows appended to a shared row table by other
        components (the columnar state store assigns rows to peers the
        scheduler has not seen yet): pad the per-peer lists and grow
        the columns to cover every assigned row."""
        n = len(self.rows)
        if n > self._capacity:
            self._grow(n)
        online = self._online
        while len(online) < n:
            online.append(False)

    def peer_online(self, peer_id: str, now: float) -> None:
        """Start the peer's protocol loops (idempotent while online).

        Draw order matches the object engine's ``proc.start()`` loop:
        per protocol, one jitter draw then one sequence claim.
        """
        row = self.rows.row(peer_id)
        if len(self._online) != len(self.rows):
            self._sync_rows()
        if self._online[row]:
            return
        if self._win is not None and row in self._win.left:
            self._reconcile_cursor(self._win, row)
        self._online[row] = True
        for p in range(len(self._actions)):
            self._schedule(p, row, now)
        self._churn_epoch += 1

    def peer_offline(self, peer_id: str) -> None:
        """Stop the peer's loops (idempotent while offline)."""
        row = self.rows.get(peer_id)
        if row is None or row >= len(self._online) or not self._online[row]:
            return
        self._online[row] = False
        for col in self._next:
            # Raising an entry leaves its block minimum stale-low;
            # ``_true_min`` self-corrects by refreshing empty blocks.
            col[row] = _INF
        if self._win is not None:
            self._win.left.add(row)
        self._churn_epoch += 1

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _draw(self, row: int) -> float:
        """Next raw jitter double for the peer (chunked pre-draw)."""
        pos = int(self._jit_pos[row])
        if pos >= _JITTER_CHUNK:
            self._refill(row)
            pos = 0
        self._jit_pos[row] = pos + 1
        return float(self._jit_buf[row, pos])

    def _refill(self, row: int) -> None:
        """Draw the peer's next chunk: its stream position goes into
        the scratch generator, the chunk comes out, and so does the
        advanced position.  A row that never drew starts where
        ``rng.stream("jitter", peer_id)`` would (the runtime primes
        those seeds for the whole trace)."""
        words = self._jit_state[row]
        s_hi, s_lo, i_hi, i_lo = words.tolist()
        if i_lo:
            state, inc = (s_hi << 64) | s_lo, (i_hi << 64) | i_lo
        else:
            state, inc = self._registry.start_state("jitter", self.rows.ids[row])
        bits = self._scratch.bit_generator
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        self._jit_buf[row] = self._scratch.random(_JITTER_CHUNK)
        state = bits.state["state"]["state"]
        words[:] = (state >> 64, state & _MASK64, inc >> 64, inc & _MASK64)

    def _reconcile_cursor(self, win: _Window, row: int) -> None:
        """A peer is restarting while the window is open.  Draws the
        window consumed for this row have not advanced its jitter
        cursor yet (the flush does that), so advance it now — the fresh
        ``_schedule`` draw must continue the stream — and mark those
        entries so the flush does not advance it twice.  Draws that ran
        past the buffer read the window's spare chunk, which the
        scalar refill draws again from the same stream position."""
        if win.advanced is None:
            return  # no jitter, no cursors
        consumed = [
            k
            for k in np.nonzero(win.r_arr[: win.n] == row)[0].tolist()
            if win.claimed[k] > 0 and not win.advanced[k]
        ]
        if consumed:
            pos = int(self._jit_pos[row]) + len(consumed)
            if pos > _JITTER_CHUNK:
                self._refill(row)
                pos -= _JITTER_CHUNK
            self._jit_pos[row] = pos
            win.advanced[consumed] = True

    def _schedule(self, p: int, row: int, base: float) -> None:
        """Schedule protocol ``p``'s next tick for ``row`` after
        ``base`` — one jitter draw (if jittered) then one seq claim,
        the object engine's exact operation order.  A tick that lands
        below the open window's horizon lowers the horizon to it: the
        window's tail from that time on is dropped (it stays scheduled
        in the columns) so the next window merges the newcomer in."""
        interval = self._intervals[p]
        if self._jf > 0.0:
            u = self._draw(row)
            gap = interval + ((-self._jit_half[p]) + self._jit_span[p] * u)
            gap = max(gap, 1e-9)
        else:
            gap = interval
        seq = self._engine.claim_seq()
        when = base + gap
        self._next[p][row] = when
        self._seq[p][row] = seq
        bmin = self._bmin[p]
        block = row >> _BLOCK_SHIFT
        if when < bmin[block]:
            bmin[block] = when
        win = self._win
        if win is not None and when < win.horizon:
            win.horizon = when
            win.n = bisect_left(win.t, when, 0, win.n)

    # ------------------------------------------------------------------
    # Event-source interface (engine merge loop)
    # ------------------------------------------------------------------
    def _true_min(self) -> Optional[float]:
        """Exact earliest pending tick time, refreshing stale block
        minima (raised entries) along the way."""
        while True:
            t0 = _INF
            for bmin in self._bmin:
                if bmin.size:
                    m = bmin.min()
                    if m < t0:
                        t0 = m
            if t0 == _INF:
                return None
            found = False
            for p, bmin in enumerate(self._bmin):
                col = self._next[p]
                for block in np.nonzero(bmin == t0)[0]:
                    lo = int(block) << _BLOCK_SHIFT
                    actual = col[lo : lo + _BLOCK].min()
                    if actual > bmin[block]:
                        bmin[block] = actual
                    if actual == t0:
                        found = True
            if found:
                return float(t0)

    def _open_window(self) -> Optional[_Window]:
        """Extract, sort and pre-compute every tick in ``[t0, t0 +
        min_gap)`` — one block scan, one lexsort, one gap prepass."""
        t0 = self._true_min()
        if t0 is None:
            return None
        horizon = t0 + self._min_gap
        times_parts: List[np.ndarray] = []
        seq_parts: List[np.ndarray] = []
        proto_parts: List[np.ndarray] = []
        row_parts: List[np.ndarray] = []
        for p, bmin in enumerate(self._bmin):
            col = self._next[p]
            seqs = self._seq[p]
            for block in np.nonzero(bmin < horizon)[0]:
                lo = int(block) << _BLOCK_SHIFT
                span = col[lo : lo + _BLOCK]
                offs = np.nonzero(span < horizon)[0]
                if offs.size:
                    rows = lo + offs
                    times_parts.append(span[offs])
                    seq_parts.append(seqs[rows])
                    row_parts.append(rows)
                    proto_parts.append(np.full(offs.size, p, dtype=np.int64))
        times = np.concatenate(times_parts)
        seqs = np.concatenate(seq_parts)
        rows = np.concatenate(row_parts)
        protos = np.concatenate(proto_parts)
        order = np.lexsort((seqs, times))
        times = times[order]
        protos = protos[order]
        rows = rows[order]
        when_list, advanced, spare = self._prepare_batch(times, protos, rows)
        win = _Window(
            horizon, self._churn_epoch, times, seqs[order], protos, rows,
            when_list, advanced, spare,
        )
        self._win = win
        return win

    def _prepare_batch(
        self,
        times: np.ndarray,
        protos: np.ndarray,
        rows: np.ndarray,
    ) -> Tuple[
        List[float],
        Optional[np.ndarray],
        Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    ]:
        """Vectorised pre-computation of each entry's reschedule time.

        The gap arithmetic runs elementwise in float64 — the exact
        operations of the scalar path, so the times are bit-identical
        — and each entry's jitter double is gathered at ``cursor +
        occurrence-within-window`` without advancing any cursor (the
        flush advances cursors only for draws the window actually
        consumed).  A peer whose draws run past its buffer has its next
        chunk drawn here, for all such peers in one
        :func:`~repro.sim.rng.pcg64_doubles` call, and the draws past
        the buffer read it; the flush installs it — doubles and stream
        position — only if the window consumed into it, so the columns
        end as the scalar refill would leave them.  Every row with a
        pending tick has drawn (its first tick's jitter), so its
        stream position is set.
        """
        m = rows.size
        if self._jf == 0.0:
            when = times + self._iv_arr[protos]
            return when.tolist(), None, None
        order = np.argsort(rows, kind="stable")
        rs = rows[order]
        newgrp = np.empty(m, dtype=bool)
        newgrp[0] = True
        newgrp[1:] = rs[1:] != rs[:-1]
        idx = np.arange(m)
        occ_sorted = idx - np.maximum.accumulate(np.where(newgrp, idx, 0))
        starts = np.nonzero(newgrp)[0]
        counts = np.diff(np.append(starts, m))
        pos = self._jit_pos[rs] + occ_sorted
        inside = pos < _JITTER_CHUNK
        u_sorted = np.empty(m, dtype=np.float64)
        u_sorted[inside] = self._jit_buf[rs[inside], pos[inside]]
        spare = None
        if not inside.all():
            past = self._jit_pos[rs[starts]] + counts > _JITTER_CHUNK
            spare_rows = rs[starts[past]]
            chunks, states = pcg64_doubles(self._jit_state[spare_rows], _JITTER_CHUNK)
            spare = (spare_rows, chunks, states)
            chunk_of = np.repeat(np.cumsum(past) - 1, counts)
            out = ~inside
            u_sorted[out] = chunks[chunk_of[out], pos[out] - _JITTER_CHUNK]
        u = np.empty(m, dtype=np.float64)
        u[order] = u_sorted
        gap = self._iv_arr[protos] + (
            self._neg_half_arr[protos] + self._span_arr[protos] * u
        )
        when = times + np.maximum(gap, 1e-9)
        return when.tolist(), np.zeros(m, dtype=bool), spare

    def _head(self) -> Optional[_Window]:
        """The open window with its cursor on a live entry — skipping
        entries churn superseded, and opening the next window once this
        one is spent.  ``None`` when no tick is pending."""
        while True:
            win = self._win
            if win is None:
                win = self._open_window()
                if win is None:
                    return None
            k = win.k
            n = win.n
            if self._churn_epoch != win.epoch:
                t_list, p_list, row_list = win.t, win.p, win.row
                online = self._online
                nexts = self._next
                while k < n and (
                    not online[row_list[k]]
                    or nexts[p_list[k]][row_list[k]] != t_list[k]
                ):
                    k += 1
                win.k = k
            if k < n:
                return win
            self._close_window()

    def peek_key(self) -> Optional[Tuple[float, int, int]]:
        """``(time, priority, seq)`` of the earliest pending tick: the
        open window's head."""
        win = self._head()
        if win is None:
            return None
        return (win.t[win.k], 0, win.s[win.k])

    def run_due(self, limit_key: Optional[Tuple[float, int, int]]) -> int:
        """Dispatch the open window's ticks whose key precedes
        ``limit_key`` (all of them when ``None``), advancing the clock
        per tick, and hand back to the engine; returns the number of
        ticks executed.  The engine calls again — resuming at the
        cursor, or on the next window — while ``peek_key()`` still
        precedes its heap.

        This is the per-tick hot loop, and everything hoistable has
        been hoisted: reschedule times come precomputed from
        :meth:`_prepare_batch` (bit-identical float ops), and all
        column scatters — ``next_tick``, ``seq``, the block minima,
        the jitter cursors — are deferred to one flush when the window
        closes.  Per tick the loop runs the action, claims a sequence
        number and records it; on a window no churn has touched,
        nothing reads numpy.

        Deferral is sound because an executed entry's columns are only
        read again after the flush: a peer cannot recur within a
        window (the horizon bound), and whatever scans the columns
        closes the window first.  Heap events between two calls may
        flip peers on/offline; ``peer_online``/``peer_offline`` write
        their columns directly, so an entry they superseded no longer
        holds its extracted time — pending entries are revalidated
        against the columns here, executed ones in the flush.
        """
        win = self._head()
        if win is None:
            return 0
        t_list, s_list, p_list, row_list = win.t, win.s, win.p, win.row
        claimed = win.claimed
        k = win.k
        end = win.n if limit_key is None else win.prefix_end(k, win.n, limit_key)
        engine = self._engine
        online = self._online
        nexts = self._next
        actions = self._actions
        batch_actions = self._batch_actions
        group = self._group
        members = self._members
        any_batch = self._any_batch
        ids = self.rows.ids
        ticks = self.ticks_by_protocol
        epoch = win.epoch
        eseq = engine._seq
        skipped = 0
        clock_checked = False
        first = k
        self._dispatching = True
        try:
            while k < end:
                t = t_list[k]
                p = p_list[k]
                row = row_list[k]
                if self._churn_epoch != epoch:
                    if end > win.n:
                        end = win.n  # an action lowered the horizon
                        continue
                    if not online[row] or nexts[p][row] != t:
                        # A peer flipped on/offline since extraction and
                        # superseded (or cancelled) this entry.
                        skipped += 1
                        k += 1
                        continue
                if any_batch and group[p] >= 0:
                    # Maximal run of live entries of this batch group,
                    # protocols interleaved as they fall due — hand it
                    # to the group's handler in one call.  The
                    # handler's contract (no scheduling, no seq claims,
                    # no churn) means the reschedule draws and seq
                    # claims below land exactly where the scalar loop
                    # would have put them.
                    g = group[p]
                    j = k + 1
                    if self._churn_epoch == epoch:
                        while j < end and group[p_list[j]] == g:
                            j += 1
                    else:
                        while (
                            j < end
                            and group[p_list[j]] == g
                            and online[row_list[j]]
                            and nexts[p_list[j]][row_list[j]] == t_list[j]
                        ):
                            j += 1
                    if j - k >= 2:
                        if not clock_checked:
                            engine.advance_to(t)
                            clock_checked = True
                        churn_before = self._churn_epoch
                        run_protos = p_list[k:j]
                        batch_actions[g](
                            t_list[k:j],
                            [ids[r] for r in row_list[k:j]],
                            row_list[k:j],
                            run_protos,
                        )
                        self.batch_calls += 1
                        if engine._seq != eseq or self._churn_epoch != churn_before:
                            raise RuntimeError(
                                "batch protocol handler violated its "
                                "contract: it must not schedule events, "
                                "claim sequence numbers, or change peer "
                                "online status"
                            )
                        claimed[k:j] = range(eseq + 1, eseq + 1 + j - k)
                        eseq += j - k
                        engine._seq = eseq
                        for q in members[g]:
                            ticks[q] += run_protos.count(q)
                        k = j
                        continue
                # Inline advance_to: entries are time-sorted, so only
                # the call's first executed tick needs the backwards
                # check.
                if clock_checked:
                    engine._now = t
                else:
                    engine.advance_to(t)
                    clock_checked = True
                actions[p](ids[row])
                ticks[p] += 1
                seq_now = engine._seq
                action_claimed = seq_now != eseq
                if online[row]:
                    eseq = seq_now + 1
                    engine._seq = eseq
                    claimed[k] = eseq
                else:
                    # Went offline during its own action: consumed
                    # already (``peer_offline`` raised the column to
                    # inf), and the object engine's stopped process
                    # draws nothing.
                    eseq = seq_now
                    claimed[k] = 0
                k += 1
                if action_claimed and k < end:
                    # The action scheduled (or claimed seqs for)
                    # something; a new heap event may now precede part
                    # of the slice.  Cut the slice there: the engine's
                    # merge fires the event and resumes at the cursor.
                    qkey = engine.next_event_key()
                    if qkey is not None and (limit_key is None or qkey < limit_key):
                        limit_key = qkey
                        end = win.prefix_end(k, min(end, win.n), qkey)
        finally:
            self._dispatching = False
            win.k = k
            count = k - first - skipped
            if count:
                if win.fired == 0:
                    self.batches += 1
                win.fired += count
                if win.fired > self.max_batch_size:
                    self.max_batch_size = win.fired
        return count

    def _close_window(self) -> None:
        """Flush the open window's executed prefix into the columns —
        reschedule times, seqs, block minima, jitter cursors and the
        spare chunks the window drew into, in one vectorised pass — and
        drop the window; its unexecuted tail is only a cache of the
        columns.

        Each write is revalidated against the column: churn after an
        entry executed superseded its reschedule (the column no longer
        holds the extracted time), though the jitter draw it consumed
        still counts — unless ``advanced`` says the cursor moved
        already (reconciled by ``peer_online``).
        """
        win = self._win
        self._win = None
        if win is None or win.fired == 0:
            return
        c = win.k
        claimed = np.array(win.claimed[:c], dtype=np.int64)
        when = np.array(win.when[:c], dtype=np.float64)  # None -> nan
        done = claimed > 0  # executed and rescheduled
        t_arr = win.t_arr[:c]
        p_arr = win.p_arr[:c]
        r_arr = win.r_arr[:c]
        for p, col in enumerate(self._next):
            sel = np.nonzero(done & (p_arr == p))[0]
            sel = sel[col[r_arr[sel]] == t_arr[sel]]
            if not sel.size:
                continue
            r = r_arr[sel]
            w = when[sel]
            col[r] = w
            self._seq[p][r] = claimed[sel]
            # block minima: per-block group-min via one sort + reduceat
            blocks = r >> _BLOCK_SHIFT
            o = np.argsort(blocks, kind="stable")
            b = blocks[o]
            newb = np.empty(b.size, dtype=bool)
            newb[0] = True
            newb[1:] = b[1:] != b[:-1]
            starts = np.nonzero(newb)[0]
            mins = np.minimum.reduceat(w[o], starts)
            bmin = self._bmin[p]
            ub = b[starts]
            bmin[ub] = np.minimum(bmin[ub], mins)
        if win.advanced is not None:
            np.add.at(self._jit_pos, r_arr[done & ~win.advanced[:c]], 1)
        if win.spare is not None:
            # Rows whose consumed draws ran past their buffer take the
            # spare chunk and the stream position after it.  (A row
            # reconciled mid-window refilled itself; its cursor is back
            # inside a chunk.)
            rows, chunks, states = win.spare
            past = np.nonzero(self._jit_pos[rows] > _JITTER_CHUNK)[0]
            if past.size:
                r = rows[past]
                self._jit_buf[r] = chunks[past]
                self._jit_state[r, :2] = states[past]
                self._jit_pos[r] -= _JITTER_CHUNK

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def schedule_state(self) -> Dict[str, object]:
        """The scheduler's full pending state: scalars plus copies of
        the columns (trimmed to the assigned rows) as arrays.

        Pairs with :meth:`restore_schedule_state`: restoring it (plus
        the row table, saved separately) replays the remaining run
        bit-identically — per-row next-tick times and seqs, the
        pre-drawn jitter buffers with their cursors and stream
        positions, online flags, and the telemetry
        counters.  ``jit_state`` is in the layout of a checkpoint's
        per-peer ``rng.<family>`` arrays (``[rows, 6]``: state hi/lo,
        increment hi/lo, then the two buffered-uint32 fields, which
        doubles never touch and so stay 0); an all-zero row has never
        drawn.  Closes the open window first (the columns are the
        checkpoint; the window is re-extracted on the next peek), so
        the only time this cannot run is from inside a tick's own
        action.
        """
        if self._dispatching:
            raise RuntimeError("cannot checkpoint mid-batch")
        self._close_window()
        if len(self._online) != len(self.rows):
            self._sync_rows()
        n = len(self.rows)
        return {
            "names": list(self._names),
            "rows": n,
            "online": np.array(self._online, dtype=np.bool_),
            "next": np.stack([col[:n] for col in self._next]),
            "seq": np.stack([col[:n] for col in self._seq]),
            "jit_pos": self._jit_pos[:n].copy(),
            "jit_buf": self._jit_buf[:n].copy(),
            "jit_state": np.pad(self._jit_state[:n], ((0, 0), (0, 2))),
            "ticks_by_protocol": list(self.ticks_by_protocol),
            "batches": self.batches,
            "max_batch_size": self.max_batch_size,
            "batch_calls": self.batch_calls,
        }

    def restore_schedule_state(self, state: Dict[str, object]) -> None:
        """Adopt a :meth:`schedule_state` snapshot.

        The row table must already hold exactly the snapshot's rows
        (the state store's load restores a shared table; a scheduler
        with a table of its own gets the ids from its caller), so
        restored row numbers equal saved ones; block minima are rebuilt
        from the restored columns, and the jitter stream positions
        come back as words: no generator is built.  A ``jit_state`` row
        with a buffered uint32 is refused — a double draw would discard
        it, so no jitter stream of this engine ever holds one.
        """
        names = list(state["names"])  # type: ignore[arg-type]
        if names != self._names:
            raise ValueError(
                f"protocol mismatch: checkpoint has {names}, engine has "
                f"{self._names}"
            )
        n = int(state["rows"])  # type: ignore[arg-type]
        if len(self.rows) != n:
            raise ValueError(
                f"row mismatch on restore: the row table holds "
                f"{len(self.rows)} rows, checkpoint expects {n}"
            )
        self._sync_rows()
        n_protocols = len(self._next)
        self._online[:] = take(state, "online", np.bool_, n).tolist()
        nexts = take(state, "next", np.float64, n_protocols, n)
        seqs = take(state, "seq", np.int64, n_protocols, n)
        for p in range(n_protocols):
            self._next[p][:n] = nexts[p]
            self._seq[p][:n] = seqs[p]
            # Rebuild the block minima from the restored column (the
            # tail beyond n is _INF from _grow).
            col = self._next[p]
            starts = np.arange(0, col.size, _BLOCK)
            mins = np.minimum.reduceat(col, starts) if col.size else col
            self._bmin[p][: mins.size] = mins
        self._jit_pos[:n] = take(state, "jit_pos", np.int64, n)
        self._jit_buf[:n] = take(state, "jit_buf", np.float64, n, _JITTER_CHUNK)
        words = take(state, "jit_state", np.uint64, n, 6)
        buffered = np.nonzero(words[:, 4:].any(axis=1))[0]
        if buffered.size:
            raise ValueError(
                f"jit_state: row {int(buffered[0])} holds a buffered uint32, "
                "which no jitter stream can have"
            )
        self._jit_state[:n] = words[:, :4]
        self.ticks_by_protocol = [int(t) for t in state["ticks_by_protocol"]]  # type: ignore[union-attr]
        self.batches = int(state["batches"])  # type: ignore[arg-type]
        self.max_batch_size = int(state["max_batch_size"])  # type: ignore[arg-type]
        self.batch_calls = int(state.get("batch_calls", 0))  # type: ignore[arg-type]
        self._win = None  # a cache of the columns just overwritten
        self._churn_epoch += 1

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Measured retained footprint of the scheduler's columns: the
        per-protocol next/seq/block-min arrays, the jitter buffers,
        cursors and stream positions, the online flags, and the container
        overhead of the Python-side bookkeeping (peer id strings are
        shared with the row table and excluded, matching the accounting
        line the state store draws)."""
        total = self._jit_buf.nbytes + self._jit_pos.nbytes + self._jit_state.nbytes
        for cols in (self._next, self._seq, self._bmin):
            total += sys.getsizeof(cols)
            for arr in cols:
                total += arr.nbytes
        return total + sys.getsizeof(self._online)

    def telemetry(self) -> Dict[str, object]:
        """Counters for ``run_summary()``: population size, online
        count, ticks dispatched per protocol, batch shape, and the
        scheduler columns' measured footprint.

        Batch shape: ``batches`` counts tick windows (``mean_batch_size``
        and ``max_batch_size`` are ticks per window), ``batch_calls``
        the batch-handler calls that carried a window's runs — every
        other tick was a scalar action call."""
        ticks = sum(self.ticks_by_protocol)
        peers_online = sum(self._online)
        return {
            "peers_total": len(self.rows),
            "peers_online": peers_online,
            "ticks": ticks,
            "batches": self.batches,
            "mean_batch_size": (ticks / self.batches) if self.batches else 0.0,
            "max_batch_size": self.max_batch_size,
            "batch_calls": self.batch_calls,
            "ticks_by_protocol": dict(zip(self._names, self.ticks_by_protocol)),
            "scheduler_memory_bytes": self.memory_bytes(),
        }
