"""The gossip batch: a run of due ModerationCast, BallotBox and
BarterCast ticks, as named stages.

The three protocols are one ``do forever: wait Δ; p ← PSS.sample();
exchange`` loop (Figs 1 and 3 a).  The SoA engine hands
``ProtocolRuntime._vote_tick_batch`` a time-ordered run of due entries
across the three loops, ``(times, pids, rows, protos)``, and the
handler takes it through five stages over one :class:`GossipRun`:

1. :func:`draw` — a vote entry spans ``vote_fanout`` *slots*, every
   other entry one, and one ``sample_batch`` over the slots'
   requesters draws every candidate.  The PSS stream and the
   message-loss stream are separate generators, so drawing every PSS
   value first walks the PSS stream as the per-entry calls would:
   vectorised for the oracle, the scalar loop for Newscast, whose
   views change only in Newscast ticks and churn, never inside a run.
2. :func:`connect` — in entry order, a moderation or vote candidate
   that is offline is no exchange, a connectable one draws its loss,
   and a surviving partner's node is created.  A vote entry keeps each
   partner once (the scalar ``seen`` dedup) and gates its partner set
   with one forward ``experienced_many`` call.  BarterCast slots take
   their draw as is.
3. :func:`plan` — from :data:`_PREPASS_FROM` vote slots a run, one
   gather per direction over ``vl_size``, ``bb_unique``, the behaviour
   rows and the gate columns proves most slots inert: no votes on
   either side, no VoxPopuli candidate, an all-accepting gate, no
   behaviour row.  A slot whose only work is merging (a column
   fast-path gate, no VoxPopuli candidate, no behaviour row, no
   above-cap draw) queues its forward then reverse merge as rows
   ``(owner, voter, segment, time)`` for the store's ``bb_merge_run``.
   Neither kind is visited.  A shorter run visits every exchange.
4. :func:`exchange` — one loop over the visited slots in entry order:
   moderation through the node API, BarterCast through
   ``gossip_with``, the vote exchange row to row over the columns.
   Before a vote slot, the queued merges of earlier slots settle, so
   its merges and VoxPopuli reads (``bb_unique``, ``respond_top_k``)
   see them.
5. :func:`finish` — settle the rest of the queue, fold its
   ``votes_merged`` per receiving node, set the clock to the last
   entry, and make one ``*_exchange_many`` call per protocol.

**The vote exchange** takes the forward verdict before vote selection
and the reverse verdict after this node's merge, as the scalar
exchange orders them.  Both lists are read live in the store's wire
form (interned moderators, own id dropped, exchange order; a stale
list is repacked on first use), so a merge is a pool segment handed to
the store — no ``VoteEntry``, no id string, no per-vote work.  Above
the cap each honest side draws its selection, ours first, whatever the
verdicts; a node's ``rng`` feeds over-budget moderation extracts too,
so the two interleave as they would scalar.

**Why the plan may skip.**  Box occupancy only grows while votes
merge, so a slot at or above ``B_min`` never re-enters bootstrap; an
accepted empty exchange touches only the aggregate counters; and a
vote list changes mid-run only when a moderation exchange fires a vote
intention.  Hence the cast rule: a vote slot is visited if and only if
the plan marked it or it touches a row cast on earlier in the run, and
such a slot's queued merges leave the queue.  A cast finds its rows'
later slots in a row index built once, at the run's first cast, never
by a pass over the rest of the run.  Every selection policy sends
``min(vl_size, cap)`` entries, so an unvisited slot's traffic is the
plan's count.

**Behaviour rows.**  A flash-crowd row
(``ProtocolRuntime.add_crowd_member``) ships the crowd's constant list
with no selection draw — the honest receiver applies the
receiver-side cap and counts ``votes_truncated`` — merges and counts
nothing it is sent, never bootstraps, and answers VoxPopuli with the
constant top-K, leaving ``vp_requests_*`` alone.  Both verdicts are
still taken, and the plan visits every such slot.

The scalar ticks these stages replay are ``tests/reference_runtime.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import TYPE_CHECKING, Dict, List

import numpy as np

from repro.core.experience import (
    AdaptiveThresholdExperience,
    AlwaysExperienced,
    ThresholdExperience,
)
from repro.core.votes import select_positions

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.runtime import ProtocolRuntime

#: Spec-list positions of the three gossip loops (see
#: ``ProtocolRuntime._protocol_specs``): the protocols a run carries.
_MODERATION, _VOTE, _BARTERCAST = 0, 1, 2
#: Vote slots from which the plan's column pre-pass (numpy gathers over
#: the run, ≈ 20 µs fixed) beats reading each slot's values live.
#: Measured crossover on ``churn_population`` state: 12–16
#: (EXPERIMENTS.md "One gossip batch").
_PREPASS_FROM = 16


class GossipRun:
    """One handler call, stage to stage: the slots (one per candidate
    draw), what :func:`connect` made of them (``kinds``: the protocol of
    each slot's exchange, -1 for none), the plan with its merge queue
    (``[q_pos, q_end)`` still to settle) and the aggregate counters."""

    __slots__ = (
        "times", "pids", "rows", "protos", "own", "entry_of", "partner_ids",
        "partners", "prows", "kinds", "groups", "verdicts", "n_ex",
        "pending", "fast_all", "fwd_fast", "rev_fast", "pre_vox", "crowd_wire",
        "valid", "planned", "items", "touch",
        "queue", "q_slots", "q_pos", "q_end",
        "n_items", "vp_ex", "vp_entries", "mod_ex", "mod_items", "bc_ex", "bc_items",
    )

    def __init__(self, times, pids, rows, protos, own, entry_of, partner_ids):
        self.times, self.pids, self.rows, self.protos = times, pids, rows, protos
        self.own, self.entry_of, self.partner_ids = own, entry_of, partner_ids
        self.planned = self.touch = None
        self.verdicts: Dict[str, bool] = {}
        self.q_pos = self.q_end = self.n_items = self.vp_ex = self.vp_entries = 0
        self.mod_ex = self.mod_items = self.bc_ex = self.bc_items = 0


def draw(rt: ProtocolRuntime, times, pids, rows, protos) -> GossipRun:
    """Expand the run to one slot per candidate draw and draw every
    candidate with one ``sample_batch``."""
    nodes = rt.nodes
    own = [nodes[pid] for pid in pids]
    # Only _peer_online / _peer_offline open and close a session, and
    # flip the engine's flag with it: a due entry's peer is online.
    online = rt._online_since
    assert all([pid in online for pid in pids]), "online flags disagree"
    fanout = rt.config.vote_fanout
    entry_of = None
    if fanout > 1:
        entry_of = [
            k for k, p in enumerate(protos) for _ in range(fanout if p == _VOTE else 1)
        ]
        times = [times[k] for k in entry_of]
        pids = [pids[k] for k in entry_of]
        rows = [rows[k] for k in entry_of]
        protos = [protos[k] for k in entry_of]
        own = [own[k] for k in entry_of]
    partner_ids = rt.pss.sample_batch(pids)
    return GossipRun(times, pids, rows, protos, own, entry_of, partner_ids)


def connect(rt: ProtocolRuntime, run: GossipRun) -> None:
    """Connect each moderation and vote candidate in entry order —
    liveness, the loss draw, the partner's node — and keep a vote
    entry's partners once each."""
    pids, protos, entry_of = run.pids, run.protos, run.entry_of
    m = len(pids)
    nodes = rt.nodes
    is_online = rt.registry.is_online
    loss = rt.config.message_loss
    loss_rng = rt._message_loss_rng
    partners = [None] * m
    prows = [0] * m
    kinds = [-1] * m
    #: fan-out: a vote entry's first slot -> its partner set
    groups: Dict[int, List[str]] = {}
    entry = lead = -1
    seen: set = set()
    for k, partner, pid, p in zip(range(m), run.partner_ids, pids, protos):
        if partner is None or partner == pid:
            continue
        if p != _BARTERCAST:
            # A stale or lost connect is no exchange.
            if not is_online(partner):
                continue
            if loss > 0.0 and loss_rng.random() < loss:
                rt.dropped_exchanges += 1
                continue
            node = nodes.get(partner)
            if node is None:
                node = rt.ensure_node(partner)
            if entry_of is not None and p == _VOTE:
                if entry_of[k] != entry:
                    entry, lead, seen = entry_of[k], k, {pid}
                    groups[k] = []
                if partner in seen:
                    continue
                seen.add(partner)
                groups[lead].append(partner)
            partners[k] = node
            prows[k] = node.row
        kinds[k] = p
    run.partners, run.prows, run.kinds, run.groups = partners, prows, kinds, groups
    run.n_ex = kinds.count(_VOTE)


def plan(rt: ProtocolRuntime, run: GossipRun) -> None:
    """Pick the slots :func:`exchange` visits (``pending``, in entry
    order) and queue the merges of merge-only vote slots."""
    store = rt._col_store
    cfg = rt.config.node
    cap = cfg.votes_per_exchange
    kinds = run.kinds
    m = len(kinds)
    crowd = store.behaviour
    vox = cfg.voxpopuli_enabled and cfg.b_min > 0
    if run.n_ex:
        exp = rt.experience
        # The all-accepting gates resolve once for the whole run,
        # adaptive thresholds through one column gather per direction
        # (below); any other gate is evaluated per slot, in scalar order.
        run.fast_all = type(exp) is AlwaysExperienced or (
            type(exp) is ThresholdExperience and exp.threshold <= 0.0
        )
        run.fwd_fast = run.rev_fast = None
        run.pre_vox = [True] * m if vox else None
        run.crowd_wire = store.crowd_packed(cap) if crowd else None
    if run.n_ex < _PREPASS_FROM:
        run.pending = [k for k in range(m) if kinds[k] >= 0]
        return
    rows = np.fromiter(run.rows, np.int64, m)
    prows = np.fromiter(run.prows, np.int64, m)
    kinds_arr = np.fromiter(kinds, np.int64, m)
    valid = kinds_arr == _VOTE
    own_n, par_n = store.vl_size[rows], store.vl_size[prows]
    has_votes = (own_n > 0) | (par_n > 0)
    # Per-slot work besides merging: a VoxPopuli candidate (occupancy
    # below B_min before the run), a behaviour row, a gate that is not a
    # column fast path (rejection counters fire even on empty exchanges).
    special = np.zeros(m, dtype=np.bool_)
    if vox:
        pre_vox = store.bb_unique[rows] < cfg.b_min
        special |= pre_vox
        run.pre_vox = pre_vox.tolist()
    if crowd:
        bad = np.fromiter(crowd, np.int64, len(crowd))
        special |= np.isin(rows, bad) | np.isin(prows, bad)
    if not run.fast_all:
        exp = rt.experience
        if type(exp) is AdaptiveThresholdExperience and exp._store is store:
            fwd_ok = store.exp_threshold[rows] <= 0.0
            rev_ok = store.exp_threshold[prows] <= 0.0
            special |= ~(fwd_ok & rev_ok)
            run.fwd_fast, run.rev_fast = fwd_ok.tolist(), rev_ok.tolist()
        else:
            special[:] = True
    active = (has_votes | special) & valid
    quiet = active & ~special & (own_n <= cap) & (par_n <= cap)  # merge-only
    planned = active & ~quiet
    run.pending = np.flatnonzero(planned | ((kinds_arr >= 0) & ~valid)).tolist()
    run.valid, run.planned = valid, planned
    run.items = np.minimum(own_n, cap) + np.minimum(par_n, cap)
    # Every list this run may send, packed once up front (partner then
    # own, in slot order), so queued segments never repack.
    send = np.flatnonzero(has_votes & valid)
    if send.size:
        store.vl_pack_stale(np.stack((prows[send], rows[send]), 1).ravel())
    quiet_k = np.flatnonzero(quiet)
    if quiet_k.size:
        q_owner = np.stack((rows[quiet_k], prows[quiet_k]), 1).ravel()
        q_voter = np.stack((prows[quiet_k], rows[quiet_k]), 1).ravel()
        q_len = store.vl_len[q_voter]
        keep = q_len > 0
        q_slot = np.repeat(quiet_k, 2)[keep]
        q_off = store.vl_off[q_voter][keep]
        q_time = np.array(run.times)[q_slot]
        # The wire pool as read here: a visited slot may repack later.
        wire = (store.vl_mod, store.vl_val)
        run.queue = (q_owner[keep], q_voter[keep], q_off, q_len[keep], q_time, wire)
        run.q_slots = q_slot.tolist()
        run.q_end = len(run.q_slots)


def _settle(store, b_max: int, run: GossipRun, k: int) -> None:
    """Hand the queued merges of slots before ``k`` to the store as one
    run; slot ``k``'s own (a merge-only slot a cast made visited) leave
    the queue unmerged."""
    q_slots, pos, end = run.q_slots, run.q_pos, run.q_end
    owner, voter, off, n, at, wire = run.queue
    j = bisect_left(q_slots, k, pos, end)
    if j > pos:
        store.bb_merge_run(
            b_max, owner[pos:j], voter[pos:j], off[pos:j], n[pos:j], at[pos:j], wire
        )
    mine = bisect_right(q_slots, k, j, end)
    if mine > j:
        n[j:mine] = 0  # merged nothing: out of the votes_merged fold
    run.q_pos = mine


def _promote(run: GossipRun, k: int, cast_rows) -> None:
    """Slot ``k`` cast on ``cast_rows``: visit every later vote slot on
    one of them that the plan left out.  The run's row -> vote slots
    index is built at its first cast; a lookup reads only that row's
    slots."""
    touch = run.touch
    if touch is None:
        touch = run.touch = {}
        for j, (row, prow, kind) in enumerate(zip(run.rows, run.prows, run.kinds)):
            if kind == _VOTE:
                touch.setdefault(row, []).append(j)
                touch.setdefault(prow, []).append(j)
    planned = run.planned
    for r in cast_rows:
        for j in touch.get(r, ()):
            if j > k and not planned[j]:
                planned[j] = True
                insort(run.pending, j)  # after slot k: the running loop reaches it


def exchange(rt: ProtocolRuntime, run: GossipRun) -> None:
    """Every visited exchange in entry order, in one loop; a cast adds
    the later slots it touches to the loop's list."""
    engine = rt.engine
    store = rt._col_store
    b_max = rt.config.node.b_max
    bartercast = rt.bartercast
    times, own, partners, kinds = run.times, run.own, run.partners, run.kinds
    casts = store.vl_casts
    mod_ex = mod_items = bc_ex = bc_items = 0
    for k in run.pending:
        now = times[k]
        engine._now = now
        kind = kinds[k]
        if kind == _VOTE:
            if run.q_pos < run.q_end:
                _settle(store, b_max, run, k)
            _vote(rt, run, k, now)
        elif kind == _MODERATION:
            # Push/pull (Fig 1): both sides extract then merge.
            node, partner = own[k], partners[k]
            outbound = node.moderations_to_send()
            inbound = partner.moderations_to_send()
            partner.receive_moderations(outbound, now)
            node.receive_moderations(inbound, now)
            mod_ex += 1
            mod_items += len(outbound) + len(inbound)
            if run.planned is not None and store.vl_casts != casts:
                casts = store.vl_casts  # a vote intention fired
                _promote(run, k, (node.row, partner.row))
        else:
            pid = run.pids[k]
            bartercast.gossip_with(pid, run.partner_ids[k], now)
            bc_ex += 1
            # Both directions carry up to the per-exchange cap.
            bc_items += len(bartercast.records_of(pid))
    run.mod_ex, run.mod_items = mod_ex, mod_items
    run.bc_ex, run.bc_items = bc_ex, bc_items


def _vote(rt: ProtocolRuntime, run: GossipRun, k: int, now: float) -> None:
    """BallotBox (Fig 3 a+b) for vote slot ``k``, then VoxPopuli (Fig 3
    a+c) while this node bootstraps."""
    store = rt._col_store
    cfg = rt.config.node
    cap = cfg.votes_per_exchange
    node, partner, row, prow = run.own[k], run.partners[k], run.rows[k], run.prows[k]
    crowd = store.behaviour
    own_bad = par_bad = False
    if crowd and (row in crowd or prow in crowd):  # the one behaviour code
        own_bad, par_bad = row in crowd, prow in crowd
        crowd_n = len(store.crowd_votes)
    n_out = crowd_n if own_bad else int(store.vl_size[row])
    n_in = crowd_n if par_bad else int(store.vl_size[prow])
    # A crowd list goes out whole, whatever the cap.
    run.n_items += (n_out if own_bad else min(n_out, cap)) + (
        n_in if par_bad else min(n_in, cap)
    )
    # Forward verdict (observer = this node), before selection; with a
    # fan-out, once for the entry's whole partner set.
    if run.fast_all or (run.fwd_fast is not None and run.fwd_fast[k]):
        fwd = True
    elif run.entry_of is None:
        partner_id = partner.peer_id
        fwd = rt.experience.experienced_many(run.pids[k], [partner_id])[partner_id]
    else:
        if k in run.groups:
            run.verdicts = rt.experience.experienced_many(run.pids[k], run.groups[k])
        fwd = run.verdicts[partner.peer_id]
    # Each honest side above the cap draws its selection, ours first.
    policy = cfg.exchange_policy
    picks_out = picks_in = None
    if n_out > cap and not own_bad:
        picks_out = select_positions(n_out, cap, node.rng, policy)
    if n_in > cap and not par_bad:
        picks_in = select_positions(n_in, cap, partner.rng, policy)
    # The partner's list into our box; a crowd member merges and counts
    # nothing.
    if not own_bad:
        if not fwd:
            node.votes_rejected_inexperienced += 1
        elif n_in:
            _merge_into(rt, run, node, prow, n_in, picks_in, par_bad, now)
    # Reverse verdict (observer = partner), after our merge.
    if run.fast_all or (run.rev_fast is not None and run.rev_fast[k]):
        rev = True
    else:
        pid = run.pids[k]
        rev = rt.experience.experienced_many(partner.peer_id, [pid])[pid]
    if not par_bad:
        if not rev:
            partner.votes_rejected_inexperienced += 1
        elif n_out:
            _merge_into(rt, run, partner, row, n_out, picks_out, own_bad, now)
    # VoxPopuli: pre-gated on the occupancy column, re-checked live —
    # earlier merges this run may have lifted this node past B_min.
    candidate = run.pre_vox is not None and run.pre_vox[k] and not own_bad
    if candidate and store.bb_unique[row] < cfg.b_min:
        response = store.crowd_top_k if par_bad else partner.respond_top_k()
        node.receive_top_k(response)
        if response:
            run.vp_entries += len(response)
        run.vp_ex += 1


def _merge_into(rt, run, receiver, voter, n, picks, crowd_sender, now) -> None:
    """Row ``voter``'s list (``n`` entries, ``picks`` if honest and above
    the cap) into ``receiver``'s box, row to row; a crowd list is cut to
    the cap here.  The receiver counts what it stores and what was cut."""
    store = rt._col_store
    cfg = rt.config.node
    if crowd_sender:
        mids, vals = run.crowd_wire
        if n > cfg.votes_per_exchange:
            receiver.votes_truncated += n - cfg.votes_per_exchange
    else:
        mids, vals = store.vl_wire(voter, picks)
    receiver.votes_merged += store.bb_merge_packed(
        receiver.row, cfg.b_max, voter, mids, vals, now
    )


def finish(rt: ProtocolRuntime, run: GossipRun) -> None:
    """Settle the rest of the queue, fold its ``votes_merged`` per
    receiving node, set the clock to the run's last entry (entries are
    time-sorted) and make one ``*_exchange_many`` call per protocol."""
    store = rt._col_store
    if run.q_end:
        _settle(store, rt.config.node.b_max, run, len(run.kinds))
        owner, _voter, _off, n = run.queue[:4]
        merged = np.bincount(owner, weights=n)
        ids = store.rows.ids
        receivers = np.flatnonzero(merged)
        for row, count in zip(receivers.tolist(), merged[receivers].tolist()):
            rt.nodes[ids[row]].votes_merged += int(count)
    rt.engine._now = run.times[-1]
    n_items = run.n_items
    if run.planned is not None:
        # An unvisited slot sends the lists the plan read.
        n_items += int(run.items[run.valid & ~run.planned].sum())
    traffic = rt.traffic
    if run.mod_ex:
        traffic.moderation_exchange_many(run.mod_ex, run.mod_items)
    if run.n_ex:
        traffic.vote_exchange_many(run.n_ex, n_items)
    if run.vp_ex:
        traffic.voxpopuli_exchange_many(run.vp_ex, run.vp_entries)
    if run.bc_ex:
        traffic.bartercast_exchange_many(run.bc_ex, run.bc_items)
