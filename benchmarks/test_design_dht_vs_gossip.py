"""§II design decision — gossip replication vs DHT storage.

"We could have stored metadata in a Distributed Hash Table but these
require explicit leave and join operations which are costly in systems
with high churn … Additionally, search performance is considerably
enhanced if metadata is stored locally because it is not necessary to
perform multi-hop look-ups."

Drive a Chord ring with the *same churn trace* the protocols run on
and compare:

* maintenance messages the DHT pays purely for churn (the gossip
  design pays zero — nodes just stop answering);
* lookup cost: multi-hop remote lookups (plus timeout retries through
  stale fingers) vs the local database's zero network messages;
* data loss: keys lost to ungraceful departures (the common case in
  BitTorrent churn) vs gossip replication's node-local copies.
"""

import pytest
from conftest import run_once, scaled_duration, scaled_trace

from repro.dht.chord import ChordConfig, ChordRing
from repro.traces.generator import TraceGenerator
from repro.traces.model import EventKind


@pytest.fixture(scope="module")
def chord_under_trace_churn():
    duration = scaled_duration(full_days=7, quick_hours=48)
    trace = TraceGenerator(scaled_trace(duration), seed=37).generate()
    ring = ChordRing(ChordConfig(bits=16, stabilize_interval=60.0))
    lookups = {"messages": 0, "count": 0, "failures": 0}
    next_stabilize = 0.0
    next_lookup = 0.0
    for ev in trace.events:
        while next_stabilize <= ev.time:
            ring.stabilize_all()
            next_stabilize += ring.config.stabilize_interval
        if ev.kind is EventKind.SESSION_START:
            ring.join(ev.peer_id)
        elif ev.kind is EventKind.SESSION_END:
            # BitTorrent clients rarely say goodbye: ungraceful.
            ring.leave(ev.peer_id, graceful=False)
        # A modest application workload: one lookup per simulated
        # 10 min from a random online member.
        while next_lookup <= ev.time:
            next_lookup += 600.0
            if ring.online_count() >= 2:
                requester = ring._by_ident[ring._ring[0]]
                messages, ok = ring.lookup(requester, f"content-{int(next_lookup)}")
                lookups["messages"] += messages
                lookups["count"] += 1
                if not ok:
                    lookups["failures"] += 1
    return trace, ring, lookups


def test_dht_regenerate(benchmark, chord_under_trace_churn):
    def report():
        trace, ring, lookups = chord_under_trace_churn
        sessions = sum(
            1 for ev in trace.events if ev.kind is EventKind.SESSION_START
        )
        print("\n§II — Chord DHT on the paper's churn trace")
        print(f"  sessions (join/leave pairs): {sessions}")
        print(f"  join messages:        {ring.join_messages:>9}")
        print(f"  failure repair:       {ring.failure_messages:>9}")
        print(f"  stabilisation:        {ring.stabilize_messages:>9}")
        print(f"  TOTAL maintenance:    {ring.total_maintenance_messages():>9}")
        print(f"  keys lost to churn:   {ring.keys_lost:>9}")
        if lookups["count"]:
            print(
                f"  lookups: {lookups['count']} "
                f"(mean {lookups['messages'] / lookups['count']:.1f} msgs, "
                f"{lookups['failures']} failed; local_db equivalent: 0 msgs)"
            )
        print("  gossip design pays 0 churn maintenance (implicit membership)")
        return ring

    ring = run_once(benchmark, report)
    assert ring.total_maintenance_messages() > 0


def test_dht_churn_maintenance_is_costly(chord_under_trace_churn):
    """Every session costs the ring join + failure-repair messages —
    thousands over the trace, vs zero for gossip."""
    trace, ring, _ = chord_under_trace_churn
    sessions = sum(1 for ev in trace.events if ev.kind is EventKind.SESSION_START)
    assert ring.total_maintenance_messages() > 10 * sessions


def test_dht_lookups_are_multi_hop(chord_under_trace_churn):
    _trace, _ring, lookups = chord_under_trace_churn
    assert lookups["count"] > 0
    mean = lookups["messages"] / lookups["count"]
    assert mean >= 1.0, "remote lookups need network hops; local_db needs none"


def test_dht_loses_keys_under_bittorrent_churn(chord_under_trace_churn):
    """Ungraceful departures lose stored keys; gossip's per-node local
    databases cannot lose data to somebody else's churn."""
    _trace, ring, _ = chord_under_trace_churn
    assert ring.keys_lost > 100
