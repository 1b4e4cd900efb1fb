"""Unit tests for the trace data model."""

import pytest

from repro.traces.model import (
    EventKind,
    PeerProfile,
    Session,
    SwarmSpec,
    Trace,
    TraceEvent,
)


def make_trace(events, peers=None, swarms=None, duration=100.0):
    peers = peers or {
        "a": PeerProfile("a"),
        "b": PeerProfile("b"),
    }
    swarms = swarms or {"s0": SwarmSpec("s0", file_size=1000.0)}
    return Trace(duration=duration, peers=peers, swarms=swarms, events=events)


def ev(t, pid, kind, swarm=None):
    return TraceEvent(t, pid, kind, swarm)


class TestRecords:
    def test_peer_profile_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            PeerProfile("x", upload_capacity=0.0)

    def test_swarm_num_pieces_rounds_up(self):
        assert SwarmSpec("s", file_size=1000.0, piece_size=256.0).num_pieces == 4
        assert SwarmSpec("s", file_size=1024.0, piece_size=256.0).num_pieces == 4
        assert SwarmSpec("s", file_size=1.0, piece_size=256.0).num_pieces == 1

    def test_swarm_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            SwarmSpec("s", file_size=0.0)
        with pytest.raises(ValueError):
            SwarmSpec("s", file_size=10.0, piece_size=-1.0)

    def test_session_duration(self):
        assert Session("a", 10.0, 20.0).duration == 10.0

    def test_session_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            Session("a", 5.0, 5.0)


class TestSessionsReconstruction:
    def test_simple_session_pairing(self):
        t = make_trace(
            [
                ev(1.0, "a", EventKind.SESSION_START),
                ev(5.0, "a", EventKind.SESSION_END),
                ev(7.0, "a", EventKind.SESSION_START),
                ev(9.0, "a", EventKind.SESSION_END),
            ]
        )
        sess = t.sessions()["a"]
        assert [(s.start, s.end) for s in sess] == [(1.0, 5.0), (7.0, 9.0)]

    def test_dangling_start_truncated_at_duration(self):
        t = make_trace([ev(90.0, "a", EventKind.SESSION_START)], duration=100.0)
        sess = t.sessions()["a"]
        assert [(s.start, s.end) for s in sess] == [(90.0, 100.0)]


class TestArrivalAndMembership:
    def test_arrival_order_by_first_session_start(self):
        t = make_trace(
            [
                ev(2.0, "b", EventKind.SESSION_START),
                ev(3.0, "a", EventKind.SESSION_START),
                ev(4.0, "b", EventKind.SESSION_END),
                ev(5.0, "b", EventKind.SESSION_START),
            ]
        )
        assert t.arrival_order() == ["b", "a"]


class TestValidation:
    def test_valid_trace_passes(self):
        t = make_trace(
            [
                ev(0.0, "a", EventKind.SESSION_START),
                ev(0.0, "a", EventKind.SWARM_JOIN, "s0"),
                ev(9.0, "a", EventKind.SWARM_LEAVE, "s0"),
                ev(9.0, "a", EventKind.SESSION_END),
            ]
        )
        t.validate()

    def test_double_start_rejected(self):
        t = make_trace(
            [
                ev(0.0, "a", EventKind.SESSION_START),
                ev(1.0, "a", EventKind.SESSION_START),
            ]
        )
        with pytest.raises(ValueError, match="started while online"):
            t.validate()

    def test_end_while_offline_rejected(self):
        t = make_trace([ev(1.0, "a", EventKind.SESSION_END)])
        with pytest.raises(ValueError, match="ended while offline"):
            t.validate()

    def test_swarm_join_while_offline_rejected(self):
        t = make_trace([ev(1.0, "a", EventKind.SWARM_JOIN, "s0")])
        # join at t=1 with no session start: the join itself is the violation
        with pytest.raises(ValueError):
            t.validate()

    def test_unknown_peer_rejected(self):
        t = make_trace([ev(1.0, "zz", EventKind.SESSION_START)])
        with pytest.raises(ValueError, match="unknown peer"):
            t.validate()

    def test_unknown_swarm_rejected(self):
        t = make_trace(
            [
                ev(0.0, "a", EventKind.SESSION_START),
                ev(1.0, "a", EventKind.SWARM_JOIN, "nope"),
            ]
        )
        with pytest.raises(ValueError, match="bad swarm"):
            t.validate()

    def test_out_of_order_events_rejected(self):
        t = make_trace(
            [
                ev(5.0, "a", EventKind.SESSION_START),
                ev(1.0, "b", EventKind.SESSION_START),
            ]
        )
        with pytest.raises(ValueError, match="out of order"):
            t.validate()

    def test_event_after_duration_rejected(self):
        t = make_trace([ev(500.0, "a", EventKind.SESSION_START)], duration=100.0)
        with pytest.raises(ValueError, match="outside"):
            t.validate()

    def test_leave_without_join_rejected(self):
        t = make_trace(
            [
                ev(0.0, "a", EventKind.SESSION_START),
                ev(1.0, "a", EventKind.SWARM_LEAVE, "s0"),
            ]
        )
        with pytest.raises(ValueError, match="leave without join"):
            t.validate()


def test_sort_key_orders_canonically():
    s1 = [ev(5.0, "a", EventKind.SESSION_END), ev(1.0, "a", EventKind.SESSION_START)]
    s2 = [ev(1.0, "b", EventKind.SESSION_START)]
    merged = sorted(s1 + s2, key=TraceEvent.sort_key)
    assert [e.time for e in merged] == [1.0, 1.0, 5.0]
    # starts at equal time order by peer id
    assert [e.peer_id for e in merged[:2]] == ["a", "b"]


def test_kind_ordering_starts_before_ends():
    assert EventKind.SESSION_START.order < EventKind.SWARM_JOIN.order
    assert EventKind.SWARM_LEAVE.order < EventKind.SESSION_END.order
