"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(5.0, order.append, "c")
    eng.schedule(1.0, order.append, "a")
    eng.schedule(3.0, order.append, "b")
    eng.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    eng = Engine()
    seen = []
    eng.schedule(2.5, lambda: seen.append(eng.now))
    eng.run_until(10.0)
    assert seen == [2.5]


def test_equal_time_ties_broken_by_priority_then_insertion():
    eng = Engine()
    order = []
    eng.schedule(1.0, order.append, "second", priority=1)
    eng.schedule(1.0, order.append, "first", priority=0)
    eng.schedule(1.0, order.append, "third", priority=1)
    eng.run_until(1.0)
    assert order == ["first", "second", "third"]


def test_schedule_in_past_raises():
    eng = Engine(start_time=10.0)
    with pytest.raises(SimulationError):
        eng.schedule_at(5.0, lambda: None)


def test_negative_delay_raises():
    eng = Engine(start_time=10.0)
    with pytest.raises(SimulationError):
        eng.schedule(-1.0, lambda: None)


def test_cancel_prevents_execution():
    eng = Engine()
    fired = []
    handle = eng.schedule(1.0, fired.append, 1)
    eng.schedule(2.0, fired.append, 2)
    handle.cancel()
    eng.run_until(10.0)
    assert fired == [2]
    assert handle.cancelled


def test_cancel_is_idempotent():
    eng = Engine()
    handle = eng.schedule(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert eng.run_until(10.0) == 0


def test_run_until_executes_only_due_events_and_sets_clock():
    eng = Engine()
    fired = []
    eng.schedule(1.0, fired.append, 1)
    eng.schedule(5.0, fired.append, 5)
    assert eng.run_until(3.0) == 1
    assert fired == [1]
    assert eng.now == 3.0
    assert eng.run_until(10.0) == 1
    assert fired == [1, 5]
    assert eng.now == 10.0


def test_run_until_boundary_event_is_included():
    eng = Engine()
    fired = []
    eng.schedule(3.0, fired.append, "x")
    eng.run_until(3.0)
    assert fired == ["x"]


def test_run_until_backwards_raises():
    eng = Engine(start_time=4.0)
    with pytest.raises(SimulationError):
        eng.run_until(2.0)


def test_events_scheduled_during_run_are_executed():
    eng = Engine()
    order = []

    def chain(n):
        order.append(n)
        if n < 3:
            eng.schedule(1.0, chain, n + 1)

    eng.schedule(1.0, chain, 1)
    assert eng.run_until(10.0) == 3
    assert order == [1, 2, 3]


def test_events_fired_counter():
    eng = Engine()
    for i in range(4):
        eng.schedule(float(i), lambda: None)
    eng.run_until(10.0)
    assert eng.events_fired == 4


def test_run_until_on_empty_queue_only_moves_clock():
    eng = Engine()
    assert eng.run_until(5.0) == 0
    assert eng.now == 5.0


def test_zero_delay_event_fires_at_now():
    eng = Engine(start_time=7.0)
    times = []
    eng.schedule(0.0, lambda: times.append(eng.now))
    eng.run_until(7.0)
    assert times == [7.0]


def test_cancel_releases_callback_references():
    eng = Engine()
    h = eng.schedule(5.0, lambda: None, "payload")
    h.cancel()
    assert h.callback is None
    assert h.args == ()


def test_advance_to_moves_clock_forward_only():
    eng = Engine(start_time=10.0)
    eng.advance_to(15.0)
    assert eng.now == 15.0
    with pytest.raises(SimulationError):
        eng.advance_to(14.0)


def test_claim_seq_interleaves_with_heap_insertions():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    s1 = eng.claim_seq()
    eng.schedule(1.0, lambda: None)
    s2 = eng.claim_seq()
    assert s1 == 2 and s2 == 4


def test_next_event_key_skips_cancelled_head():
    eng = Engine()
    first = eng.schedule(1.0, lambda: None)
    eng.schedule(2.0, lambda: None)
    first.cancel()
    assert eng.next_event_key() == (2.0, 0, 2)
    assert len(eng._queue) == 1  # the cancelled head was dropped
