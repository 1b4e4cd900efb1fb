"""Unit tests for the reference runtime's PeriodicProcess."""

import pytest

from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from tests.reference_runtime import PeriodicProcess


def test_ticks_at_fixed_interval():
    eng = Engine()
    times = []
    proc = PeriodicProcess(eng, 10.0, lambda: times.append(eng.now))
    proc.start()
    eng.run_until(35.0)
    assert times == [10.0, 20.0, 30.0]
    assert proc.ticks == 3


def test_stop_halts_ticking():
    eng = Engine()
    times = []
    proc = PeriodicProcess(eng, 10.0, lambda: times.append(eng.now))
    proc.start()
    eng.run_until(25.0)
    proc.stop()
    eng.run_until(100.0)
    assert times == [10.0, 20.0]
    assert not proc.running


def test_restart_after_stop():
    eng = Engine()
    times = []
    proc = PeriodicProcess(eng, 10.0, lambda: times.append(eng.now))
    proc.start()
    eng.run_until(15.0)
    proc.stop()
    eng.run_until(50.0)
    proc.start()
    eng.run_until(65.0)
    assert times == [10.0, 60.0]


def test_start_is_idempotent():
    eng = Engine()
    count = []
    proc = PeriodicProcess(eng, 10.0, lambda: count.append(1))
    proc.start()
    proc.start()
    eng.run_until(10.0)
    assert len(count) == 1


def test_action_can_stop_its_own_process():
    eng = Engine()
    ticks = []
    proc = PeriodicProcess(eng, 1.0, lambda: (ticks.append(eng.now), proc.stop()))
    proc.start()
    eng.run_until(10.0)
    assert ticks == [1.0]


def test_explicit_phase_controls_first_tick():
    eng = Engine()
    times = []
    proc = PeriodicProcess(eng, 10.0, lambda: times.append(eng.now), phase=2.0)
    proc.start()
    eng.run_until(25.0)
    assert times == [2.0, 12.0, 22.0]


def test_jitter_desynchronises_but_stays_near_interval():
    eng = Engine()
    rng = RngRegistry(3).stream("jitter")
    times = []
    proc = PeriodicProcess(eng, 10.0, lambda: times.append(eng.now), jitter=2.0, rng=rng)
    proc.start()
    eng.run_until(200.0)
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert all(8.0 <= g <= 12.0 for g in gaps)
    assert len(set(round(g, 6) for g in gaps)) > 1  # not lock-step


def test_jitter_without_rng_rejected():
    with pytest.raises(ValueError):
        PeriodicProcess(Engine(), 10.0, lambda: None, jitter=1.0)


def test_nonpositive_interval_rejected():
    with pytest.raises(ValueError):
        PeriodicProcess(Engine(), 0.0, lambda: None)
    with pytest.raises(ValueError):
        PeriodicProcess(Engine(), -5.0, lambda: None)
