"""Engine-driven periodic measurement.

A :class:`TimeSeriesRecorder` schedules a sampling callback on the
simulation engine every ``interval`` seconds and accumulates named
series; experiments hand the result straight to the figure renderers.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Tuple, Union

import numpy as np

from repro.sim.engine import Engine

SampleValue = Union[float, Mapping[str, float]]


class TimeSeries:
    """One named series of ``(t, value)`` samples."""

    def __init__(self, name: str):
        self.name = name
        self._t: List[float] = []
        self._v: List[float] = []

    def append(self, t: float, value: float) -> None:
        self._t.append(float(t))
        self._v.append(float(value))

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._t)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._v)

    def value_at(self, t: float) -> float:
        """Last sample at or before ``t`` (step interpolation)."""
        times = self.times
        i = int(np.searchsorted(times, t, side="right")) - 1
        if i < 0:
            raise ValueError(f"no sample at or before t={t}")
        return float(self._v[i])

    def final(self) -> float:
        if not self._v:
            raise ValueError("empty series")
        return self._v[-1]

    def __len__(self) -> int:
        return len(self._t)


class TimeSeriesRecorder:
    """Samples one or more probes on a fixed cadence.

    ``probe()`` may return a float (recorded under the probe's name) or
    a mapping of sub-series names to floats (e.g. CEV per threshold).
    """

    def __init__(self, engine: Engine, interval: float, sample_at_start: bool = True):
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.engine = engine
        self.interval = interval
        self.series: Dict[str, TimeSeries] = {}
        self._probes: List[Tuple[str, Callable[[], SampleValue]]] = []
        self._sample_at_start = sample_at_start
        self._started = False

    def add_probe(self, name: str, probe: Callable[[], SampleValue]) -> None:
        self._probes.append((name, probe))

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        delay = 0.0 if self._sample_at_start else self.interval
        self.engine.schedule(delay, self._tick, priority=100)

    def _tick(self) -> None:
        now = self.engine.now
        for name, probe in self._probes:
            value = probe()
            if isinstance(value, Mapping):
                for sub, v in value.items():
                    self._series(f"{name}:{sub}").append(now, v)
            else:
                self._series(name).append(now, float(value))
        self.engine.schedule(self.interval, self._tick, priority=100)

    def _series(self, name: str) -> TimeSeries:
        s = self.series.get(name)
        if s is None:
            s = TimeSeries(name)
            self.series[name] = s
        return s

    def get(self, name: str) -> TimeSeries:
        return self.series[name]
