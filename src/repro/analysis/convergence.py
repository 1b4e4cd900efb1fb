"""Convergence extraction from experiment time series."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.metrics.timeseries import TimeSeries


def time_to_fraction(series: TimeSeries, target: float) -> Optional[float]:
    """First sample time at which the series reaches ``target``
    (``None`` if it never does)."""
    values = series.values
    times = series.times
    hits = np.flatnonzero(values >= target)
    if hits.size == 0:
        return None
    return float(times[hits[0]])
