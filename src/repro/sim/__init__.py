"""Discrete-event simulation kernel.

A single :class:`~repro.sim.engine.Engine` owns simulated time and a
heap-ordered event queue.  All protocol layers in this repository are
plain state machines scheduled onto one engine, which keeps them unit
testable in isolation and makes every run deterministic: randomness is
only available through :class:`~repro.sim.rng.RngRegistry` named
streams derived from a single root seed.
"""

from repro.sim.engine import Engine, EventHandle, SimulationError
from repro.sim.rng import RngRegistry
from repro.sim.service import (
    ServiceConfig,
    ServiceShard,
    ServiceStatus,
    ServiceSupervisor,
    ShardConfig,
)
from repro.sim.units import DAY, GIB, HOUR, KIB, MB, MIB, MINUTE, SECOND

__all__ = [
    "Engine",
    "EventHandle",
    "SimulationError",
    "RngRegistry",
    "ServiceConfig",
    "ServiceShard",
    "ServiceStatus",
    "ServiceSupervisor",
    "ShardConfig",
    "SECOND",
    "MINUTE",
    "HOUR",
    "DAY",
    "KIB",
    "MIB",
    "GIB",
    "MB",
]
