"""The executable spec of the runtime's scheduling and state.

:class:`ReferenceRuntime` is :class:`ProtocolRuntime` with its two
production layers swapped for their plain originals: every protocol
loop of every peer is its own :class:`PeriodicProcess` heap entry (no
population engine, so no batched vote tick), and every node keeps its
ballot box in the dict-backed :class:`BallotBox` (no columnar store).
The engine-identity tests run one scenario on both runtimes and demand
bit-identical protocol results.
"""

from functools import partial
from typing import Dict, List

from repro.core.runtime import ProtocolRuntime
from repro.sim.process import PeriodicProcess


class ReferenceRuntime(ProtocolRuntime):
    """One ``PeriodicProcess`` per peer per protocol, dict ballot boxes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._col_store = None  # ensure_node builds dict-backed nodes
        self._processes: Dict[str, List[PeriodicProcess]] = {}

    def _start_ticks(self, peer_id: str, now: float) -> None:
        procs = self._processes.get(peer_id)
        if procs is None:
            jitter = self.config.jitter_fraction
            rng = self._rng.stream("jitter", peer_id)
            procs = self._processes[peer_id] = [
                PeriodicProcess(
                    self.engine,
                    interval,
                    partial(action, peer_id),
                    jitter=interval * jitter,
                    rng=rng,
                )
                for _name, interval, action, *_batch in self._protocol_specs()
            ]
        for proc in procs:
            proc.start()

    def _stop_ticks(self, peer_id: str, now: float) -> None:
        for proc in self._processes.get(peer_id, ()):
            proc.stop()

    def ballot_memory_bytes(self) -> int:
        return sum(node.ballot_box.memory_bytes() for node in self.nodes.values())

    def population_summary(self) -> Dict[str, object]:
        """The production telemetry's counting keys; every tick is its
        own heap event, so batches degenerate to size 1."""
        names = [spec[0] for spec in self._protocol_specs()]
        ticks_by_protocol = dict.fromkeys(names, 0)
        for procs in self._processes.values():
            for name, proc in zip(names, procs):
                ticks_by_protocol[name] += proc.ticks
        ticks = sum(ticks_by_protocol.values())
        return {
            "peers_total": len(self.nodes),
            "peers_online": sum(node.online for node in self.nodes.values()),
            "ticks": ticks,
            "batches": ticks,
            "mean_batch_size": 1.0 if ticks else 0.0,
            "max_batch_size": 1 if ticks else 0,
            "batch_calls": 0,
            "ticks_by_protocol": ticks_by_protocol,
            "ballot_memory_bytes": self.ballot_memory_bytes(),
        }
