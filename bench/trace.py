"""Outside-in tracing: spans around the calls into each layer.

The traced run of a workload patches, from here and nowhere inside
``repro``, the attribute at each layer boundary (:data:`BOUNDARIES`)
with a wrapper that pushes a span on a stack.  A span's self time is
its duration minus the part its child spans cover, so the self times
of everything under a measured window add up to the window exactly;
what no boundary claims is the window's own self time, ``other_s``.

Aggregates ``(phase, name, parent) -> calls, total, self`` are always
kept.  Individual spans are kept only for boundaries called at most
:data:`SPAN_CAP` times per run; busier boundaries keep the aggregate
only.  Nothing called more than ~1 M times per run is wrapped at all
(``is_interested_in``, per-entry ``bb_merge``): those counts come from
the program's own counters.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

SPAN_CAP = 10_000

#: (span name, module, class, attribute).  Classes are patched, not
#: instances: ``ProtocolRuntime`` skips its batched vote tick when an
#: *instance* carries a ``_vote_tick`` override, and listeners such as
#: ``ledger.add_listener(bartercast.local_transfer)`` bind at
#: construction, so the patch must be in place before a stack is built.
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("traces.generate", "repro.traces.generator", "TraceGenerator", "generate"),
    ("engine.run_until", "repro.sim.engine", "Engine", "run_until"),
    ("population.run_due", "repro.sim.population", "PopulationEngine", "run_due"),
    ("bittorrent.run_round", "repro.bittorrent.swarm", "Swarm", "run_round"),
    ("bittorrent.join", "repro.bittorrent.swarm", "Swarm", "join"),
    ("bittorrent.leave", "repro.bittorrent.swarm", "Swarm", "leave"),
    ("bartercast.local_transfer", "repro.bartercast.protocol", "BarterCastService", "local_transfer"),
    ("bartercast.gossip_tick", "repro.bartercast.protocol", "BarterCastService", "gossip_tick"),
    ("bartercast.contribution", "repro.bartercast.protocol", "BarterCastService", "contribution"),
    ("bartercast.contribution", "repro.bartercast.protocol", "BarterCastService", "contributions_to_observer"),
    ("experience.gate", "repro.core.experience", "ExperienceFunction", "experienced_many"),
    ("experience.gate", "repro.core.experience", "ThresholdExperience", "experienced_many"),
    ("experience.gate", "repro.core.experience", "AdaptiveThresholdExperience", "experienced_many"),
    ("runtime.moderation_tick", "repro.core.runtime", "ProtocolRuntime", "_moderation_tick"),
    ("runtime.vote_tick", "repro.core.runtime", "ProtocolRuntime", "_vote_tick"),
    ("runtime.vote_tick", "repro.core.runtime", "ProtocolRuntime", "_vote_tick_batch"),
    ("runtime.bartercast_tick", "repro.core.runtime", "ProtocolRuntime", "_bartercast_tick"),
    ("runtime.other_tick", "repro.core.runtime", "ProtocolRuntime", "_newscast_tick"),
    ("runtime.other_tick", "repro.core.runtime", "ProtocolRuntime", "_adaptive_tick"),
    # bring_online/take_offline end in these two, and so does
    # trace-driven churn, which never goes through the public pair
    ("runtime.churn", "repro.core.runtime", "ProtocolRuntime", "_peer_online"),
    ("runtime.churn", "repro.core.runtime", "ProtocolRuntime", "_peer_offline"),
    ("pss.sample", "repro.pss.ideal", "OraclePSS", "sample"),
    ("pss.sample", "repro.pss.ideal", "OraclePSS", "sample_batch"),
    ("service.run_until", "repro.sim.service", "ServiceShard", "run_until"),
    ("service.checkpoint", "repro.sim.service", "ServiceShard", "write_checkpoint"),
    ("service.restore", "repro.sim.service", "ServiceShard", "restore_from"),
    ("aggregation.publish", "repro.sim.aggregation", "ShardAggregator", "publish"),
    ("aggregation.pull", "repro.sim.aggregation", "ShardAggregator", "pull"),
    ("aggregation.merge_pending", "repro.sim.aggregation", "ShardAggregator", "merge_pending"),
    ("dht.lookup", "repro.dht.chord", "ChordRing", "lookup"),
    ("metrics.probe", "repro.metrics.timeseries", "TimeSeriesRecorder", "_tick"),
)

AggKey = Tuple[str, str, str]  # (phase, name, parent name)


class Tracer:
    """Span stack with in-memory aggregation."""

    def __init__(self, span_cap: int = SPAN_CAP):
        self.span_cap = span_cap
        #: open frames: [name, span id, start, time covered by children]
        self.stack: List[List[Any]] = []
        self.agg: Dict[AggKey, List[float]] = {}
        #: name -> kept spans, or None once the name went over the cap
        self.spans: Dict[str, Optional[List[Tuple[int, int, float, float, int]]]] = {}
        self.phase = "setup"
        self.unit = 0
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- spans ----------------------------------------------------------
    def enter(self, name: str) -> None:
        self._next_id += 1
        self.stack.append([name, self._next_id, time.perf_counter(), 0.0])

    def exit(self) -> float:
        end = time.perf_counter()
        name, span_id, start, covered = self.stack.pop()
        duration = end - start
        if self.stack:
            parent = self.stack[-1]
            parent[3] += duration
            parent_name, parent_id = parent[0], parent[1]
        else:
            parent_name, parent_id = "", 0
        key = (self.phase, name, parent_name)
        entry = self.agg.get(key)
        if entry is None:
            entry = self.agg[key] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered
        kept = self.spans.setdefault(name, [])
        if kept is not None:
            if len(kept) < self.span_cap:
                kept.append((span_id, parent_id, start, end, self.unit))
            else:
                self.spans[name] = None
        return duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    # -- patching -------------------------------------------------------
    def install(self) -> None:
        for name, module, cls_name, attr in BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]  # the class's own, not inherited
            if isinstance(original, classmethod):
                traced: Any = classmethod(self.wrap(name, original.__func__))
            else:
                traced = self.wrap(name, original)
            setattr(cls, attr, traced)
            self._patched.append((cls, attr, original))

    def uninstall(self) -> None:
        while self._patched:
            cls, attr, original = self._patched.pop()
            setattr(cls, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading --------------------------------------------------------
    def layer(self, name: str, phase: str = "run") -> Tuple[int, float, float]:
        """``(calls, total, self)`` of one span name in one phase,
        summed over every parent it was called from."""
        calls = total = self_time = 0.0
        for (p, n, _parent), (c, t, s) in self.agg.items():
            if p == phase and n == name:
                calls += c
                total += t
                self_time += s
        return int(calls), total, self_time

    def write_spans(self, path: Path, meta: Dict[str, Any]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        aggregated_only = sorted(n for n, kept in self.spans.items() if kept is None)
        with path.open("w", encoding="utf-8") as out:
            header = {
                **meta,
                "aggregated_only": aggregated_only,
                "aggregate": [
                    {"phase": p, "name": n, "parent": parent,
                     "calls": c, "total_s": t, "self_s": s}
                    for (p, n, parent), (c, t, s) in sorted(self.agg.items())
                ],
            }
            out.write(json.dumps(header) + "\n")
            for name, kept in sorted(self.spans.items()):
                for span_id, parent_id, start, end, unit in kept or ():
                    out.write(
                        json.dumps(
                            {"name": name, "id": span_id, "parent": parent_id,
                             "start": start, "end": end, "unit": unit}
                        )
                        + "\n"
                    )


class Window:
    """The measured window of one unit: ``with window:`` accumulates
    wall time into ``seconds`` and, when a tracer is attached, is the
    root span every layer span hangs under."""

    def __init__(self, tracer: Optional[Tracer] = None):
        self.tracer = tracer
        self.seconds = 0.0
        self._start = 0.0
        self._phase = ""

    def __enter__(self) -> "Window":
        if self.tracer is not None:
            self._phase = self.tracer.phase
            self.tracer.phase = "run"
            self.tracer.enter("window")
        else:
            self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        if self.tracer is not None:
            self.seconds += self.tracer.exit()
            self.tracer.phase = self._phase
        else:
            self.seconds += time.perf_counter() - self._start


#: per-layer ``*_s`` metric -> the span names whose self time inside the
#: measured window it sums.  Together with ``other_s`` (the window's own
#: self time) these cover every span name, so they add up to the traced
#: ``trace.wall_s``.  ``traces.generate_s`` is the one ``*_s`` metric
#: outside this table: trace generation is set-up, not window.
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "engine.self_s": ("engine.run_until",),
    "population.run_due_self_s": ("population.run_due",),
    "bittorrent.run_round_s": ("bittorrent.run_round",),
    "bittorrent.join_leave_s": ("bittorrent.join", "bittorrent.leave"),
    "bartercast.local_transfer_s": ("bartercast.local_transfer",),
    "bartercast.gossip_tick_s": ("bartercast.gossip_tick",),
    "bartercast.contribution_s": ("bartercast.contribution",),
    "experience.gate_s": ("experience.gate",),
    "runtime.moderation_tick_s": ("runtime.moderation_tick",),
    "runtime.vote_tick_s": ("runtime.vote_tick",),
    "runtime.bartercast_tick_s": ("runtime.bartercast_tick",),
    "runtime.other_tick_s": ("runtime.other_tick",),
    "runtime.churn_s": ("runtime.churn",),
    "pss.sample_s": ("pss.sample",),
    "service.run_until_s": ("service.run_until",),
    "service.checkpoint_s": ("service.checkpoint",),
    "service.restore_s": ("service.restore",),
    "aggregation.publish_s": ("aggregation.publish",),
    "aggregation.pull_s": ("aggregation.pull",),
    "aggregation.merge_pending_s": ("aggregation.merge_pending",),
    "dht.lookup_s": ("dht.lookup",),
    "metrics.probe_s": ("metrics.probe",),
}

#: per-layer call-count metric -> span names whose calls it sums
CALL_COUNT_METRICS: Dict[str, Tuple[str, ...]] = {
    "engine.run_until_calls": ("engine.run_until",),
    "population.run_due_calls": ("population.run_due",),
    "bittorrent.rounds": ("bittorrent.run_round",),
    "bittorrent.join_leave_calls": ("bittorrent.join", "bittorrent.leave"),
    "bartercast.local_transfers": ("bartercast.local_transfer",),
    "bartercast.gossip_ticks": ("bartercast.gossip_tick",),
    "bartercast.contribution_calls": ("bartercast.contribution",),
    "experience.gate_calls": ("experience.gate",),
    "runtime.tick_calls": (
        "runtime.moderation_tick", "runtime.vote_tick",
        "runtime.bartercast_tick", "runtime.other_tick",
    ),
    "runtime.churn_calls": ("runtime.churn",),
    "pss.sample_calls": ("pss.sample",),
    "service.restores": ("service.restore",),
    "aggregation.calls": (
        "aggregation.publish", "aggregation.pull", "aggregation.merge_pending",
    ),
    "dht.lookups": ("dht.lookup",),
}


def layer_metrics(tracer: Tracer, units: int) -> Dict[str, float]:
    """Per-unit means of every traced per-layer metric, plus ``other_s``
    and the traced ``trace.wall_s`` they add up to."""
    out: Dict[str, float] = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(tracer.layer(n)[2] for n in names) / units
    for metric, names in CALL_COUNT_METRICS.items():
        out[metric] = sum(tracer.layer(n)[0] for n in names) / units
    out["traces.generate_s"] = tracer.layer("traces.generate", "setup")[2] / units
    _calls, wall, other = tracer.layer("window")
    out["other_s"] = other / units
    out["trace.wall_s"] = wall / units
    return out
