"""Fig 6 — vote-sampling effectiveness.

Workload (§VI-B): the first three nodes entering the system are
moderators M1, M2, M3, each spreading one moderation.  10 % of the
population (picked at random) will vote **+M1** and a disjoint 10 %
will vote **−M3**, in both cases only once the corresponding moderation
reaches them through ModerationCast.  M2 receives no votes.  Correct
ordering: M1 > M2 > M3.

Parameters: ``B_min = 5``, ``B_max = 100``, ``V_max = 10``, ``K = 3``,
``T = 5 MB``.  The paper plots the fraction of nodes holding the
correct strict ordering over 168 h: a slow start, a sharp rise around
12 h (VoxPopuli relays kick in once the first nodes pass ``B_min``),
then convergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.node import NodeConfig
from repro.core.runtime import RuntimeConfig
from repro.core.votes import Vote
from repro.experiments.common import (
    ExperimentResult,
    SimulationStack,
    average_series,
)
from repro.metrics.ordering import correct_order_fraction
from repro.sim.parallel import ReplicaPool
from repro.sim.units import DAY, MB
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.model import Trace
from repro.traces.stats import compute_stats


@dataclass
class VoteSamplingConfig:
    """Fig 6 parameters."""

    seed: int = 0
    trace_replica: int = 0
    duration: float = 7 * DAY
    sample_interval: float = 1800.0
    #: fraction voting +M1 and (disjointly) −M3.
    positive_fraction: float = 0.10
    negative_fraction: float = 0.10
    experience_threshold: float = 5 * MB
    node: NodeConfig = field(
        default_factory=lambda: NodeConfig(b_min=5, b_max=100, v_max=10, k=3)
    )
    trace: TraceGeneratorConfig = field(default_factory=TraceGeneratorConfig)
    runtime: Optional[RuntimeConfig] = None

    def __post_init__(self) -> None:
        if self.positive_fraction + self.negative_fraction > 1.0:
            raise ValueError("voter fractions exceed the population")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


class VoteSamplingExperiment:
    """Regenerates one Fig 6 run; :meth:`run_many` averages replicas."""

    def __init__(self, config: Optional[VoteSamplingConfig] = None):
        self.config = config or VoteSamplingConfig()

    # ------------------------------------------------------------------
    def _make_trace(self, replica: int) -> Trace:
        cfg = self.config
        trace_cfg = cfg.trace
        if trace_cfg.duration != cfg.duration:
            trace_cfg = TraceGeneratorConfig(
                **{**trace_cfg.__dict__, "duration": cfg.duration}
            )
        return TraceGenerator(trace_cfg, seed=cfg.seed).generate(replica)

    def _runtime_config(self) -> RuntimeConfig:
        cfg = self.config
        if cfg.runtime is not None:
            return cfg.runtime
        return RuntimeConfig(
            node=cfg.node, experience_threshold=cfg.experience_threshold
        )

    def run(self, replica: Optional[int] = None) -> ExperimentResult:
        cfg = self.config
        replica = cfg.trace_replica if replica is None else replica
        trace = self._make_trace(replica)
        stack = SimulationStack.build(
            trace,
            seed=cfg.seed + 1000 * replica,
            runtime_config=self._runtime_config(),
            sample_interval=cfg.sample_interval,
        )
        moderators = self._setup_workload(stack, trace)
        order = moderators  # M1 > M2 > M3

        def probe() -> float:
            arrived = [
                pid for pid in trace.peers if pid in stack.runtime.nodes
            ]
            return correct_order_fraction(
                stack.runtime.nodes, order, include=arrived
            )

        stack.recorder.add_probe("correct_fraction", probe)
        stack.run(until=cfg.duration)

        result = ExperimentResult(name=f"fig6-vote-sampling-r{replica}")
        result.series = dict(stack.recorder.series)
        result.metadata = {
            "trace": trace.name,
            "moderators": moderators,
            "votes_cast": sum(
                len(n.vote_list) for n in stack.runtime.nodes.values()
            ),
            "run_summary": stack.runtime.run_summary(),
        }
        return result

    # ------------------------------------------------------------------
    def _setup_workload(self, stack: SimulationStack, trace: Trace) -> List[str]:
        """First three arrivals become moderators; assign voter roles.

        "First three nodes entering the system" is filtered to peers of
        at-least-median availability: the paper's moderators are
        founding members that stay around (§VII's founders/elders
        argument), whereas a synthetic trace's literal first arrival
        can be a rarely-present peer whose metadata would never spread
        for lack of uptime, not by protocol behaviour.
        """
        cfg = self.config
        stats = compute_stats(trace)
        median = float(np.median(list(stats.availability.values())))
        arrivals = [
            pid
            for pid in trace.arrival_order()
            if stats.availability[pid] >= median
        ]
        if len(arrivals) < 4:
            arrivals = trace.arrival_order()
        if len(arrivals) < 4:
            raise ValueError("trace too small for the Fig 6 workload")
        m1, m2, m3 = arrivals[0], arrivals[1], arrivals[2]
        now = 0.0
        for mid, title in ((m1, "good"), (m2, "neutral"), (m3, "spam")):
            node = stack.runtime.ensure_node(mid)
            node.create_moderation(f"torrent-of-{mid}", title, now)
        # Disjoint random voter sets from the remaining population.
        rest = [p for p in trace.peers if p not in (m1, m2, m3)]
        rng = stack.runtime._rng.stream("fig6-voters")
        rng.shuffle(rest)
        n_pos = int(round(cfg.positive_fraction * len(trace.peers)))
        n_neg = int(round(cfg.negative_fraction * len(trace.peers)))
        pos_voters = rest[:n_pos]
        neg_voters = rest[n_pos : n_pos + n_neg]
        for pid in pos_voters:
            stack.runtime.ensure_node(pid).set_vote_intention(m1, Vote.POSITIVE)
        for pid in neg_voters:
            stack.runtime.ensure_node(pid).set_vote_intention(m3, Vote.NEGATIVE)
        return [m1, m2, m3]

    # ------------------------------------------------------------------
    def run_many(
        self, n_runs: int = 10, jobs: Optional[int] = None
    ) -> ExperimentResult:
        """The paper's 'average over 10 independent runs'.

        ``jobs`` farms the replicas over a :class:`ReplicaPool`
        (``None`` = one worker per replica up to the CPU count,
        ``1`` = sequential in-process).  Replicas are independent —
        each derives its own seed — so any ``jobs`` value produces
        bit-identical series.
        """
        pool = ReplicaPool(jobs=jobs)
        runs = pool.run_replicas(self, range(n_runs))
        result = ExperimentResult(name=f"fig6-vote-sampling-avg{n_runs}")
        for i, r in enumerate(runs):
            result.series[f"run{i}"] = r.get("correct_fraction")
        mean, std = average_series(
            [r.get("correct_fraction") for r in runs], with_std=True
        )
        result.series["average"] = mean
        result.series["std"] = std
        result.metadata = {"n_runs": n_runs, "jobs": pool.resolve_jobs(n_runs)}
        return result
