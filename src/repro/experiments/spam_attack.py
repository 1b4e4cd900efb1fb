"""Fig 8 — flash-crowd spam attack.

Setup (§VI-C): a fixed experienced core of 30 nodes, pre-converged on
an honest top moderator **M1** and mutually experienced; a collusive
flash crowd (1× or 2× the core size) arrives promoting a spam moderator
**M0**; the remaining trace peers are newly arrived normal nodes.

Measured: the proportion of newly arrived nodes ranking M0 top over
time.  Paper shape: the 2× crowd defeats most new nodes for ≈24 hours
(until they accumulate ``B_min`` votes from core members and switch to
ballot-box statistics); the 1× crowd only ever defeats a minority, and
attacks *smaller* than the core produce ~zero pollution within an hour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.attacks.spam import FlashCrowd
from repro.core.node import NodeConfig
from repro.core.runtime import RuntimeConfig
from repro.core.votes import Vote, VoteEntry
from repro.experiments.common import (
    ExperimentResult,
    SimulationStack,
    average_series,
)
from repro.metrics.pollution import pollution_fraction
from repro.sim.parallel import ReplicaPool
from repro.sim.units import DAY, HOUR, MB
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.model import Trace
from repro.traces.stats import compute_stats


@dataclass
class SpamAttackConfig:
    """Fig 8 parameters."""

    seed: int = 0
    trace_replica: int = 0
    duration: float = 3 * DAY
    sample_interval: float = 1800.0
    core_size: int = 30
    crowd_size: int = 60
    #: Crowd availability (they churn like residential peers; 1.0 means
    #: a dedicated always-online botnet).  Default matches the traces'
    #: ≈45–50 % mean availability so "crowd = 1× core" compares equal
    #: *online* strength, as the paper's trace-driven colluders did.
    crowd_duty_cycle: float = 0.45
    crowd_duty_period: float = 4 * HOUR
    experience_threshold: float = 5 * MB
    #: Bytes of pre-existing pairwise transfer credited between core
    #: members ("fixed ... to be part of the experienced core").
    core_history_bytes: float = 10 * MB
    spam_moderator: str = "M0"
    #: If set, colluders also cast decoy −votes on the core's honest
    #: top moderator.  Slander makes the attack stronger against the
    #: raw summation score but *creates vote dispersion*, which is
    #: exactly the signal the §VII adaptive threshold reacts to.
    crowd_slanders_honest: bool = False
    node: NodeConfig = field(
        default_factory=lambda: NodeConfig(b_min=5, b_max=100, v_max=10, k=3)
    )
    trace: TraceGeneratorConfig = field(default_factory=TraceGeneratorConfig)
    runtime: Optional[RuntimeConfig] = None

    def __post_init__(self) -> None:
        if self.core_size < 1 or self.crowd_size < 1:
            raise ValueError("core and crowd must be non-empty")
        if not (0.0 < self.crowd_duty_cycle <= 1.0):
            raise ValueError("crowd_duty_cycle must be in (0, 1]")


class SpamAttackExperiment:
    """Regenerates one Fig 8 line; :meth:`run_many` averages replicas."""

    def __init__(self, config: Optional[SpamAttackConfig] = None):
        self.config = config or SpamAttackConfig()

    def _make_trace(self, replica: int) -> Trace:
        cfg = self.config
        trace_cfg = cfg.trace
        overrides = {}
        if trace_cfg.duration != cfg.duration:
            overrides["duration"] = cfg.duration
        if trace_cfg.arrival_window != 0.0:
            # The paper's population (and its experienced core) exists
            # when the attack starts; staggered first arrivals would
            # let the flash crowd face a half-empty core — an artifact,
            # not the attack dynamics under study.
            overrides["arrival_window"] = 0.0
        if overrides:
            trace_cfg = TraceGeneratorConfig(
                **{**trace_cfg.__dict__, **overrides}
            )
        return TraceGenerator(trace_cfg, seed=cfg.seed).generate(replica)

    def _runtime_config(self) -> RuntimeConfig:
        cfg = self.config
        if cfg.runtime is not None:
            return cfg.runtime
        return RuntimeConfig(
            node=cfg.node, experience_threshold=cfg.experience_threshold
        )

    # ------------------------------------------------------------------
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
        self._install_experience(stack)
        core, m1 = self._setup_core(stack, trace)
        crowd = self._setup_crowd(stack, honest_top=m1)
        newcomers = [p for p in trace.peers if p not in core]

        def probe() -> float:
            arrived = [p for p in newcomers if p in stack.runtime.nodes]
            return pollution_fraction(
                stack.runtime.nodes, cfg.spam_moderator, include=arrived
            )

        stack.recorder.add_probe("polluted_fraction", probe)
        stack.run(until=cfg.duration)

        result = ExperimentResult(name=f"fig8-spam-attack-r{replica}")
        result.series = dict(stack.recorder.series)
        result.metadata = {
            "trace": trace.name,
            "core": core,
            "crowd_size": cfg.crowd_size,
            "honest_top": m1,
            # "the flash crowd cannot influence the experienced core"
            "final_core_pollution": pollution_fraction(
                stack.runtime.nodes, cfg.spam_moderator, include=core
            ),
            "final_newcomer_pollution": pollution_fraction(
                stack.runtime.nodes,
                cfg.spam_moderator,
                include=[p for p in newcomers if p in stack.runtime.nodes],
            ),
        }
        return result

    def _install_experience(self, stack: SimulationStack) -> None:
        """Hook for ablations: swap the experience function after the
        stack (and its BarterCast service) exists.  Default: keep the
        threshold function the runtime built."""

    # ------------------------------------------------------------------
    def _setup_core(self, stack: SimulationStack, trace: Trace) -> tuple:
        """Fix the experienced core: the most-available non-free-riders,
        pre-converged on M1 and mutually experienced."""
        cfg = self.config
        stats = compute_stats(trace)
        candidates = sorted(
            (p for p in trace.peers.values() if not p.free_rider),
            key=lambda p: -stats.availability[p.peer_id],
        )
        core = [p.peer_id for p in candidates[: cfg.core_size]]
        if len(core) < cfg.core_size:
            extra = sorted(
                (p for p in trace.peers if p not in core),
                key=lambda pid: -stats.availability[pid],
            )
            core += extra[: cfg.core_size - len(core)]
        m1 = core[0]

        # Mutual experience: credit pre-run transfer history between
        # every ordered core pair (goes through the normal BarterCast
        # path so gossip spreads it to newcomers too).
        stack.runtime.bartercast.local_transfers(
            [(i, j, cfg.core_history_bytes) for i in core for j in core if i != j],
            now=0.0,
        )

        # Convergence on M1: every core member (except M1) voted +M1,
        # and each core ballot box already contains the others' votes.
        m1_node = stack.runtime.ensure_node(m1)
        m1_node.create_moderation("core-approved-torrent", "the good stuff", 0.0)
        for pid in core:
            if pid == m1:
                continue
            node = stack.runtime.ensure_node(pid)
            node.cast_vote(m1, Vote.POSITIVE, 0.0)
        for pid in core:
            node = stack.runtime.ensure_node(pid)
            for other in core:
                if other in (pid, m1):
                    continue
                node.ballot_box.merge(
                    other, [VoteEntry(m1, Vote.POSITIVE, 0.0)], now=0.0
                )
        return core, m1

    def _setup_crowd(self, stack: SimulationStack, honest_top: str) -> FlashCrowd:
        cfg = self.config
        crowd = FlashCrowd(
            stack.runtime,
            size=cfg.crowd_size,
            spam_moderator=cfg.spam_moderator,
            decoys=[honest_top] if cfg.crowd_slanders_honest else (),
        )
        crowd.arrive(0.0)
        if cfg.crowd_duty_cycle < 1.0:
            self._schedule_crowd_churn(stack, crowd)
        return crowd

    def _schedule_crowd_churn(self, stack: SimulationStack, crowd: FlashCrowd) -> None:
        """Colluders alternate online/offline so the attack strength in
        *online* nodes matches `crowd_duty_cycle · size` on average,
        mirroring the churn honest peers face."""
        cfg = self.config
        rng = stack.runtime._rng.stream("crowd-churn")
        period = cfg.crowd_duty_period
        on_time = period * cfg.crowd_duty_cycle
        engine = stack.engine

        def cycle(pid: str, phase: float) -> None:
            def go_offline() -> None:
                stack.runtime.take_offline(pid, engine.now)
                engine.schedule(period - on_time, go_online)

            def go_online() -> None:
                if engine.now >= cfg.duration:
                    return
                stack.runtime.bring_online(pid, engine.now)
                engine.schedule(on_time, go_offline)

            engine.schedule(phase, go_offline)

        for pid in crowd.members:
            cycle(pid, phase=float(rng.uniform(0.0, on_time)))

    # ------------------------------------------------------------------
    def run_many(
        self, n_runs: int = 10, jobs: Optional[int] = None
    ) -> ExperimentResult:
        """Replica average; ``jobs`` parallelises as in Fig 6's
        :meth:`VoteSamplingExperiment.run_many` (bit-identical for any
        worker count)."""
        pool = ReplicaPool(jobs=jobs)
        runs = pool.run_replicas(self, range(n_runs))
        result = ExperimentResult(
            name=f"fig8-spam-attack-x{self.config.crowd_size}-avg{n_runs}"
        )
        for i, r in enumerate(runs):
            result.series[f"run{i}"] = r.get("polluted_fraction")
        mean, std = average_series(
            [r.get("polluted_fraction") for r in runs], with_std=True
        )
        result.series["average"] = mean
        result.series["std"] = std
        result.metadata = {
            "n_runs": n_runs,
            "crowd_size": self.config.crowd_size,
            "jobs": pool.resolve_jobs(n_runs),
        }
        return result

