"""Fig 5 — experience formation.

"We used trace based simulations to determine how quickly our system
would produce an experienced core for given threshold values T."

One simulation run (trace + piece-level BitTorrent + BarterCast gossip)
yields the CEV time series for *every* threshold at once, since CEV is
a pure post-processing of the flow matrix.  The paper's headline
observations this experiment must reproduce:

* smaller T ⇒ faster, higher CEV (curves ordered by T);
* T = 5 MB ⇒ roughly 20 % of ordered pairs experienced within ~12 h;
* even at 168 h the CEV stays well below 1 (free-riders + churn).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.runtime import RuntimeConfig
from repro.experiments.common import ExperimentResult, SimulationStack
from repro.metrics.cev import FlowMatrixCache, collective_experience_value
from repro.sim.units import DAY, MB
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig
from repro.traces.model import Trace


@dataclass
class ExperienceFormationConfig:
    """Fig 5 parameters."""

    seed: int = 0
    trace_replica: int = 0
    #: thresholds plotted, in bytes (the paper sweeps a few MB values
    #: and picks T = 5 MB).
    thresholds: Sequence[float] = (2 * MB, 5 * MB, 10 * MB, 20 * MB, 50 * MB)
    duration: float = 7 * DAY
    sample_interval: float = 3600.0
    trace: TraceGeneratorConfig = field(default_factory=TraceGeneratorConfig)
    runtime: Optional[RuntimeConfig] = None

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("need at least one threshold")
        if self.duration <= 0:
            raise ValueError("duration must be positive")


class ExperienceFormationExperiment:
    """Regenerates Fig 5 from one trace replica."""

    def __init__(self, config: Optional[ExperienceFormationConfig] = None):
        self.config = config or ExperienceFormationConfig()

    def _make_trace(self) -> Trace:
        cfg = self.config
        trace_cfg = cfg.trace
        if trace_cfg.duration != cfg.duration:
            # Keep the trace horizon in lock-step with the experiment's.
            trace_cfg = TraceGeneratorConfig(
                **{**trace_cfg.__dict__, "duration": cfg.duration}
            )
        return TraceGenerator(trace_cfg, seed=cfg.seed).generate(cfg.trace_replica)

    def run(self) -> ExperimentResult:
        cfg = self.config
        trace = self._make_trace()
        stack = SimulationStack.build(
            trace,
            seed=cfg.seed,
            runtime_config=cfg.runtime,
            sample_interval=cfg.sample_interval,
        )
        peers = list(trace.peers)
        # One incremental flow-matrix cache shared by every sample:
        # only observers whose graph changed since the previous sample
        # cost a row recompute.
        flow_cache = FlowMatrixCache(stack.runtime.bartercast, peers)

        def probe():
            cev = collective_experience_value(
                stack.runtime.bartercast, peers, cfg.thresholds, cache=flow_cache
            )
            return {f"T={t / MB:g}MB": v for t, v in cev.items()}

        stack.recorder.add_probe("cev", probe)
        stack.run(until=cfg.duration)

        result = ExperimentResult(name="fig5-experience-formation")
        result.series = dict(stack.recorder.series)
        result.metadata = {
            "trace": trace.name,
            "peers": len(trace.peers),
            "thresholds_mb": [t / MB for t in cfg.thresholds],
            "total_transfer_mb": stack.session.ledger.total_bytes / MB,
            "flow_rows_recomputed": flow_cache.rows_recomputed,
            "flow_rows_reused": flow_cache.rows_reused,
        }
        return result
