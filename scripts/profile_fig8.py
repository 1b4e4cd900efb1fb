#!/usr/bin/env python
"""cProfile one Fig 8 flash-crowd run.

    python scripts/profile_fig8.py --peers 100
    python scripts/profile_fig8.py --peers 10000 --wall

runs :class:`~repro.experiments.spam_attack.SpamAttackExperiment` — a
trace of ``--peers`` peers, the paper's experienced core of 30 and a
crowd of 60 on its duty cycle, ``--hours`` simulated — under cProfile
and prints the wall time, the process's peak RSS (``ru_maxrss``), the
scheduler's tick and batch-handler counts, the subjective graphs' total
edge count and the top functions by self time.  ``--wall`` skips the
profiler and prints that line only (cProfile taxes every Python call).
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.spam_attack import (  # noqa: E402
    SpamAttackConfig,
    SpamAttackExperiment,
)
from repro.sim.units import HOUR  # noqa: E402
from repro.traces.generator import TraceGeneratorConfig  # noqa: E402


class _KeepStack(SpamAttackExperiment):
    def _install_experience(self, stack) -> None:
        self.stack = stack


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--peers", type=int, default=100)
    parser.add_argument("--hours", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument("--wall", action="store_true", help="no profiler")
    args = parser.parse_args()

    duration = args.hours * HOUR
    experiment = _KeepStack(
        SpamAttackConfig(
            seed=args.seed,
            duration=duration,
            trace=TraceGeneratorConfig(n_peers=args.peers, duration=duration),
        )
    )
    profiler = None if args.wall else cProfile.Profile()
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    result = experiment.run()
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - t0
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    runtime = experiment.stack.runtime
    population = runtime.run_summary()["population"]
    bartercast = runtime.bartercast
    edges = sum(
        len(row) for p in bartercast._nodes for row in bartercast.graph_of(p)._out.values()
    )
    print(
        f"fig8 peers={args.peers} hours={args.hours:g} seed={args.seed}: "
        f"wall {wall:.2f} s, peak RSS {peak_rss_mb:.0f} MB, "
        f"graph edges {edges}, ticks {population['ticks']}, "
        f"batch_calls {population['batch_calls']}, final newcomer "
        f"pollution {result.metadata['final_newcomer_pollution']:.3f}"
    )
    if profiler is not None:
        pstats.Stats(profiler).sort_stats("tottime").print_stats(args.top)


if __name__ == "__main__":
    main()
