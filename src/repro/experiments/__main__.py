"""Command-line entry: regenerate the paper's figures.

Usage::

    python -m repro.experiments fig5 [--quick] [--seed N]
    python -m repro.experiments fig6 [--quick] [--runs N] [--jobs N]
    python -m repro.experiments fig8 [--quick] [--crowd N] [--jobs N]
    python -m repro.experiments all  [--quick]

``--quick`` shrinks durations/populations so each figure renders in
well under a minute; without it the full paper-scale workloads run.
``--jobs`` farms independent replicas (fig6 runs, fig8 crowd sizes,
ablation variants) over worker processes — output is bit-identical to
the default sequential run.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments.common import ascii_chart
from repro.experiments.experience_formation import (
    ExperienceFormationConfig,
    ExperienceFormationExperiment,
)
from repro.experiments.spam_attack import SpamAttackConfig, SpamAttackExperiment
from repro.experiments.vote_sampling import (
    VoteSamplingConfig,
    VoteSamplingExperiment,
)
from repro.sim.parallel import ReplicaPool
from repro.sim.units import DAY
from repro.traces.generator import TraceGeneratorConfig


def _quick_trace(duration: float) -> TraceGeneratorConfig:
    return TraceGeneratorConfig(n_peers=50, n_swarms=6, duration=duration)


def run_fig5(args) -> None:
    duration = 1 * DAY if args.quick else 7 * DAY
    cfg = ExperienceFormationConfig(seed=args.seed, duration=duration)
    if args.quick:
        cfg.trace = _quick_trace(duration)
    print(f"[fig5] experience formation, duration={duration / DAY:g}d …")
    result = ExperienceFormationExperiment(cfg).run()
    print(ascii_chart(result.series, y_max=1.0))
    for row in result.summary_rows():
        print("  " + row)


def run_fig6(args) -> None:
    duration = 1.5 * DAY if args.quick else 7 * DAY
    cfg = VoteSamplingConfig(seed=args.seed, duration=duration)
    if args.quick:
        cfg.trace = _quick_trace(duration)
    exp = VoteSamplingExperiment(cfg)
    if args.runs > 1:
        print(f"[fig6] vote sampling, {args.runs} runs averaged …")
        result = exp.run_many(args.runs, jobs=args.jobs)
        shown = {
            k: v
            for k, v in result.series.items()
            if k in ("average", "run0", "run1", "run2")
        }
    else:
        print("[fig6] vote sampling, single run …")
        result = exp.run()
        shown = result.series
    print(ascii_chart(shown, y_max=1.0))
    for row in result.summary_rows():
        print("  " + row)


def run_fig8(args) -> None:
    duration = 1.5 * DAY if args.quick else 3 * DAY
    experiments = []
    for crowd in args.crowd:
        cfg = SpamAttackConfig(seed=args.seed, crowd_size=crowd, duration=duration)
        if args.quick:
            cfg.trace = _quick_trace(duration)
            cfg.core_size = 15
        print(f"[fig8] spam attack, crowd={crowd} …")
        experiments.append((crowd, SpamAttackExperiment(cfg)))
    # Crowd sizes are independent runs — farm them like replicas.
    pool = ReplicaPool(jobs=args.jobs)
    results = pool.run_tasks([(exp, None) for _crowd, exp in experiments])
    series = {
        f"crowd={crowd}": result.get("polluted_fraction")
        for (crowd, _exp), result in zip(experiments, results)
    }
    print(ascii_chart(series, y_max=1.0))


def run_ablations(args) -> None:
    from repro.experiments.ablations import (
        ablation_churn,
        ablation_exchange_policy,
        ablation_pss,
        ablation_voxpopuli,
    )
    from repro.traces.generator import TraceGeneratorConfig
    from repro.experiments.vote_sampling import VoteSamplingConfig

    duration = 1.25 * DAY if args.quick else 7 * DAY
    base = VoteSamplingConfig(seed=args.seed, duration=duration)
    if args.quick:
        base.trace = TraceGeneratorConfig(n_peers=50, n_swarms=6, duration=duration)
    suites = {
        "A2 exchange policy": ablation_exchange_policy,
        "A3 PSS": ablation_pss,
        "A6 VoxPopuli": ablation_voxpopuli,
        "A8 churn": ablation_churn,
    }
    for title, fn in suites.items():
        print(f"[ablation] {title} …")
        for label, result in fn(base, jobs=args.jobs).items():
            s = result.get("correct_fraction")
            print(f"  {label:<20} final={s.final():.3f} mean={s.values.mean():.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.experiments")
    parser.add_argument("figure", choices=["fig5", "fig6", "fig8", "ablations", "all"])
    parser.add_argument("--quick", action="store_true", help="shrunken workloads")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=1, help="fig6 replicas")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent runs "
        "(default: min(n_runs, usable CPUs); 1 = sequential)",
    )
    parser.add_argument(
        "--crowd",
        type=int,
        nargs="+",
        default=[30, 60],
        help="fig8 flash-crowd sizes",
    )
    args = parser.parse_args(argv)
    if args.figure in ("fig5", "all"):
        run_fig5(args)
    if args.figure in ("fig6", "all"):
        run_fig6(args)
    if args.figure in ("fig8", "all"):
        run_fig8(args)
    if args.figure == "ablations":
        run_ablations(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
