#!/usr/bin/env python
"""Collect paper-scale measured results for EXPERIMENTS.md.

Runs the three figure experiments at full scale (100 peers, paper
durations), writes a JSON summary to ``results/summary.json`` and the
reproduced figures as SVG charts (``results/fig5.svg`` …).

``--jobs N`` farms replica runs (fig6's 10, fig8's 3 per crowd size)
over worker processes; results are bit-identical to the sequential
default.
"""

import argparse
import json
import time
from pathlib import Path

from repro.experiments.experience_formation import (
    ExperienceFormationConfig,
    ExperienceFormationExperiment,
)
from repro.experiments.spam_attack import SpamAttackConfig, SpamAttackExperiment
from repro.experiments.vote_sampling import VoteSamplingConfig, VoteSamplingExperiment
from repro.viz.svg import render_series

OUT = Path(__file__).resolve().parent.parent / "results"
OUT.mkdir(exist_ok=True)


def series_points(series, hours):
    return {h: round(float(series.value_at(h * 3600.0)), 4) for h in hours}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for replica runs "
        "(default: min(n_runs, usable CPUs); 1 = sequential)",
    )
    args = parser.parse_args(argv)
    summary = {}

    t0 = time.time()
    print("fig5: 7-day experience formation …", flush=True)
    fig5 = ExperienceFormationExperiment(
        ExperienceFormationConfig(seed=1)
    ).run()
    summary["fig5"] = {
        name: series_points(fig5.get(name), [6, 12, 24, 48, 96, 168])
        for name in fig5.keys()
    }
    render_series(
        fig5.series,
        "Fig 5 — Collective Experience Value over time",
        OUT / "fig5.svg",
        y_label="CEV",
    )
    print(f"  done in {time.time() - t0:.0f}s", flush=True)

    t0 = time.time()
    print("fig6: 7-day vote sampling, 10-run average …", flush=True)
    fig6 = VoteSamplingExperiment(VoteSamplingConfig(seed=2)).run_many(
        10, jobs=args.jobs
    )
    summary["fig6"] = {
        "average": series_points(fig6.get("average"), [6, 12, 24, 48, 96, 168]),
        "runs_final": {
            k: round(float(fig6.get(k).final()), 4)
            for k in fig6.keys()
            if k.startswith("run")
        },
    }
    render_series(
        {
            k: fig6.get(k)
            for k in ("average", "run0", "run1", "run2")
            if k in fig6.series
        },
        "Fig 6 — fraction of nodes with correct ordering M1>M2>M3",
        OUT / "fig6.svg",
        y_label="correct fraction",
    )
    print(f"  done in {time.time() - t0:.0f}s", flush=True)

    summary["fig8"] = {}
    fig8_chart: dict = {}
    for crowd in (15, 30, 60):
        t0 = time.time()
        print(f"fig8: 3-day spam attack, crowd={crowd}, 3-run average …", flush=True)
        fig8 = SpamAttackExperiment(
            SpamAttackConfig(seed=3, crowd_size=crowd)
        ).run_many(3, jobs=args.jobs)
        s = fig8.get("average")
        summary["fig8"][f"crowd={crowd}"] = {
            "points": series_points(s, [2, 6, 12, 24, 36, 48, 72]),
            "peak": round(float(s.values.max()), 4),
            "final": round(float(s.final()), 4),
        }
        fig8_chart[f"crowd={crowd}"] = s
        print(f"  done in {time.time() - t0:.0f}s", flush=True)
    render_series(
        fig8_chart,
        "Fig 8 — newly arrived nodes ranking spam moderator M0 top",
        OUT / "fig8.svg",
        y_label="polluted fraction",
    )

    path = OUT / "summary.json"
    path.write_text(json.dumps(summary, indent=2))
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
