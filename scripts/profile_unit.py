#!/usr/bin/env python
"""cProfile one unit of a repo-benchmark workload.

    python scripts/profile_unit.py paper_fig6 --seed 7

builds the unit through ``bench.workloads.build`` (exactly what the
benchmark measures), runs its measured window under cProfile and prints
the top functions by self time with their call counts — where a
performance issue's "N calls of X" figures come from.  ``--setup``
profiles the ``build`` call instead (the benchmark's ``setup_s``) and
runs no window.  cProfile taxes every Python call and no native code,
so use it to find candidates and ``python3 -m bench.run`` to measure
them.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.trace import Window  # noqa: E402
from bench.workloads import WORKLOADS, build  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--size", default="full", choices=("full", "tiny"))
    parser.add_argument("--top", type=int, default=25)
    parser.add_argument(
        "--setup", action="store_true", help="profile build() instead of the run window"
    )
    args = parser.parse_args()

    profiler = cProfile.Profile()
    if args.setup:
        profiler.enable()
    unit = build(args.workload, args.seed, args.size)
    try:
        if not args.setup:
            profiler.enable()
            unit.run(Window())
        profiler.disable()
    finally:
        unit.close()
    pstats.Stats(profiler).sort_stats("tottime").print_stats(args.top)


if __name__ == "__main__":
    main()
