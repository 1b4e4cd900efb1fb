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

``--memory`` runs ``build`` under ``tracemalloc`` instead and prints
the top allocation sites of what it retains, then the retained bytes
per peer — the "bytes per peer" figure of a memory issue.  It sees
Python objects and numpy buffers, not the ballot pool's anonymous
memory maps (``run_summary()["population"]["ballot_pool"]`` reports
those), so it is a floor on the unit's footprint.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
import tracemalloc
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
    parser.add_argument(
        "--memory",
        action="store_true",
        help="trace what build() retains: top allocation sites, bytes per peer",
    )
    args = parser.parse_args()
    if args.memory:
        memory(args)
        return

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


def _peers(unit) -> int:
    stack = getattr(unit, "stack", None)
    if stack is not None:
        return len(stack.trace.peers)
    return sum(len(shard.runtime.nodes) for shard in unit.cluster.shards)


def memory(args: argparse.Namespace) -> None:
    tracemalloc.start()
    unit = build(args.workload, args.seed, args.size)
    try:
        snapshot = tracemalloc.take_snapshot()
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        print(f"top {args.top} allocation sites retained by build():")
        for stat in snapshot.statistics("lineno")[: args.top]:
            print(f"  {stat.size / 1e6:9.3f} MB {stat.count:9d} blocks  {stat.traceback}")
        peers = _peers(unit)
        print(
            f"retained {retained / 1e6:.1f} MB (peak {peak / 1e6:.1f} MB) over "
            f"{peers} peers: {retained / peers:.0f} B/peer"
        )
    finally:
        unit.close()


if __name__ == "__main__":
    main()
