#!/usr/bin/env python
"""cProfile one unit of a repo-benchmark workload.

    python scripts/profile_unit.py paper_fig6 --seed 7

builds the unit through ``bench.workloads.build`` (exactly what the
benchmark measures), runs it with cProfile on inside its measured
window only — the ``with window:`` blocks ``bench.run`` times, not
what a unit does between them (``service_cluster`` compares every
shard's identity state around its restore) — and prints the top
functions by self time with their call counts — where a
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

``--gc`` runs the unit without the profiler, with a ``gc.callbacks``
hook installed for the measured window only, and prints the number and
the seconds of full (generation-2) collections inside it next to the
window's wall time.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench.trace import Window  # noqa: E402
from bench.workloads import WORKLOADS, build  # noqa: E402


class HookedWindow(Window):
    """The measured window, calling ``on()`` on entering it and
    ``off()`` on leaving it, so that what they switch sees the window
    and nothing else of the unit."""

    def __init__(self, on, off):
        super().__init__()
        self._on, self._off = on, off

    def __enter__(self) -> "HookedWindow":
        self._on()
        super().__enter__()
        return self

    def __exit__(self, *exc_info) -> None:
        super().__exit__(*exc_info)
        self._off()


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
    parser.add_argument(
        "--gc",
        action="store_true",
        help="count and time full (generation-2) collections in the run window",
    )
    args = parser.parse_args()
    if args.memory:
        memory(args)
        return
    if args.gc:
        full_collections(args)
        return

    profiler = cProfile.Profile()
    if args.setup:
        profiler.enable()
    unit = build(args.workload, args.seed, args.size)
    try:
        if args.setup:
            profiler.disable()
        else:
            unit.run(HookedWindow(profiler.enable, profiler.disable))
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


def full_collections(args: argparse.Namespace) -> None:
    """The window under a ``gc.callbacks`` hook: how many generation-2
    collections ran inside it and how long they took."""
    spans: list = []
    started = [0.0]

    def hook(phase: str, info: dict) -> None:
        if info["generation"] != 2:
            return
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            spans.append(time.perf_counter() - started[0])

    window = HookedWindow(
        lambda: gc.callbacks.append(hook), lambda: gc.callbacks.remove(hook)
    )
    unit = build(args.workload, args.seed, args.size)
    try:
        unit.run(window)
    finally:
        unit.close()
    print(
        f"{args.workload} seed {args.seed}: window {window.seconds:.3f} s, "
        f"{len(spans)} full collections, {sum(spans):.3f} s"
        + (f" (longest {max(spans):.3f} s)" if spans else "")
    )


if __name__ == "__main__":
    main()
