"""``python -m repro serve`` — run the long-lived service mode.

Spawns N shard workers (see :mod:`repro.sim.service`), each advancing
an always-online population in checkpoint-interval slices and writing
crash-safe checkpoints to ``--dir``.  The supervisor prints a status
line per ``--status-interval`` wall seconds (live merges/sec, lag,
checkpoint ops), restarts crashed shards from their last checkpoint,
and writes a final ``service_status.json``.  It exits 1, naming each
shard, when a shard was given up after ``max_restarts`` crashes or
stopped short of ``--until``.

::

    python -m repro serve --shards 4 --peers 200 --until 86400 \\
        --checkpoint-interval 3600 --dir runs/service
    python -m repro serve --resume runs/service    # pick up after a kill
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List

from repro.core.persistence import atomic_write_text
from repro.sim.aggregation import AggregationConfig
from repro.sim.service import (
    ServiceConfig,
    ServiceStatus,
    ServiceSupervisor,
    ShardConfig,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="long-lived sharded service mode with crash-safe checkpoints",
    )
    parser.add_argument("--shards", type=int, default=2, help="worker shard count")
    parser.add_argument("--peers", type=int, default=64, help="peers per shard")
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--until", type=float, default=24 * 3600.0,
        help="simulated horizon per shard (seconds)",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=3600.0,
        help="simulated seconds between shard checkpoints",
    )
    parser.add_argument(
        "--dir", type=Path, default=None,
        help="service directory (checkpoints, status files)",
    )
    parser.add_argument(
        "--resume", type=Path, default=None, metavar="DIR",
        help="resume every shard from its checkpoint under DIR",
    )
    parser.add_argument(
        "--status-interval", type=float, default=5.0,
        help="wall seconds between status lines",
    )
    parser.add_argument(
        "--aggregation", action="store_true",
        help="exchange ballot digests between shards over the Chord "
        "ring (publishes/pulls every checkpoint interval)",
    )
    parser.add_argument(
        "--aggregation-rate", type=int, default=200, metavar="VOTES",
        help="remote votes admitted per shard per interval (rate limit)",
    )
    parser.add_argument(
        "--aggregation-fanout", type=int, default=2, metavar="NODES",
        help="local nodes each pulled digest is merged into",
    )
    return parser


def shard_failures(status: ServiceStatus) -> List[str]:
    """One line per shard that did not finish: given up after its
    restarts ran out, or stopped with ``sim_now`` below its target.
    ``serve`` exits 1 when this is non-empty."""
    failures = []
    for shard in status.shards:
        if shard["gave_up"]:
            failures.append(
                f"shard {shard['shard_id']} gave up after "
                f"{shard['restarts']} restarts at t={shard['sim_now']:.0f}s"
            )
        elif shard["sim_now"] < shard["target"]:
            failures.append(
                f"shard {shard['shard_id']} stopped at "
                f"t={shard['sim_now']:.0f}s of {shard['target']:.0f}s"
            )
    return failures


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    directory = args.resume if args.resume is not None else args.dir
    if directory is None:
        parser.error("--dir (or --resume DIR) is required")
    try:
        aggregation = (
            AggregationConfig(
                shards=args.shards,
                max_votes_per_interval=args.aggregation_rate,
                merge_fanout=args.aggregation_fanout,
            )
            if args.aggregation
            else None
        )
        config = ServiceConfig(
            shards=args.shards,
            until=args.until,
            checkpoint_interval=args.checkpoint_interval,
            shard=ShardConfig(
                peers=args.peers,
                seed=args.seed,
                aggregation=aggregation,
            ),
        )
    except ValueError as exc:
        # refuse bad input here, before any worker is spawned
        parser.error(str(exc))
    with ServiceSupervisor(
        config, directory, resume=args.resume is not None
    ) as supervisor:
        supervisor.start()
        while not supervisor.done():
            time.sleep(args.status_interval)
            supervisor.poll()
            status = supervisor.status()
            totals = status.totals
            line = (
                f"[serve] alive={totals['alive']}/{totals['shards']} "
                f"sim={totals['sim_now_min']:.0f}..{totals['sim_now_max']:.0f}s "
                f"lag={totals['max_lag']:.0f}s "
                f"merges/s={totals['merges_per_sec']:.1f} "
                f"ckpts={totals['checkpoints']} restarts={totals['restarts']}"
            )
            if aggregation is not None:
                line += (
                    f" dht/s={totals['dht_messages_per_sec']:.1f}"
                    f" merge_lag={totals['merge_lag_votes']}"
                )
            print(line, flush=True)
        final = supervisor.status()
        summaries = [
            supervisor.shard_summary(i) for i in range(config.shards)
        ]
        atomic_write_text(
            Path(directory) / "service_status.json",
            json.dumps(
                {"status": final.to_dict(), "shards": summaries}, indent=2
            ),
        )
        failures = shard_failures(final)
        for failure in failures:
            print(f"[serve] FAILED: {failure}", file=sys.stderr, flush=True)
        if failures:
            return 1
        merged = sum(
            s["nodes"]["votes_merged"] for s in summaries if s is not None
        )
        print(
            f"[serve] done: {config.shards} shards to t={config.until:.0f}s, "
            f"{merged} votes merged, status in {directory}/service_status.json",
            flush=True,
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
