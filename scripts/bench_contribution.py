#!/usr/bin/env python
"""Contribution-oracle benchmark: cold vs warm lookups on a Fig-6 run.

Runs the standard Fig-6 vote-sampling workload (quick scale by
default), then measures on the resulting BarterCast state:

* **scalar** — ``contribution(observer, subject)`` throughput, cold
  (direct ``two_hop_flow`` evaluation, exactly the pre-cache hot path)
  vs warm (version-keyed cache hits);
* **batch** — ``contributions_to_observer`` rows/sec, cold (vectorised
  closed form) vs warm (batch memo hits);
* **end-to-end** — wall-clock of the simulation run itself, with the
  run's cache counters;
* **replicas** — sequential (``jobs=1``) vs parallel 4-replica Fig-6
  ``run_many`` wall clock, plus a bit-identity cross-check of every
  series the two paths produce;
* **matrix** — ``SubjectiveGraph.to_matrix`` (incremental numpy
  gather) vs a reference O(E) Python rebuild, and the incremental
  ``FlowMatrixCache`` vs a cold full ``flow_matrix`` recompute;
* **one_store** — the batch 2-hop flow over the graphs' one edge
  store: equality with a per-source scalar replay in the documented
  reduction order at paper scale and on fractional weights, flow
  timing, plus a 10k-node synthetic build whose tracemalloc peak must
  stay under 1 % of the ``n²·8``-byte dense block, and the batch
  flow's peak on it.

Results land in ``BENCH_contribution.json`` at the repo root so the
perf trajectory accumulates across PRs.  ``--check`` exits non-zero
when the warm scalar path is less than ``--min-speedup`` (default 3×)
faster than cold, when parallel and sequential replica output differ,
when batch flows differ from the scalar replay, or when the 10k-node
build's peak reaches 1 % of the dense block — the regression gate
``make bench-smoke`` runs.

Usage::

    PYTHONPATH=src python scripts/bench_contribution.py [--full] [--check]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import two_hop_flow, two_hop_flows_to_sink
from repro.core.node import NodeConfig
from repro.experiments.vote_sampling import VoteSamplingConfig, VoteSamplingExperiment
from repro.metrics.cev import FlowMatrixCache, flow_matrix
from repro.sim.units import HOUR, MB
from repro.traces.generator import TraceGeneratorConfig

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_workload(full: bool, seed: int):
    """One Fig-6 vote-sampling run; returns (stack, wall_clock, result)."""
    hours = 72.0 if full else 6.0
    n_peers = 100 if full else 40
    n_swarms = 12 if full else 5
    cfg = VoteSamplingConfig(
        seed=seed,
        duration=hours * HOUR,
        sample_interval=1800.0,
        experience_threshold=5 * MB,
        node=NodeConfig(b_min=5, b_max=100, v_max=10, k=3),
        trace=TraceGeneratorConfig(
            n_peers=n_peers, n_swarms=n_swarms, duration=hours * HOUR
        ),
    )
    experiment = VoteSamplingExperiment(cfg)
    t0 = time.perf_counter()
    result = experiment.run()
    wall = time.perf_counter() - t0
    assert experiment.last_stack is not None
    return experiment.last_stack, wall, result


def _timed_rounds(fn, min_seconds: float = 0.2):
    """Run ``fn`` (one full pass) repeatedly until ``min_seconds`` of
    total runtime accumulates; returns (passes, elapsed)."""
    passes = 0
    t0 = time.perf_counter()
    while True:
        fn()
        passes += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_seconds:
            return passes, elapsed


def bench_scalar(svc, pairs):
    """Cold (uncached two_hop_flow) vs warm (cache hit) lookups/sec."""

    def cold_pass():
        for observer, subject in pairs:
            two_hop_flow(svc.graph_of(observer), subject, observer)

    def warm_pass():
        for observer, subject in pairs:
            svc.contribution(observer, subject)

    cold_passes, cold_t = _timed_rounds(cold_pass)
    svc.clear_caches()
    warm_pass()  # prime: every pair becomes a cache entry
    warm_passes, warm_t = _timed_rounds(warm_pass)
    cold_rate = cold_passes * len(pairs) / cold_t
    warm_rate = warm_passes * len(pairs) / warm_t
    return {
        "pairs": len(pairs),
        "cold_lookups_per_s": round(cold_rate),
        "warm_lookups_per_s": round(warm_rate),
        "speedup": round(warm_rate / cold_rate, 2),
    }


def bench_batch(svc, observers, subjects):
    """Cold (vectorised recompute) vs warm (memo hit) rows/sec."""

    def cold_pass():
        svc.clear_caches()
        for observer in observers:
            svc.contributions_to_observer(observer, subjects)

    def warm_pass():
        for observer in observers:
            svc.contributions_to_observer(observer, subjects)

    cold_passes, cold_t = _timed_rounds(cold_pass)
    warm_pass()  # prime the memo
    warm_passes, warm_t = _timed_rounds(warm_pass)
    rows = len(observers) * len(subjects)
    cold_rate = cold_passes * rows / cold_t
    warm_rate = warm_passes * rows / warm_t
    return {
        "observers": len(observers),
        "subjects": len(subjects),
        "cold_rows_per_s": round(cold_rate),
        "warm_rows_per_s": round(warm_rate),
        "speedup": round(warm_rate / cold_rate, 2),
    }


def bench_replicas(seed: int, n_replicas: int = 4) -> dict:
    """Sequential vs parallel ``run_many`` wall clock on a quick Fig-6.

    The parallel leg always uses >= 2 workers so the pool machinery
    (spawn, pickling, result ordering) is exercised even on a
    single-core runner.  Bit-identity is gated; the speed-up is
    recorded, not gated: these replicas run ~0.3 s each, so the ratio
    measures spawn start-up (0.56–1.11× on two cores), not the pool.
    The measurement that decides whether ``ReplicaPool`` earns its
    place is a figure run — ``fig6 --quick --runs 4``, ``--jobs 2``
    against ``--jobs 1``, ≈1.6× — and lives in EXPERIMENTS.md.
    """
    hours = 6.0
    cfg = VoteSamplingConfig(
        seed=seed,
        duration=hours * HOUR,
        sample_interval=1800.0,
        trace=TraceGeneratorConfig(
            n_peers=30, n_swarms=4, duration=hours * HOUR
        ),
    )
    cpu = os.cpu_count() or 1
    jobs = min(n_replicas, max(2, cpu))

    t0 = time.perf_counter()
    seq = VoteSamplingExperiment(cfg).run_many(n_replicas, jobs=1)
    seq_t = time.perf_counter() - t0

    t0 = time.perf_counter()
    par = VoteSamplingExperiment(cfg).run_many(n_replicas, jobs=jobs)
    par_t = time.perf_counter() - t0

    bit_identical = seq.keys() == par.keys() and all(
        np.array_equal(seq.get(k).as_array(), par.get(k).as_array())
        for k in seq.keys()
    )
    return {
        "n_replicas": n_replicas,
        "jobs": jobs,
        "cpu_count": cpu,
        "sequential_s": round(seq_t, 2),
        "parallel_s": round(par_t, 2),
        "speedup": round(seq_t / par_t, 2),
        "bit_identical": bit_identical,
    }


def _rebuild_matrix(graph, order):
    """Reference O(E) edge-by-edge rebuild — the pre-incremental
    ``to_matrix`` implementation, kept as the benchmark baseline."""
    ids = list(order)
    index = {pid: i for i, pid in enumerate(ids)}
    mat = np.zeros((len(ids), len(ids)))
    for u, v, w in graph.edges():
        ui, vi = index.get(u), index.get(v)
        if ui is not None and vi is not None:
            mat[ui, vi] = w
    return mat


def bench_matrix(svc, observers, peers) -> dict:
    """The two matrix hot paths the CEV metric leans on.

    *gather*: :meth:`SubjectiveGraph.to_matrix` (one scatter of the
    adjacency rows' cells) vs the O(E) cell-by-cell Python rebuild.
    *flow cache*: warm :class:`FlowMatrixCache` samples (no graph
    changes → all rows reused) vs cold full ``flow_matrix`` recomputes.
    """
    graphs = [svc.graph_of(p) for p in observers]
    order = list(peers)

    def gather_pass():
        for g in graphs:
            g.to_matrix(order)

    def rebuild_pass():
        for g in graphs:
            _rebuild_matrix(g, order)

    rebuild_passes, rebuild_t = _timed_rounds(rebuild_pass)
    gather_passes, gather_t = _timed_rounds(gather_pass)
    rebuild_rate = rebuild_passes * len(graphs) / rebuild_t
    gather_rate = gather_passes * len(graphs) / gather_t

    def cold_flow_pass():
        svc.clear_caches()
        flow_matrix(svc, order)

    cache = FlowMatrixCache(svc, order)
    cache.matrix()  # prime: every observer row computed once

    def warm_flow_pass():
        cache.matrix()

    cold_passes, cold_t = _timed_rounds(cold_flow_pass)
    warm_passes, warm_t = _timed_rounds(warm_flow_pass)
    cold_rate = cold_passes / cold_t
    warm_rate = warm_passes / warm_t
    return {
        "to_matrix": {
            "graphs": len(graphs),
            "order_size": len(order),
            "rebuild_matrices_per_s": round(rebuild_rate),
            "gather_matrices_per_s": round(gather_rate),
            "speedup": round(gather_rate / rebuild_rate, 2),
        },
        "flow_cache": {
            "peers": len(order),
            "cold_matrices_per_s": round(cold_rate, 1),
            "warm_matrices_per_s": round(warm_rate, 1),
            "speedup": round(warm_rate / cold_rate, 2),
            "rows_recomputed": cache.rows_recomputed,
            "rows_reused": cache.rows_reused,
        },
    }


def replay_flow(graph: SubjectiveGraph, source: str, sink: str) -> float:
    """One source's 2-hop flow replayed scalar-wise in the documented
    batch order: the ``min`` terms over the sink's in-row in ascending
    node-id order, then the direct edge."""
    if source == sink:
        return 0.0
    out = graph.successors(source)
    acc = 0.0
    for k, w_kt in sorted(graph.predecessors(sink).items()):
        if k in out:
            acc += min(out[k], w_kt)
    return out.get(sink, 0.0) + acc


def _replays_equal(graph: SubjectiveGraph, sources, sink: str) -> bool:
    flows = two_hop_flows_to_sink(graph, sources, sink)
    want = np.array([replay_flow(graph, s, sink) for s in sources])
    return bool(np.array_equal(flows, want))


def bench_one_store(svc, observers, peers, large_n: int = 10_000) -> dict:
    """The batch 2-hop flow over the one edge store.

    *Paper scale*: on the run's most-connected subjective graphs, the
    batch flows into each owner must equal a per-source scalar replay
    in the documented reduction order **bit for bit**, and so must a
    synthetic sink with 600 in-neighbours on fractional weights (where
    a different order shows in the last ulp); the batch evaluation is
    timed.  *Large scale*: build a ``large_n``-node synthetic graph
    under tracemalloc and report its peak against the ``n²·8`` bytes a
    dense block would take, plus the peak of one batch evaluation into
    a high-in-degree sink (every third node feeds it).
    """
    order = list(peers)
    graphs = [svc.graph_of(o) for o in observers]
    paper_equal = all(_replays_equal(g, order, g.owner) for g in graphs)

    rng = np.random.default_rng(600)
    frac = SubjectiveGraph("sink")
    mids = [f"k{i:03d}" for i in range(600)]
    for k in mids:
        frac.observe_direct(k, "sink", float(rng.uniform(1.0, 5e6)))
    feeders = [f"s{i:02d}" for i in range(40)]
    for src in feeders:
        for k in rng.choice(mids, size=int(rng.integers(300, 600)), replace=False):
            frac.observe_direct(src, str(k), float(rng.uniform(1.0, 5e6)))
    fractional_equal = _replays_equal(frac, feeders + ["ghost", "sink"], "sink")

    def flow_pass():
        for g in graphs:
            two_hop_flows_to_sink(g, order, g.owner)

    passes, flow_t = _timed_rounds(flow_pass)

    # Large scale: a ring plus skip links plus one wide sink.
    tracemalloc.start()
    t0 = time.perf_counter()
    big = SubjectiveGraph("hub")
    for i in range(large_n):
        big.observe_direct(f"n{i}", f"n{(i + 1) % large_n}", float(i % 23 + 1))
        if i % 5 == 0:
            big.observe_direct(f"n{i}", f"n{(i + 7) % large_n}", 2.0)
        if i % 3 == 0:
            big.observe_direct(f"n{i}", "sink", float(i % 11 + 1))
    build_t = time.perf_counter() - t0
    _current, build_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    window = [f"n{i}" for i in range(128)]
    t0 = time.perf_counter()
    two_hop_flows_to_sink(big, window, "n1")
    flow_window_t = time.perf_counter() - t0
    spread = [f"n{i}" for i in range(0, large_n, max(1, large_n // 512))]
    tracemalloc.start()
    two_hop_flows_to_sink(big, spread, "sink")
    _current, flow_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "paper_scale": {
            "graphs": len(graphs),
            "order_size": len(order),
            "flows_equal_scalar_replay": paper_equal,
            "fractional_flows_equal_scalar_replay": fractional_equal,
            "flow_evals_per_s": round(passes * len(graphs) / flow_t, 1),
        },
        "large_scale": {
            "nodes": large_n,
            "edges": big.num_edges(),
            "build_s": round(build_t, 2),
            "build_peak_bytes": build_peak,
            "flow_window_s": round(flow_window_t, 3),
            "flow_sources": len(spread),
            "flow_peak_bytes": flow_peak,
            "projected_dense_bytes": large_n * large_n * 8,
        },
    }


def run(full: bool = False, seed: int = 7, out: Path = None) -> dict:
    stack, wall, _result = run_workload(full, seed)
    svc = stack.runtime.bartercast
    run_stats = svc.cache_stats()

    # Most-connected subjective graphs carry the realistic lookup cost.
    peers = sorted(
        stack.trace.peers, key=lambda p: svc.graph_of(p).num_edges(), reverse=True
    )
    observers = peers[:8]
    subjects = peers[:25]
    pairs = [(o, s) for o in observers for s in subjects if o != s]

    scalar = bench_scalar(svc, pairs)
    batch = bench_batch(svc, observers, list(stack.trace.peers))
    matrix = bench_matrix(svc, observers, list(stack.trace.peers))
    one_store = bench_one_store(svc, observers, list(stack.trace.peers))
    replicas = bench_replicas(seed)

    report = {
        "name": "bench_contribution",
        "mode": "full" if full else "quick",
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "workload": {
            "n_peers": len(stack.trace.peers),
            "trace_events": len(stack.trace.events),
            "duration_hours": stack.trace.duration / HOUR,
            "bartercast_exchanges": svc.exchanges,
            "mean_graph_edges": round(
                sum(svc.graph_of(p).num_edges() for p in stack.trace.peers)
                / max(1, len(stack.trace.peers)),
                1,
            ),
        },
        "end_to_end": {
            "run_wall_clock_s": round(wall, 2),
            "trace_events_per_s": round(len(stack.trace.events) / wall, 1),
            "cache_stats": run_stats,
        },
        "scalar": scalar,
        "batch": batch,
        "matrix": matrix,
        "one_store": one_store,
        "replicas": replicas,
    }
    out = out or REPO_ROOT / "BENCH_contribution.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="paper-scale workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless warm scalar lookups beat cold by --min-speedup",
    )
    parser.add_argument("--min-speedup", type=float, default=3.0)
    args = parser.parse_args(argv)

    report = run(full=args.full, seed=args.seed, out=args.out)
    print(json.dumps(report, indent=2))
    if not args.check:
        return 0
    failures = []
    if report["scalar"]["speedup"] < args.min_speedup:
        failures.append(
            f"warm/cold speedup {report['scalar']['speedup']:.2f}x "
            f"< required {args.min_speedup:.1f}x"
        )
    paper = report["one_store"]["paper_scale"]
    if not paper["flows_equal_scalar_replay"]:
        failures.append("batch 2-hop flows diverged from the scalar replay")
    if not paper["fractional_flows_equal_scalar_replay"]:
        failures.append("fractional-weight batch flows diverged from the scalar replay")
    large = report["one_store"]["large_scale"]
    if large["build_peak_bytes"] * 100 >= large["projected_dense_bytes"]:
        failures.append(
            f"building {large['nodes']} nodes peaked at "
            f"{large['build_peak_bytes']} bytes — not under 1 % of the "
            f"{large['projected_dense_bytes']}-byte dense block"
        )
    replicas = report["replicas"]
    if not replicas["bit_identical"]:
        failures.append("parallel run_many output diverged from sequential")
    if failures:
        for f in failures:
            print(f"FAIL: {f}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
