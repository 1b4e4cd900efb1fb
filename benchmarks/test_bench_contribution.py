"""Smoke gate for the contribution-cache speedup (``make bench-smoke``).

Runs ``scripts/bench_contribution.py`` on the quick Fig-6 workload and
fails if the warm (cached) scalar contribution path is not at least 3×
faster than the cold (uncached ``two_hop_flow``) path, or if the batch
memo does not beat the vectorised recompute.  Also re-checks, on the
post-run state, that cached values are the verbatim uncached results —
the speedup must not come from serving different numbers.

The JSON report is written to ``BENCH_contribution.json`` at the repo
root so future PRs accumulate a perf trajectory.
"""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_contribution", REPO_ROOT / "scripts" / "bench_contribution.py"
)
bench_contribution = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_contribution)


def test_warm_cache_speedup_gate(tmp_path):
    out = tmp_path / "BENCH_contribution.json"
    report = bench_contribution.run(full=False, seed=7, out=out)

    assert report["scalar"]["speedup"] >= 3.0, report["scalar"]
    assert report["batch"]["speedup"] >= 3.0, report["batch"]
    assert report["end_to_end"]["run_wall_clock_s"] > 0

    # The incremental flow-matrix cache must crush the cold recompute
    # on an idle graph, and the to_matrix gather must not regress below
    # the O(E) Python rebuild it replaced.
    assert report["matrix"]["flow_cache"]["speedup"] >= 3.0, report["matrix"]
    assert report["matrix"]["to_matrix"]["speedup"] >= 1.0, report["matrix"]

    # Parallel replicas must reproduce sequential output exactly; the
    # wall-clock speedup gate itself only binds on multi-core runners
    # (scripts/bench_contribution.py --check handles the skip).
    assert report["replicas"]["bit_identical"] is True, report["replicas"]
    if report["replicas"]["speedup_gate_active"]:
        assert report["replicas"]["speedup"] >= 1.5, report["replicas"]

    # Batch flows must equal the scalar replay in the documented order,
    # and a 10k-node graph must peak far under the O(n²) dense block.
    one_store = report["one_store"]
    assert one_store["paper_scale"]["flows_equal_scalar_replay"] is True, one_store
    assert one_store["paper_scale"]["fractional_flows_equal_scalar_replay"] is True
    large = one_store["large_scale"]
    assert large["build_peak_bytes"] * 100 < large["projected_dense_bytes"], large

    # The report must round-trip: it is the per-PR trajectory artifact.
    on_disk = json.loads(out.read_text())
    assert on_disk["scalar"] == report["scalar"]

    # Cached values must be the uncached values, verbatim.
    from repro.bartercast.maxflow import two_hop_flow

    stack, _, _ = bench_contribution.run_workload(full=False, seed=7)
    svc = stack.runtime.bartercast
    peers = list(stack.trace.peers)[:10]
    for observer in peers[:4]:
        for subject in peers:
            if observer == subject:
                continue
            cached = svc.contribution(observer, subject)  # populates
            again = svc.contribution(observer, subject)  # serves cache
            fresh = two_hop_flow(svc.graph_of(observer), subject, observer)
            assert cached == again == fresh
