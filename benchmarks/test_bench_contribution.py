"""Smoke gate for the contribution-oracle benchmark (``make bench``).

Runs ``scripts/bench_contribution.py`` on the quick Fig-6 workload and
fails if the incremental flow-matrix cache does not beat a cold
recompute, if parallel replicas diverge from sequential ones, or if
the batch 2-hop flows diverge from their scalar replay or build a
dense-sized block.

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


def test_contribution_bench_gates(tmp_path):
    out = tmp_path / "BENCH_contribution.json"
    report = bench_contribution.run(full=False, seed=7, out=out)

    assert report["end_to_end"]["run_wall_clock_s"] > 0

    # The incremental flow-matrix cache must crush the cold recompute
    # on an idle graph, and the to_matrix gather must not regress below
    # the O(E) Python rebuild it replaced.
    assert report["matrix"]["flow_cache"]["speedup"] >= 3.0, report["matrix"]
    assert report["matrix"]["to_matrix"]["speedup"] >= 1.0, report["matrix"]

    # Parallel replicas must reproduce sequential output exactly (the
    # wall-clock ratio is recorded, not gated).
    assert report["replicas"]["bit_identical"] is True, report["replicas"]

    # Batch flows must equal the scalar replay in the documented order,
    # and a 10k-node graph must peak far under the O(n²) dense block.
    one_store = report["one_store"]
    assert one_store["paper_scale"]["flows_equal_scalar_replay"] is True, one_store
    assert one_store["paper_scale"]["fractional_flows_equal_scalar_replay"] is True
    large = one_store["large_scale"]
    assert large["build_peak_bytes"] * 100 < large["projected_dense_bytes"], large

    # The report must round-trip: it is the per-PR trajectory artifact.
    on_disk = json.loads(out.read_text())
    assert on_disk["one_store"] == report["one_store"]
