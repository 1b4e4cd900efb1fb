"""Cross-backend property tests for the batch 2-hop flow.

The load-bearing contract (see ``two_hop_flows_to_sink``): the dense
closed form and the sparse backend's CSR kernel add the min terms over
the sink's in-column support in the same fixed order, so their flows
are **bit-identical** — an ``auto`` graph that crosses from the dense
to the sparse mirror mid-run keeps producing the same numbers.
"""

import random

import numpy as np
import pytest

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import (
    edmonds_karp,
    two_hop_flow,
    two_hop_flows_to_sink,
)

PEERS = [f"p{i:02d}" for i in range(24)]


def random_graph(owner, backend, seed, max_nodes=0):
    """Random subjective graph over PEERS plus strangers; a nonzero
    ``max_nodes`` forces B_max-style evictions along the way."""
    rng = random.Random(seed)
    ids = PEERS + [f"x{i}" for i in range(8)]
    g = SubjectiveGraph(owner, backend=backend, max_nodes=max_nodes)
    for _ in range(150):
        u, v = rng.sample(ids, 2)
        g.observe_direct(u, v, float(rng.randint(1, 900)))
    return g


class TestKernelBitIdentity:
    @pytest.mark.parametrize("max_nodes", [0, 18])
    def test_dense_csr_bit_identical(self, max_nodes):
        """Randomized property (with and without evictions): the dense
        closed form and the CSR kernel produce byte-for-byte equal
        flows."""
        for seed in range(6):
            sink = PEERS[seed % len(PEERS)]
            gd = random_graph(sink, "dense", seed, max_nodes)
            gs = random_graph(sink, "sparse", seed, max_nodes)
            np.testing.assert_array_equal(
                two_hop_flows_to_sink(gd, PEERS, sink),
                two_hop_flows_to_sink(gs, PEERS, sink),
            )

    @pytest.mark.parametrize("in_support", [7, 8, 9, 33, 129, 600])
    def test_fractional_weights_bit_identical(self, in_support):
        """Byte counts of a real run are fractional (``rate * scale *
        dt``), so the min terms do not sum exactly and the *order* of
        the reduction shows in the last ulp once the sink has 8 or more
        in-neighbours: both backends must add them in ascending support
        position.  The sources are feeders outside the support, five
        in-neighbours (which also carry a direct edge), two nodes the
        graph has never heard of and the sink itself."""
        rng = random.Random(in_support)
        mids = [f"k{i:03d}" for i in range(in_support)]
        feeders = [f"s{i:02d}" for i in range(40)]

        def build(backend):
            g = SubjectiveGraph("sink", backend=backend)
            for k in mids:
                g.observe_direct(k, "sink", rng.uniform(1.0, 5e6))
            for s in feeders + mids[:5]:
                for k in rng.sample(mids, rng.randint(in_support // 2, in_support)):
                    if k != s:
                        g.observe_direct(s, k, rng.uniform(1.0, 5e6))
            return g

        state = rng.getstate()
        dense = build("dense")
        rng.setstate(state)
        sparse = build("sparse")
        sources = feeders + mids[:5] + ["ghost", "sink", "nobody"]
        want = two_hop_flows_to_sink(dense, sources, "sink")
        assert np.count_nonzero(want) == len(feeders) + 5
        np.testing.assert_array_equal(
            want, two_hop_flows_to_sink(sparse, sources, "sink")
        )

    def test_flows_match_bounded_maxflow(self):
        """Spot-check both backends against edmonds_karp(max_hops=2)
        and the scalar closed form (float tolerance: summation order of
        the scalar path differs by design)."""
        for backend in ("dense", "sparse"):
            g = random_graph("p00", backend, 3)
            flows = two_hop_flows_to_sink(g, PEERS, "p00")
            for s in PEERS[:8]:
                want = edmonds_karp(g, s, "p00", max_hops=2)
                assert flows[PEERS.index(s)] == pytest.approx(want)
                assert flows[PEERS.index(s)] == pytest.approx(
                    two_hop_flow(g, s, "p00")
                )

    def test_unknown_sink_and_unknown_sources(self):
        for backend in ("dense", "sparse"):
            g = SubjectiveGraph("obs", backend=backend)
            g.observe_direct("a", "b", 10.0)
            flows = two_hop_flows_to_sink(g, ["a", "ghost", "nowhere"], "nowhere")
            np.testing.assert_array_equal(flows, np.zeros(3))
