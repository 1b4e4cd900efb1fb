"""Property tests for the batch 2-hop flow.

The load-bearing contract (see ``two_hop_flows_to_sink``): the min
terms over the sink's in-row are added one after another in ascending
node-id order and the direct edge last, read straight from the
adjacency.  That is the order in which both earlier kernels reduced —
the dense closed form's row sum over a sorted-order weight matrix and
the CSR kernel's left-to-right accumulate over the in-column support —
so both are kept here as oracles and the flows must equal them **bit
for bit**, on fractional weights too, and equal the values recorded
before either kernel was retired.
"""

import hashlib
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


def random_graph(owner, seed):
    """Random subjective graph over PEERS plus strangers."""
    rng = random.Random(seed)
    ids = PEERS + [f"x{i}" for i in range(8)]
    g = SubjectiveGraph(owner)
    for _ in range(150):
        u, v = rng.sample(ids, 2)
        g.observe_direct(u, v, float(rng.randint(1, 900)))
    return g


def dense_closed_form(graph, sources, sink):
    """The retired dense kernel: one ``minimum`` + row sum over the
    weight matrix in sorted node order.  ``W[:, support]`` is
    F-contiguous, so the row sum adds its columns in order."""
    ids = sorted(graph.nodes() | {sink} | set(sources))
    idx = {p: i for i, p in enumerate(ids)}
    W = graph.to_matrix(ids)
    col = W[:, idx[sink]]
    support = np.flatnonzero(col)
    colv = np.ascontiguousarray(col[support])
    flows = col + np.minimum(W[:, support], colv[None, :]).sum(axis=1)
    flows[idx[sink]] = 0.0
    return flows[[idx[s] for s in sources]]


def csr_closed_form(graph, sources, sink):
    """The retired CSR kernel: each source's min terms scattered into
    a buffer over the sink's sorted in-support, accumulated left to
    right, then the direct edge added."""
    support = sorted(graph.predecessors(sink).items())
    flows = np.zeros(len(sources))
    for i, s in enumerate(sources):
        if s == sink:
            continue
        row = graph.successors(s)
        buf = np.array([min(row.get(k, 0.0), w_kt) for k, w_kt in support])
        acc = np.add.accumulate(buf)[-1] if buf.size else 0.0
        flows[i] = row.get(sink, 0.0) + acc
    return flows


def fractional_graph(in_support):
    """A sink with ``in_support`` in-neighbours and fractional byte
    counts (``rate * scale * dt`` in a real run), so the min terms do
    not sum exactly and the reduction order shows in the last ulp from
    8 terms up.  The sources are feeders outside the support, five
    in-neighbours (which also carry a direct edge), two nodes the graph
    has never heard of and the sink itself."""
    rng = random.Random(in_support)
    mids = [f"k{i:03d}" for i in range(in_support)]
    feeders = [f"s{i:02d}" for i in range(40)]
    g = SubjectiveGraph("sink")
    for k in mids:
        g.observe_direct(k, "sink", rng.uniform(1.0, 5e6))
    for s in feeders + mids[:5]:
        for k in rng.sample(mids, rng.randint(in_support // 2, in_support)):
            if k != s:
                g.observe_direct(s, k, rng.uniform(1.0, 5e6))
    return g, feeders + mids[:5] + ["ghost", "sink", "nobody"]


#: sha256 prefix of ``flows.tobytes()`` for :func:`fractional_graph`,
#: recorded with the dense-matrix kernel before it was retired
RECORDED_FRACTIONAL = {
    7: "834a239ff9396fcd",
    8: "965807b55d7bac94",
    9: "85827cfdc4b97ce0",
    33: "2046023ce02ff705",
    129: "97d1093f3d95f374",
    600: "6f3754439664e45b",
}


class TestKernelBitIdentity:
    def test_dense_csr_bit_identical(self):
        """Randomized property: the batch flows equal both retired
        kernels byte for byte."""
        for seed in range(6):
            sink = PEERS[seed % len(PEERS)]
            g = random_graph(sink, seed)
            got = two_hop_flows_to_sink(g, PEERS, sink)
            np.testing.assert_array_equal(got, dense_closed_form(g, PEERS, sink))
            np.testing.assert_array_equal(got, csr_closed_form(g, PEERS, sink))

    @pytest.mark.parametrize("in_support", sorted(RECORDED_FRACTIONAL))
    def test_fractional_weights_bit_identical(self, in_support):
        g, sources = fractional_graph(in_support)
        got = two_hop_flows_to_sink(g, sources, "sink")
        assert np.count_nonzero(got) == len(sources) - 3
        np.testing.assert_array_equal(got, dense_closed_form(g, sources, "sink"))
        np.testing.assert_array_equal(got, csr_closed_form(g, sources, "sink"))
        digest = hashlib.sha256(got.tobytes()).hexdigest()[:16]
        assert digest == RECORDED_FRACTIONAL[in_support]

    def test_flows_match_bounded_maxflow(self):
        """Spot-check against edmonds_karp(max_hops=2) and the scalar
        closed form (float tolerance: the scalar path sums in out-row
        order by design)."""
        g = random_graph("p00", 3)
        flows = two_hop_flows_to_sink(g, PEERS, "p00")
        for s in PEERS[:8]:
            want = edmonds_karp(g, s, "p00", max_hops=2)
            assert flows[PEERS.index(s)] == pytest.approx(want)
            assert flows[PEERS.index(s)] == pytest.approx(two_hop_flow(g, s, "p00"))

    def test_unknown_sink_and_unknown_sources(self):
        g = SubjectiveGraph("obs")
        g.observe_direct("a", "b", 10.0)
        flows = two_hop_flows_to_sink(g, ["a", "ghost", "nowhere"], "nowhere")
        np.testing.assert_array_equal(flows, np.zeros(3))
