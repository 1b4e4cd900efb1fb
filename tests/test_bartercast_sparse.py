"""Large, sparse subjective graphs.

At scale a subjective graph is sparse: many nodes, a few edges each.
The one edge store must serve it in O(E) memory — no ``n × n`` block
— while ``dense`` stays equal to an
edge-by-edge rebuild and the batch flows agree with the scalar oracle.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import two_hop_flow, two_hop_flows_to_sink
from repro.bartercast.records import TransferRecord

from tests.test_bartercast_dense_matrix import assert_matrix_consistent
from tests import reference_bartercast as ref


def feed_random(graph, seed, steps=300, population=200):
    """``steps`` random edges over ``population`` peers: about 1.5
    edges per node, so most pairs never meet."""
    rng = np.random.default_rng(seed)
    peers = [f"p{i:03d}" for i in range(population)]
    for step in range(steps):
        u, v = (str(p) for p in rng.choice(peers, size=2, replace=False))
        w = float(rng.uniform(0.0, 10.0))
        if step % 7 == 3:
            graph.add_record(TransferRecord(u, v, up=w, down=w / 2, timestamp=step))
        else:
            graph.observe_direct(u, v, w)


class TestSparseMatrixEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_to_matrix_matches_reference(self, seed):
        g = SubjectiveGraph("me")
        feed_random(g, seed)
        assert ref.num_edges(g) < 3 * len(ref.nodes(g))
        assert_matrix_consistent(g)
        # a permuted, partial order of the rebuild picks dense's cells
        ids, dense = g.dense()
        order = sorted(ids, reverse=True)[:40]
        pick = [ids.index(p) for p in order]
        np.testing.assert_array_equal(ref.to_matrix(g, order), dense[np.ix_(pick, pick)])

    def test_dense_snapshot_is_read_only(self):
        g = SubjectiveGraph("me")
        feed_random(g, 3, steps=40)
        assert_matrix_consistent(g)
        _, dense = g.dense()
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0


class TestSparseFlows:
    def test_sparse_flows_match_scalar_oracle(self):
        g = SubjectiveGraph("me")
        feed_random(g, 5, steps=600, population=150)
        ids = sorted(ref.nodes(g) | {"ghost"})
        # the sinks with the most in-edges exercise the sum
        sinks = sorted(ids, key=lambda p: -len(ref.predecessors(g, p)))[:6]
        for sink in sinks:
            flows = two_hop_flows_to_sink(g, ids, sink)
            for s, f in zip(ids, flows):
                assert f == pytest.approx(two_hop_flow(g, s, sink))


class TestSparseEvictionAndMemory:
    def test_large_graph_never_allocates_quadratic_block(self):
        """A 5 000-node ring grown edge by edge, then a batch flow over
        a window: the whole thing stays under one byte per cell of the
        ``n × n`` block (200 MB as float64) a matrix would take."""
        n = 5_000
        tracemalloc.start()
        try:
            g = SubjectiveGraph("me")
            for i in range(n):
                g.observe_direct(f"n{i}", f"n{(i + 1) % n}", float(i % 17 + 1))
            ids = [f"n{i}" for i in range(50)]
            flows = two_hop_flows_to_sink(g, ids, "n1")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ref.nodes(g)) == n
        assert peak < n * n
        # only the direct edge reaches n1 from n0
        assert flows[0] == ref.weight(g, "n0", "n1")
