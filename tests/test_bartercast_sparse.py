"""The sparse matrix backend of :class:`SubjectiveGraph`.

The sparse mirror must be indistinguishable from the dense one through
``to_matrix`` — same floats in the same logical cells — and the 2-hop
flows must be **bit-identical** across backends, while it holds O(E)
memory instead of O(n²).
"""

import numpy as np
import pytest

from repro.bartercast.graph import (
    DEFAULT_SPARSE_THRESHOLD,
    SubjectiveGraph,
)
from repro.bartercast.maxflow import two_hop_flow, two_hop_flows_to_sink
from repro.bartercast.records import TransferRecord

from tests.test_bartercast_dense_matrix import (
    assert_matrix_consistent,
    reference_matrix,
)


def twin_graphs(max_nodes=0):
    """A dense and a sparse graph fed identically by the caller."""
    return (
        SubjectiveGraph("me", max_nodes=max_nodes, backend="dense"),
        SubjectiveGraph("me", max_nodes=max_nodes, backend="sparse"),
    )


def feed_random(graphs, seed, steps=150, population=10, max_nodes=False):
    rng = np.random.default_rng(seed)
    peers = [f"p{i}" for i in range(population)]
    for step in range(steps):
        u, v = rng.choice(peers, size=2, replace=False)
        w = float(rng.uniform(0.0, 10.0))
        for g in graphs:
            if step % 7 == 3:
                g.add_record(
                    TransferRecord(
                        str(u), str(v), up=w, down=w / 2, timestamp=float(step)
                    )
                )
            else:
                g.observe_direct(str(u), str(v), w)


class TestBackendSelection:
    def test_explicit_backends(self):
        dense, sparse = twin_graphs()
        assert dense.matrix_backend == "dense"
        assert sparse.matrix_backend == "sparse"

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            SubjectiveGraph("me", backend="csr")
        with pytest.raises(ValueError):
            SubjectiveGraph("me", sparse_threshold=-1)

    def test_auto_starts_dense_and_switches(self):
        g = SubjectiveGraph("me", backend="auto", sparse_threshold=6)
        for i in range(3):
            g.observe_direct(f"u{i}", f"v{i}", 1.0)
        assert g.matrix_backend == "dense"
        for i in range(3, 8):
            g.observe_direct(f"u{i}", f"v{i}", 1.0)
        assert g.matrix_backend == "sparse"
        assert_matrix_consistent(g)

    def test_auto_switch_preserves_matrix_bitwise(self):
        g = SubjectiveGraph("me", backend="auto", sparse_threshold=5)
        ref = SubjectiveGraph("me", backend="dense")
        feed_random([g, ref], seed=11, steps=80, population=12)
        order = sorted(g.nodes() | {"ghost"})
        np.testing.assert_array_equal(g.to_matrix(order), ref.to_matrix(order))

    def test_default_threshold_is_paper_safe(self):
        # Paper workloads are a few hundred peers — auto must keep
        # them on the dense fast path.
        assert DEFAULT_SPARSE_THRESHOLD >= 1000


class TestSparseMatrixEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_to_matrix_matches_reference(self, seed):
        g = SubjectiveGraph("me", backend="sparse")
        feed_random([g], seed=seed)
        assert_matrix_consistent(g, extra=("ghost",))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_and_sparse_twins_agree_everywhere(self, seed):
        dense, sparse = twin_graphs()
        feed_random([dense, sparse], seed=seed)
        assert dense.nodes() == sparse.nodes()
        assert sorted(dense.edges()) == sorted(sparse.edges())
        assert dense.version == sparse.version
        order = sorted(dense.nodes() | {"ghost"})
        np.testing.assert_array_equal(
            dense.to_matrix(order), sparse.to_matrix(order)
        )

    def test_dense_snapshot_is_read_only(self):
        g = SubjectiveGraph("me", backend="sparse")
        g.observe_direct("a", "b", 5.0)
        ids, dense = g.dense()
        np.testing.assert_array_equal(dense, reference_matrix(g, ids))
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0


class TestSparseFlows:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_flows_bitwise_identical_across_backends(self, seed):
        dense, sparse = twin_graphs()
        feed_random([dense, sparse], seed=seed, population=14)
        ids = sorted(dense.nodes())
        for sink in ids[:6]:
            fd = two_hop_flows_to_sink(dense, ids, sink)
            fs = two_hop_flows_to_sink(sparse, ids, sink)
            np.testing.assert_array_equal(fd, fs)

    def test_sparse_flows_match_scalar_oracle(self):
        g = SubjectiveGraph("me", backend="sparse")
        feed_random([g], seed=5, population=8)
        ids = sorted(g.nodes())
        sink = ids[0]
        flows = two_hop_flows_to_sink(g, ids, sink)
        for s, f in zip(ids, flows):
            assert f == pytest.approx(two_hop_flow(g, s, sink))


class TestSparseEvictionAndMemory:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bounded_sparse_stays_consistent(self, seed):
        dense, sparse = twin_graphs(max_nodes=6)
        feed_random([dense, sparse], seed=seed, steps=200)
        assert dense.nodes() == sparse.nodes()
        assert sparse.evicted == dense.evicted > 0
        order = sorted(sparse.nodes() | {"ghost"})
        np.testing.assert_array_equal(
            dense.to_matrix(order), sparse.to_matrix(order)
        )
        assert_matrix_consistent(sparse, extra=("ghost",))

    def test_large_graph_never_allocates_quadratic_mirror(self):
        # A 10k-node ring: the sparse mirror must hold O(E) bytes,
        # orders of magnitude under the 800 MB dense block.
        n = 10_000
        g = SubjectiveGraph("me", backend="sparse")
        for i in range(n):
            g.observe_direct(f"n{i}", f"n{(i + 1) % n}", float(i % 17 + 1))
        assert len(g.nodes()) == n
        dense_bytes = n * n * 8
        assert g.matrix_nbytes() < dense_bytes / 1000
        # Spot-check flows on a small window without materialising n².
        ids = [f"n{i}" for i in range(50)]
        flows = two_hop_flows_to_sink(g, ids, "n1")
        assert flows[0] == pytest.approx(
            g.weight("n0", "n1")
        )  # only the direct edge reaches n1 from n0

    def test_slot_reuse_after_eviction(self):
        g = SubjectiveGraph("me", max_nodes=4, backend="sparse")
        for wave in range(12):
            g.observe_direct(f"a{wave}", f"b{wave}", float(wave + 1))
        # Free slots are recycled, so the slot universe stays bounded
        # by the historical peak, not by total arrivals.
        assert g._mirror._high_slot <= 12
        assert_matrix_consistent(g)
