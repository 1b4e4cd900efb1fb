"""Matrix views of :class:`SubjectiveGraph`'s one edge store.

The dict adjacency is the only place a weight lives; ``to_matrix`` and
``dense`` build arrays from it on demand.  They must equal — bit for
bit, since they are placement only — a reference edge-by-edge rebuild
under any interleaving of edge raises and stale refolds; and
``dense``'s node order must be first appearance, ``u`` then ``v``.
``test_bartercast_sparse.py`` covers the same views on large, sparse
graphs and their memory.
"""

import numpy as np
import pytest

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.records import TransferRecord


def reference_matrix(graph: SubjectiveGraph, order) -> np.ndarray:
    """The pre-incremental O(E) rebuild, kept here as the oracle."""
    ids = list(order)
    index = {pid: i for i, pid in enumerate(ids)}
    mat = np.zeros((len(ids), len(ids)))
    for u, v, w in graph.edges():
        ui, vi = index.get(u), index.get(v)
        if ui is not None and vi is not None:
            mat[ui, vi] = w
    return mat


def assert_matrix_consistent(graph: SubjectiveGraph, extra=()):
    order = sorted(graph.nodes() | set(extra))
    got = graph.to_matrix(order)
    want = reference_matrix(graph, order)
    np.testing.assert_array_equal(got, want)


class TestIncrementalMatrix:
    def test_simple_add_and_raise(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 5.0)
        g.observe_direct("b", "c", 2.0)
        g.observe_direct("a", "b", 9.0)  # raise in place
        g.observe_direct("a", "b", 4.0)  # stale — ignored
        assert_matrix_consistent(g)
        assert g.to_matrix(["a", "b"])[0, 1] == 9.0

    def test_unknown_ids_get_zero_rows(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 5.0)
        mat = g.to_matrix(["ghost", "a", "b"])
        assert mat[0].sum() == 0.0 and mat[:, 0].sum() == 0.0
        assert mat[1, 2] == 5.0

    def test_empty_graph_and_empty_order(self):
        g = SubjectiveGraph("me")
        assert g.to_matrix([]).shape == (0, 0)
        assert g.to_matrix(["x", "y"]).sum() == 0.0
        g.observe_direct("a", "b", 1.0)
        assert g.to_matrix([]).shape == (0, 0)

    def test_dense_view_is_read_only(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 5.0)
        ids, dense = g.dense()
        np.testing.assert_array_equal(dense, reference_matrix(g, ids))
        with pytest.raises(ValueError):
            dense[0, 0] = 1.0

    def test_matrix_grows_past_initial_capacity(self):
        g = SubjectiveGraph("me")
        for i in range(40):
            g.observe_direct(f"u{i}", f"v{i}", float(i + 1))
        assert_matrix_consistent(g)

    def test_randomized_unbounded_property(self):
        rng = np.random.default_rng(99)
        g = SubjectiveGraph("me")
        population = [f"p{i}" for i in range(14)]
        for step in range(200):
            u, v = rng.choice(population, size=2, replace=False)
            g.observe_direct(str(u), str(v), float(rng.uniform(0.1, 5.0)))
        assert_matrix_consistent(g)
        ids, dense = g.dense()
        np.testing.assert_array_equal(dense, reference_matrix(g, ids))


class TestNodeOrder:
    def test_first_appearance_order(self):
        g = SubjectiveGraph("me")
        g.observe_direct("b", "a", 1.0)
        g.add_record(TransferRecord("c", "a", up=2.0, down=3.0, timestamp=0.0))
        g.observe_direct("a", "d", 1.0)
        g.observe_direct("b", "a", 5.0)  # a raise adds no slot
        assert g.dense()[0] == ["b", "a", "c", "d"]
