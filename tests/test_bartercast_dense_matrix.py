"""Matrix views of :class:`SubjectiveGraph`'s one edge store.

The dict adjacency is the only place a weight lives; ``dense`` builds
an array from it on demand.  It must equal — bit for bit, since it is
placement only — the edge-by-edge rebuild ``reference_bartercast
.to_matrix`` in the same order under any interleaving of edge raises
and stale refolds; and its node order must be first appearance, ``u``
then ``v``.
``test_bartercast_sparse.py`` covers the same views on large, sparse
graphs and their memory.
"""

import numpy as np
import pytest

from repro.bartercast.graph import ReadOnlySubjectiveGraph, SubjectiveGraph
from repro.bartercast.records import TransferRecord
from tests import reference_bartercast as ref


def assert_matrix_consistent(graph: SubjectiveGraph):
    """``dense()`` holds every node once and equals the oracle in its order."""
    ids, got = graph.dense()
    assert sorted(ids) == sorted(ref.nodes(graph))
    np.testing.assert_array_equal(got, ref.to_matrix(graph, ids))


class TestIncrementalMatrix:
    def test_simple_add_and_raise(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 5.0)
        g.observe_direct("b", "c", 2.0)
        g.observe_direct("a", "b", 9.0)  # raise in place
        g.observe_direct("a", "b", 4.0)  # stale — ignored
        assert_matrix_consistent(g)
        assert g.dense()[1].tolist() == [[0.0, 9.0, 0.0], [0.0, 0.0, 2.0], [0.0, 0.0, 0.0]]

    def test_unknown_ids_get_zero_rows(self):
        """A node seen only as a target gets a zero row, one seen only
        as a source a zero column, and an id the graph never saw no
        slot at all."""
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 5.0)
        ids, mat = g.dense()
        assert ids == ["a", "b"] and "ghost" not in ids
        assert mat[1].sum() == 0.0 and mat[:, 0].sum() == 0.0
        assert mat[0, 1] == 5.0

    def test_empty_graph_and_empty_order(self):
        ids, mat = SubjectiveGraph("me").dense()
        assert ids == [] and mat.shape == (0, 0)
        ids, mat = ReadOnlySubjectiveGraph("ghost").dense()
        assert ids == [] and mat.shape == (0, 0)

    def test_dense_view_is_read_only(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 5.0)
        assert_matrix_consistent(g)
        _, dense = g.dense()
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


class TestNodeOrder:
    def test_first_appearance_order(self):
        g = SubjectiveGraph("me")
        g.observe_direct("b", "a", 1.0)
        g.add_record(TransferRecord("c", "a", up=2.0, down=3.0, timestamp=0.0))
        g.observe_direct("a", "d", 1.0)
        g.observe_direct("b", "a", 5.0)  # a raise adds no slot
        assert g.dense()[0] == ["b", "a", "c", "d"]
