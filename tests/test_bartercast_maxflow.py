"""Tests for maxflow: Edmonds-Karp, hop bounds, 2-hop closed form.

Cross-checked against networkx's maximum_flow on random graphs.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import two_hop_flow
from tests import reference_bartercast as ref
from tests.reference_bartercast import edmonds_karp


def graph_from_edges(edges):
    g = SubjectiveGraph("owner")
    for u, v, w in edges:
        g.observe_direct(u, v, w)
    return g


class TestEdmondsKarp:
    def test_single_edge(self):
        g = graph_from_edges([("a", "b", 5.0)])
        assert edmonds_karp(g, "a", "b") == 5.0

    def test_series_bottleneck(self):
        g = graph_from_edges([("a", "b", 5.0), ("b", "c", 3.0)])
        assert edmonds_karp(g, "a", "c") == 3.0

    def test_parallel_paths_sum(self):
        g = graph_from_edges(
            [("a", "x", 2.0), ("x", "c", 2.0), ("a", "y", 3.0), ("y", "c", 3.0)]
        )
        assert edmonds_karp(g, "a", "c") == 5.0

    def test_classic_rerouting_case(self):
        """Flow must reroute through the cross edge (CLRS-style)."""
        g = graph_from_edges(
            [
                ("s", "a", 10.0),
                ("s", "b", 10.0),
                ("a", "b", 1.0),
                ("a", "t", 8.0),
                ("b", "t", 10.0),
            ]
        )
        assert edmonds_karp(g, "s", "t") == 18.0

    def test_disconnected_is_zero(self):
        g = graph_from_edges([("a", "b", 5.0), ("c", "d", 5.0)])
        assert edmonds_karp(g, "a", "d") == 0.0

    def test_source_equals_sink(self):
        g = graph_from_edges([("a", "b", 5.0)])
        assert edmonds_karp(g, "a", "a") == 0.0

    def test_missing_nodes(self):
        g = graph_from_edges([("a", "b", 5.0)])
        assert edmonds_karp(g, "ghost", "b") == 0.0
        assert edmonds_karp(g, "a", "ghost") == 0.0

    def test_reverse_direction_independent(self):
        g = graph_from_edges([("a", "b", 5.0)])
        assert edmonds_karp(g, "b", "a") == 0.0


class TestHopBound:
    def test_three_hop_path_excluded_at_two(self):
        g = graph_from_edges([("a", "x", 5.0), ("x", "y", 5.0), ("y", "b", 5.0)])
        assert edmonds_karp(g, "a", "b") == 5.0
        assert edmonds_karp(g, "a", "b", max_hops=2) == 0.0
        assert edmonds_karp(g, "a", "b", max_hops=3) == 5.0

    def test_direct_edge_passes_one_hop(self):
        g = graph_from_edges([("a", "b", 4.0), ("a", "k", 9.0), ("k", "b", 9.0)])
        assert edmonds_karp(g, "a", "b", max_hops=1) == 4.0
        assert edmonds_karp(g, "a", "b", max_hops=2) == 13.0


class TestTwoHopClosedForm:
    def test_direct_plus_intermediates(self):
        g = graph_from_edges(
            [
                ("j", "i", 2.0),
                ("j", "k1", 5.0),
                ("k1", "i", 3.0),
                ("j", "k2", 1.0),
                ("k2", "i", 10.0),
            ]
        )
        # 2 + min(5,3) + min(1,10) = 6
        assert two_hop_flow(g, "j", "i") == 6.0

    def test_ignores_longer_paths(self):
        g = graph_from_edges([("j", "a", 9.0), ("a", "b", 9.0), ("b", "i", 9.0)])
        assert two_hop_flow(g, "j", "i") == 0.0

    def test_self_flow_zero(self):
        g = graph_from_edges([("j", "i", 2.0)])
        assert two_hop_flow(g, "j", "j") == 0.0

    def test_matches_edmonds_karp_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for trial in range(30):
            n = int(rng.integers(3, 9))
            nodes = [f"n{i}" for i in range(n)]
            g = SubjectiveGraph("owner")
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.4:
                        g.observe_direct(u, v, float(rng.integers(1, 20)))
            s, t = nodes[0], nodes[1]
            assert two_hop_flow(g, s, t) == pytest.approx(
                edmonds_karp(g, s, t, max_hops=2)
            ), f"trial {trial}"


class TestAgainstNetworkx:
    def _to_nx(self, g: SubjectiveGraph) -> nx.DiGraph:
        dg = nx.DiGraph()
        for u, v, w in ref.edges(g):
            dg.add_edge(u, v, capacity=w)
        return dg

    def test_unbounded_matches_networkx_random(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            n = int(rng.integers(4, 10))
            nodes = [f"n{i}" for i in range(n)]
            g = SubjectiveGraph("owner")
            for u in nodes:
                for v in nodes:
                    if u != v and rng.random() < 0.35:
                        g.observe_direct(u, v, float(rng.integers(1, 50)))
            s, t = nodes[0], nodes[-1]
            dg = self._to_nx(g)
            if s not in dg or t not in dg:
                expected = 0.0
            else:
                expected = nx.maximum_flow_value(dg, s, t)
            assert edmonds_karp(g, s, t) == pytest.approx(expected), f"trial {trial}"


@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5), st.floats(0.5, 20.0)),
        max_size=20,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_hop_bound_monotone_and_below_unbounded(edge_list):
    g = SubjectiveGraph("owner")
    for u, v, w in edge_list:
        if u != v:
            g.observe_direct(f"n{u}", f"n{v}", w)
    full = edmonds_karp(g, "n0", "n5")
    f1 = edmonds_karp(g, "n0", "n5", max_hops=1)
    f2 = edmonds_karp(g, "n0", "n5", max_hops=2)
    assert f1 <= f2 + 1e-9
    assert f2 <= full + 1e-9
    assert f1 == pytest.approx(ref.weight(g, "n0", "n5"))


class TestFlowQueriesAreReadOnly:
    """Regression: ``two_hop_flow`` used to ``pop`` the sink out of the
    successors dict — safe only because ``successors()`` returns a
    copy.  Both layers now guarantee it: flow queries never mutate the
    graph, and the successors view is caller-owned."""

    def _snapshot(self, g):
        return sorted(ref.edges(g)), g.version

    def test_two_hop_flow_leaves_graph_unchanged(self):
        g = graph_from_edges(
            [("j", "i", 2.0), ("j", "k", 5.0), ("k", "i", 3.0), ("i", "j", 1.0)]
        )
        before = self._snapshot(g)
        assert two_hop_flow(g, "j", "i") == 5.0
        assert two_hop_flow(g, "i", "j") == 1.0
        assert self._snapshot(g) == before
        # repeat queries still see the direct edge (the old .pop() bug
        # would have been masked by the copy; assert the value anyway)
        assert two_hop_flow(g, "j", "i") == 5.0

    def test_edmonds_karp_leaves_graph_unchanged(self):
        g = graph_from_edges([("a", "b", 5.0), ("b", "c", 3.0)])
        before = self._snapshot(g)
        edmonds_karp(g, "a", "c")
        assert self._snapshot(g) == before

    def test_successors_returns_caller_owned_copy(self):
        g = graph_from_edges([("a", "b", 5.0)])
        view = ref.successors(g, "a")
        view.pop("b")
        view["z"] = 99.0
        assert ref.weight(g, "a", "b") == 5.0
        assert ref.weight(g, "a", "z") == 0.0
