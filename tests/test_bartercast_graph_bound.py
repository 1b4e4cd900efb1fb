"""Tests for the bounded subjective graph (deployed-BarterCast memory cap)."""

import numpy as np
import pytest

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS
from repro.sim.units import MB


def test_unbounded_by_default():
    g = SubjectiveGraph("me")
    for i in range(100):
        g.observe_direct(f"a{i}", f"b{i}", 1.0)
    assert len(g.nodes()) == 200
    assert g.evicted == 0


def test_negative_bound_rejected():
    with pytest.raises(ValueError):
        SubjectiveGraph("me", max_nodes=-1)


def test_bound_enforced():
    g = SubjectiveGraph("me", max_nodes=10)
    for i in range(30):
        g.observe_direct(f"u{i}", f"v{i}", float(i + 1))
    assert len(g.nodes()) <= 10
    assert g.evicted > 0


def test_owner_neighbourhood_protected():
    """Edges touching the owner (and its direct partners) survive
    eviction — they carry all the flow that reaches the owner."""
    g = SubjectiveGraph("me", max_nodes=6)
    g.observe_direct("friend", "me", 100 * MB)
    g.observe_direct("me", "friend", 10 * MB)
    for i in range(20):
        g.observe_direct(f"x{i}", f"y{i}", 1.0)  # weak strangers
    assert g.weight("friend", "me") == 100 * MB
    assert "friend" in g.nodes()
    assert "me" in g.nodes()


def test_weakest_stranger_evicted_first():
    g = SubjectiveGraph("me", max_nodes=4)
    g.observe_direct("strong1", "strong2", 100 * MB)
    g.observe_direct("weak1", "weak2", 1.0)
    g.observe_direct("mid1", "mid2", 1 * MB)
    nodes = g.nodes()
    assert "strong1" in nodes and "strong2" in nodes
    assert "weak1" not in nodes or "weak2" not in nodes


def test_bounded_service_contribution_still_works():
    reg = OnlineRegistry()
    for p in ("a", "b", "c"):
        reg.set_online(p)
    svc = BarterCastService(
        OraclePSS(reg, np.random.default_rng(0)),
        BarterCastConfig(max_graph_nodes=16),
    )
    svc.local_transfer("b", "a", 7 * MB, now=0.0)
    assert svc.contribution("a", "b") == 7 * MB


def test_config_validation():
    with pytest.raises(ValueError):
        BarterCastConfig(max_graph_nodes=-5)


class TestEnforcementTriggering:
    """Regressions for the bound-enforcement hot path: the scan must
    run only when a fold actually grew the node set."""

    @staticmethod
    def counting_graph(monkeypatch, g):
        calls = {"n": 0}
        original = SubjectiveGraph._enforce_node_bound

        def counted(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(SubjectiveGraph, "_enforce_node_bound", counted)
        return calls

    def test_noop_refolds_skip_enforcement(self, monkeypatch):
        g = SubjectiveGraph("me", max_nodes=8)
        g.observe_direct("a", "b", 5.0)
        calls = self.counting_graph(monkeypatch, g)
        # Stale and equal refolds change nothing — the pre-fix code
        # paid a full O(E) enforcement scan on every one of these.
        for _ in range(10):
            g.observe_direct("a", "b", 5.0)   # equal
            g.observe_direct("a", "b", 3.0)   # stale
        assert calls["n"] == 0

    def test_raise_on_existing_edge_skips_enforcement(self, monkeypatch):
        g = SubjectiveGraph("me", max_nodes=8)
        g.observe_direct("a", "b", 5.0)
        calls = self.counting_graph(monkeypatch, g)
        g.observe_direct("a", "b", 9.0)  # raise between known nodes
        assert calls["n"] == 0

    def test_new_node_still_triggers_enforcement(self, monkeypatch):
        g = SubjectiveGraph("me", max_nodes=8)
        g.observe_direct("a", "b", 5.0)
        calls = self.counting_graph(monkeypatch, g)
        g.observe_direct("a", "c", 1.0)  # c is new
        assert calls["n"] == 1

    def test_enforcement_scans_node_set_once(self, monkeypatch):
        """The eviction loop must not rebuild ``nodes()`` per victim
        (the pre-fix code was quadratic under bound thrash)."""
        g = SubjectiveGraph("me", max_nodes=4)
        for i in range(4):
            g.observe_direct(f"s{i}", f"t{i}", float(10 + i))
        calls = {"n": 0}
        original = SubjectiveGraph.nodes

        def counted(self):
            calls["n"] += 1
            return original(self)

        monkeypatch.setattr(SubjectiveGraph, "nodes", counted)
        # One fold introducing two new nodes: the bound is exceeded and
        # several victims fall, but the node set must be snapshotted
        # exactly once and maintained incrementally from there.
        g.observe_direct("fresh-u", "fresh-v", 0.5)
        assert calls["n"] == 1


class TestBoundThrashProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_thrashed_graph_matches_fresh_rebuild(self, seed):
        """Heavy add/evict churn: the surviving graph's matrix equals a
        fresh rebuild of its own edge list, the out- and in-adjacency
        agree, and the node order holds exactly the surviving nodes."""
        rng = np.random.default_rng(seed)
        g = SubjectiveGraph("me", max_nodes=5)
        population = [f"p{i}" for i in range(12)]
        for step in range(250):
            u, v = rng.choice(population, size=2, replace=False)
            g.observe_direct(str(u), str(v), float(rng.uniform(0.1, 9.0)))
        assert g.evicted > 0
        # Hearsay-only population: no node is protected, so the bound
        # is enforced exactly.
        assert len(g.nodes()) <= 5
        order = sorted(g.nodes() | {"ghost"})
        fresh = SubjectiveGraph("me")
        for u, v, w in g.edges():
            fresh.observe_direct(u, v, w)
        np.testing.assert_array_equal(g.to_matrix(order), fresh.to_matrix(order))
        # In-adjacency agrees with the out-adjacency.
        for u, v, w in g.edges():
            assert g.predecessors(v)[u] == w
        assert sorted(g.dense()[0]) == sorted(set(g._out) | set(g._in_adj))
