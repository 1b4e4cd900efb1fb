"""Read paths must not materialise state for never-seen peers.

Metric sweeps probe every peer in the trace — including peers the
service has never exchanged with.  ``graph_of``, ``contribution``,
``contributions_to_observer`` and ``records_of`` used to route such
probes through ``_state()``, permanently allocating a ``_NodeState``
(graph, record store, caches) per probe; these regressions pin the
non-materialising contract.
"""

import numpy as np
import pytest

from repro.bartercast.graph import ReadOnlySubjectiveGraph
from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.metrics.cev import FlowMatrixCache, collective_experience_value
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS

PEERS = ["a", "b", "c", "d"]


def make_service(**cfg):
    reg = OnlineRegistry()
    for p in PEERS:
        reg.set_online(p)
    return BarterCastService(
        OraclePSS(reg, np.random.default_rng(0)), BarterCastConfig(**cfg)
    )


class TestGraphOf:
    def test_unseen_peer_gets_shared_sentinel(self):
        svc = make_service()
        g1 = svc.graph_of("ghost")
        g2 = svc.graph_of("phantom")
        assert isinstance(g1, ReadOnlySubjectiveGraph)
        assert g1 is g2  # one shared instance, not one per probe
        assert g1.nodes() == set()
        assert g1.version == 0
        assert svc._nodes == {}

    def test_sentinel_rejects_mutation(self):
        svc = make_service()
        g = svc.graph_of("ghost")
        with pytest.raises(TypeError):
            g.observe_direct("a", "b", 1.0)
        assert g.nodes() == set()

    def test_seen_peer_still_gets_live_graph(self):
        svc = make_service()
        svc.local_transfer("a", "b", 5.0, now=0.0)
        g = svc.graph_of("a")
        assert not isinstance(g, ReadOnlySubjectiveGraph)
        assert g.weight("a", "b") == 5.0


class TestContributionProbes:
    def test_unseen_observer_contribution_is_zero_without_state(self):
        svc = make_service()
        svc.local_transfer("a", "b", 5.0, now=0.0)
        before = set(svc._nodes)
        assert svc.contribution("ghost", "a") == 0.0
        assert set(svc._nodes) == before

    def test_unseen_observer_batch_is_zeros_without_state(self):
        svc = make_service()
        out = svc.contributions_to_observer("ghost", PEERS)
        np.testing.assert_array_equal(out, np.zeros(len(PEERS)))
        assert svc._nodes == {}

    def test_probes_leave_cache_stats_untouched(self):
        svc = make_service()
        svc.local_transfer("a", "b", 5.0, now=0.0)
        baseline = svc.cache_stats()
        for _ in range(5):
            svc.contribution("ghost", "a")
            svc.contributions_to_observer("phantom", PEERS)
            svc.graph_of("spectre")
        assert svc.cache_stats() == baseline

    def test_seen_observer_unchanged(self):
        svc = make_service()
        svc.local_transfer("b", "a", 7.0, now=0.0)
        assert svc.contribution("a", "b") == 7.0
        out = svc.contributions_to_observer("a", PEERS)
        assert out[PEERS.index("b")] == 7.0


class TestRecordsOf:
    def test_unseen_peer_has_no_records_and_gets_no_state(self):
        svc = make_service()
        svc.local_transfer("a", "b", 5.0, now=0.0)
        before = set(svc._nodes)
        baseline = svc.cache_stats()
        assert svc.records_of("ghost") == []
        assert set(svc._nodes) == before
        assert svc.cache_stats() == baseline

    def test_gossip_still_materialises_both_parties(self):
        """An exchange is a write path: a fresh peer that gossips ends
        up with state (and a counted records-cache miss), exactly as
        before ``records_of`` stopped materialising."""
        svc = make_service()
        svc.gossip_with("a", "b", now=0.0)
        assert set(svc._nodes) == {"a", "b"}
        assert svc.cache_stats()["records_misses"] == 2
        assert svc.records_of("a") == []
        assert svc.cache_stats()["records_hits"] == 1


class TestMetricSweeps:
    def test_flow_cache_over_unseen_population_allocates_nothing(self):
        svc = make_service()
        cache = FlowMatrixCache(svc, PEERS)
        F = cache.matrix()
        np.testing.assert_array_equal(F, np.zeros((len(PEERS), len(PEERS))))
        assert svc._nodes == {}
        assert all(v == 0 for v in svc.cache_stats().values())

    def test_cev_over_unseen_population_allocates_nothing(self):
        svc = make_service()
        cev = collective_experience_value(svc, PEERS, [1.0, 5.0])
        assert set(cev.values()) == {0.0}
        assert svc._nodes == {}

    def test_write_paths_still_materialise(self):
        svc = make_service()
        svc.local_transfer("a", "b", 5.0, now=0.0)
        assert set(svc._nodes) == {"a", "b"}
