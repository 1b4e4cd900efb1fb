"""The derived state BarterCast keeps — the graph's version counter
and the cached top-K record lists — and the contribution oracles that
read the graph: ``contribution()`` (one ``two_hop_flow`` per call,
nothing cached) and the batch ``contributions_to_observer()``.
"""

import numpy as np
import pytest

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import two_hop_flow, two_hop_flows_to_sink
from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.bartercast.records import TransferRecord
from repro.core.experience import AdaptiveThresholdExperience, ThresholdExperience
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS
from repro.sim.units import MB


def make_service(peers=("a", "b", "c"), seed=0, **cfg):
    reg = OnlineRegistry()
    for p in peers:
        reg.set_online(p)
    pss = OraclePSS(reg, np.random.default_rng(seed))
    return BarterCastService(pss, BarterCastConfig(**cfg))


class TestVersionCounters:
    def test_no_bump_when_weight_not_raised(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 5.0)
        g.observe_direct("a", "b", 5.0)  # equal — monotone max, no change
        g.observe_direct("a", "b", 3.0)  # smaller — stale, no change
        assert g.version == 1
        g.observe_direct("a", "b", 6.0)
        assert g.version == 2

    def test_zero_and_self_edges_never_bump(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "a", 5.0)
        g.observe_direct("a", "b", 0.0)
        assert g.version == 0


class TestContributionCache:
    """``contribution()`` follows every edge the 2-hop closed form
    reads."""

    def test_transfer_invalidates(self):
        svc = make_service()
        svc.local_transfer("b", "a", 7 * MB, now=0.0)
        assert svc.contribution("a", "b") == 7 * MB
        svc.local_transfer("b", "a", 3 * MB, now=1.0)
        assert svc.contribution("a", "b") == 10 * MB

    def test_two_hop_relevant_edge_invalidates(self):
        """An edge into the observer (k→a) changes the closed form for
        every subject that can route through k."""
        svc = make_service(peers=("a", "b", "k"))
        svc.inject_record(
            "a", TransferRecord("b", "k", up=9 * MB, down=0.0, timestamp=0.0)
        )
        assert svc.contribution("a", "b") == 0.0  # b→k alone: no path to a
        svc.inject_record(
            "a", TransferRecord("k", "a", up=4 * MB, down=0.0, timestamp=1.0)
        )
        assert svc.contribution("a", "b") == pytest.approx(4 * MB)


class TestBatchOracle:
    def _populated(self, seed=5):
        peers = [f"p{i}" for i in range(7)]
        svc = make_service(peers=tuple(peers), seed=seed)
        rng = np.random.default_rng(seed)
        for step in range(60):
            u, v = rng.choice(peers, size=2, replace=False)
            svc.local_transfer(str(u), str(v), float(rng.uniform(0.5, 9.0)) * MB, step)
            svc.gossip_tick(str(rng.choice(peers)), float(step))
        return svc, peers

    def test_matches_scalar_closed_form(self):
        svc, peers = self._populated()
        for observer in peers:
            flows = svc.contributions_to_observer(observer, peers)
            g = svc.graph_of(observer)
            for j, subject in enumerate(peers):
                assert flows[j] == pytest.approx(
                    two_hop_flow(g, subject, observer), rel=1e-12
                )

    def test_self_flow_zero_and_unknown_subject_zero(self):
        svc, peers = self._populated()
        flows = svc.contributions_to_observer(peers[0], [peers[0], "ghost"])
        assert flows[0] == 0.0
        assert flows[1] == 0.0

    def test_memoed_array_is_isolated_from_caller(self):
        svc, peers = self._populated()
        flows = svc.contributions_to_observer(peers[0], peers)
        flows[:] = -1.0
        again = svc.contributions_to_observer(peers[0], peers)
        assert (again >= 0.0).all()

    def test_batch_helper_matches_matrix_free_form(self):
        g = SubjectiveGraph("owner")
        g.observe_direct("j", "i", 2.0)
        g.observe_direct("j", "k1", 5.0)
        g.observe_direct("k1", "i", 3.0)
        g.observe_direct("j", "k2", 1.0)
        g.observe_direct("k2", "i", 10.0)
        flows = two_hop_flows_to_sink(g, ["j", "k1", "i"], "i")
        assert flows[0] == pytest.approx(6.0)
        assert flows[1] == pytest.approx(3.0)
        assert flows[2] == 0.0


class TestRecordsCache:
    def test_cached_list_matches_fresh_sort(self):
        svc = make_service(max_records_per_exchange=2)
        svc.local_transfer("a", "b", 1 * MB, now=0.0)
        svc.local_transfer("a", "c", 9 * MB, now=0.0)
        svc.local_transfer("a", "d", 5 * MB, now=0.0)
        first = svc.records_of("a")
        second = svc.records_of("a")
        assert first == second
        assert {r.partner for r in second} == {"c", "d"}
        assert svc.records_cache_hits == 1

    def test_new_transfer_invalidates(self):
        svc = make_service(max_records_per_exchange=2)
        svc.local_transfer("a", "b", 1 * MB, now=0.0)
        svc.records_of("a")
        svc.local_transfer("a", "e", 99 * MB, now=1.0)
        partners = {r.partner for r in svc.records_of("a")}
        assert "e" in partners
        assert svc.records_cache_misses == 2

    def test_caller_mutation_does_not_corrupt_cache(self):
        svc = make_service()
        svc.local_transfer("a", "b", 1 * MB, now=0.0)
        got = svc.records_of("a")
        got.clear()
        assert len(svc.records_of("a")) == 1

    def test_receiving_gossip_does_not_invalidate_own_records(self):
        """Gossip folds into the *graph*, not the direct table — the
        top-K cache stays valid across received exchanges."""
        svc = make_service(seed=1)
        svc.local_transfer("a", "b", 5 * MB, now=0.0)
        svc.records_of("a")
        for t in range(10):
            svc.gossip_tick("a", float(t))
        assert svc.records_cache_hits > 0


class TestCacheStats:
    def test_stats_shape(self):
        svc = make_service()
        stats = svc.cache_stats()
        assert set(stats) == {
            "contribution_hits",
            "contribution_misses",
            "records_hits",
            "records_misses",
        }
        assert all(v == 0 for v in stats.values())

class TestExperienceBatch:
    def _svc(self):
        svc = make_service(peers=("a", "b", "c", "d"), seed=2)
        svc.local_transfer("b", "a", 7 * MB, now=0.0)
        svc.local_transfer("c", "a", 2 * MB, now=0.0)
        return svc

    def test_threshold_batch_matches_scalar(self):
        svc = self._svc()
        exp = ThresholdExperience(svc, threshold=5 * MB)
        subjects = ["a", "b", "c", "d"]
        batch = exp.experienced_many("a", subjects)
        for s in subjects:
            assert batch[s] == exp.is_experienced("a", s), s

    def test_adaptive_batch_matches_scalar(self):
        svc = self._svc()
        exp = AdaptiveThresholdExperience(svc, step=5 * MB)
        subjects = ["a", "b", "c", "d"]
        # T = 0: everyone but self passes
        batch = exp.experienced_many("a", subjects)
        for s in subjects:
            assert batch[s] == exp.is_experienced("a", s), s
        # raise T and re-check
        exp._thresholds["a"] = 5 * MB
        batch = exp.experienced_many("a", subjects)
        for s in subjects:
            assert batch[s] == exp.is_experienced("a", s), s
        assert batch["b"] and not batch["c"] and not batch["a"]

    def test_default_implementation_loops_scalar(self):
        from repro.core.experience import AlwaysExperienced

        exp = AlwaysExperienced()
        batch = exp.experienced_many("a", ["a", "b"])
        assert batch == {"a": False, "b": True}
