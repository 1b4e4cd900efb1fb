"""Contribution-cache correctness: version counters, invalidation,
batch oracle, cached record lists.

The load-bearing test is the interleaved property check: a random mix
of ``local_transfer`` / ``gossip_tick`` / ``inject_record`` /
``contribution`` calls, with every cached answer cross-checked against
a fresh uncached ``two_hop_flow`` **and** ``edmonds_karp(max_hops=2)``
— the cache must be semantically invisible.
"""

import numpy as np
import pytest

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import edmonds_karp, two_hop_flow, two_hop_flows_to_sink
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
    def test_raise_bumps_endpoint_versions(self):
        g = SubjectiveGraph("me")
        assert g.out_version("a") == 0 and g.in_version("b") == 0
        g.observe_direct("a", "b", 5.0)
        assert g.out_version("a") == 1
        assert g.in_version("b") == 1
        assert g.out_version("b") == 0 and g.in_version("a") == 0
        assert g.version == 1

    def test_no_bump_when_weight_not_raised(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 5.0)
        g.observe_direct("a", "b", 5.0)  # equal — monotone max, no change
        g.observe_direct("a", "b", 3.0)  # smaller — stale, no change
        assert g.out_version("a") == 1 and g.version == 1
        g.observe_direct("a", "b", 6.0)
        assert g.out_version("a") == 2 and g.version == 2

    def test_zero_and_self_edges_never_bump(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "a", 5.0)
        g.observe_direct("a", "b", 0.0)
        assert g.version == 0


class TestContributionCache:
    def test_hit_serves_identical_value(self):
        svc = make_service()
        svc.local_transfer("b", "a", 7 * MB, now=0.0)
        first = svc.contribution("a", "b")
        assert svc.cache_misses == 1
        second = svc.contribution("a", "b")
        assert svc.cache_hits == 1
        assert first == second == 7 * MB

    def test_transfer_invalidates(self):
        svc = make_service()
        svc.local_transfer("b", "a", 7 * MB, now=0.0)
        assert svc.contribution("a", "b") == 7 * MB
        svc.local_transfer("b", "a", 3 * MB, now=1.0)
        assert svc.contribution("a", "b") == 10 * MB
        assert svc.cache_invalidations >= 1

    def test_unrelated_edge_keeps_entry_valid(self):
        """An edge change that cannot affect f(b→a) — wrong endpoints —
        must not invalidate the (a, b) entry."""
        svc = make_service(peers=("a", "b", "c", "d"))
        svc.local_transfer("b", "a", 7 * MB, now=0.0)
        svc.contribution("a", "b")
        hits = svc.cache_hits
        # c→d touches neither b's out-edges nor a's in-edges in a's graph
        svc.inject_record(
            "a", TransferRecord("c", "d", up=5 * MB, down=0.0, timestamp=0.0)
        )
        assert svc.contribution("a", "b") == 7 * MB
        assert svc.cache_hits == hits + 1

    def test_two_hop_relevant_edge_invalidates(self):
        """An edge into the observer (k→a) changes the closed form and
        must invalidate every (a, ·) entry that could route through k."""
        svc = make_service(peers=("a", "b", "k"))
        svc.inject_record(
            "a", TransferRecord("b", "k", up=9 * MB, down=0.0, timestamp=0.0)
        )
        assert svc.contribution("a", "b") == 0.0  # b→k alone: no path to a
        svc.inject_record(
            "a", TransferRecord("k", "a", up=4 * MB, down=0.0, timestamp=1.0)
        )
        assert svc.contribution("a", "b") == pytest.approx(4 * MB)

    def test_cache_disabled_is_equivalent(self):
        cached = make_service(seed=3)
        uncached = make_service(seed=3, contribution_cache=False)
        for svc in (cached, uncached):
            svc.local_transfer("b", "c", 10 * MB, now=0.0)
            svc.local_transfer("c", "a", 4 * MB, now=1.0)
            for t in range(40):
                for p in ("a", "b", "c"):
                    svc.gossip_tick(p, float(t))
        for o in ("a", "b", "c"):
            for s in ("a", "b", "c"):
                assert cached.contribution(o, s) == uncached.contribution(o, s)
        assert uncached.cache_hits == 0 and uncached.cache_bypasses > 0

    def test_non_two_hop_bypasses_cache(self):
        svc = make_service(max_hops=3)
        svc.local_transfer("b", "a", 7 * MB, now=0.0)
        svc.contribution("a", "b")
        svc.contribution("a", "b")
        assert svc.cache_hits == 0
        assert svc.cache_bypasses == 2


class TestInterleavedPropertyCheck:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cached_results_bit_identical_under_interleaving(self, seed):
        peers = [f"p{i}" for i in range(6)]
        svc = make_service(peers=tuple(peers), seed=seed)
        rng = np.random.default_rng(100 + seed)
        for step in range(200):
            op = rng.random()
            if op < 0.35:
                u, v = rng.choice(peers, size=2, replace=False)
                svc.local_transfer(
                    str(u), str(v), float(rng.uniform(0.1, 8.0)) * MB, now=float(step)
                )
            elif op < 0.55:
                svc.gossip_tick(str(rng.choice(peers)), float(step))
            elif op < 0.65:
                u, v = rng.choice(peers, size=2, replace=False)
                holder = str(rng.choice(peers))
                svc.inject_record(
                    holder,
                    TransferRecord(
                        str(u), str(v), up=float(rng.uniform(0.1, 4.0)) * MB,
                        down=0.0, timestamp=float(step),
                    ),
                )
            else:
                o, s = rng.choice(peers, size=2, replace=False)
                o, s = str(o), str(s)
                cached = svc.contribution(o, s)
                # bit-identical to the uncached closed form …
                assert cached == two_hop_flow(svc.graph_of(o), s, o)
                # … and equal to the generic bounded maxflow
                assert cached == pytest.approx(
                    edmonds_karp(svc.graph_of(o), s, o, max_hops=2)
                )
        assert svc.cache_hits + svc.cache_misses > 0


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

    def test_memo_hit_until_graph_changes(self):
        svc, peers = self._populated()
        first = svc.contributions_to_observer(peers[0], peers)
        assert svc.batch_misses == 1
        second = svc.contributions_to_observer(peers[0], peers)
        assert svc.batch_hits == 1
        np.testing.assert_array_equal(first, second)
        svc.local_transfer(peers[1], peers[0], 1 * MB, now=999.0)
        third = svc.contributions_to_observer(peers[0], peers)
        assert svc.batch_misses == 2
        assert third[peers.index(peers[1])] >= first[peers.index(peers[1])]

    def test_memoed_array_is_isolated_from_caller(self):
        svc, peers = self._populated()
        flows = svc.contributions_to_observer(peers[0], peers)
        flows[:] = -1.0
        again = svc.contributions_to_observer(peers[0], peers)
        assert (again >= 0.0).all()

    def test_different_subject_lists_recompute(self):
        svc, peers = self._populated()
        svc.contributions_to_observer(peers[0], peers)
        svc.contributions_to_observer(peers[0], peers[:3])
        assert svc.batch_misses == 2

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

    def test_non_two_hop_falls_back_to_bounded_maxflow(self):
        peers = ("a", "b", "c", "d")
        svc = make_service(peers=peers, seed=5, max_hops=3)
        svc.inject_record("a", TransferRecord("b", "c", up=9 * MB, down=0.0, timestamp=0.0))
        svc.inject_record("a", TransferRecord("c", "d", up=9 * MB, down=0.0, timestamp=0.0))
        svc.inject_record("a", TransferRecord("d", "a", up=9 * MB, down=0.0, timestamp=0.0))
        flows = svc.contributions_to_observer("a", list(peers))
        assert flows[list(peers).index("b")] == pytest.approx(9 * MB)


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
            "contribution_invalidations",
            "contribution_bypasses",
            "contribution_evictions",
            "contribution_hit_rate",
            "contrib_cache_cap",
            "contrib_cache_entries_total",
            "contrib_cache_memory_bytes",
            "batch_hits",
            "batch_misses",
            "records_hits",
            "records_misses",
        }
        assert all(v == 0 for v in stats.values())

    def test_clear_caches_preserves_semantics(self):
        svc = make_service()
        svc.local_transfer("b", "a", 7 * MB, now=0.0)
        assert svc.contribution("a", "b") == 7 * MB
        svc.clear_caches()
        assert svc.contribution("a", "b") == 7 * MB
        assert svc.cache_misses == 2  # recomputed after the clear


class TestContribCacheBound:
    """LRU bound on per-node contribution caches
    (``contrib_cache_entries``)."""

    def _svc(self, cap):
        svc = make_service(
            peers=("a", "b", "c", "d", "e"), contrib_cache_entries=cap
        )
        for subject in ("b", "c", "d", "e"):
            svc.local_transfer(subject, "a", 3 * MB, now=0.0)
        return svc

    def test_cache_never_exceeds_cap(self):
        svc = self._svc(cap=2)
        for subject in ("b", "c", "d", "e"):
            svc.contribution("a", subject)
        assert len(svc._nodes["a"].contrib_cache) <= 2
        assert svc.cache_evictions == 2
        assert svc.cache_stats()["contribution_evictions"] == 2

    def test_evicted_entries_recompute_correctly(self):
        svc = self._svc(cap=1)
        for _round in range(3):
            for subject in ("b", "c", "d", "e"):
                got = svc.contribution("a", subject)
                assert got == two_hop_flow(svc.graph_of("a"), subject, "a")

    def test_lru_order_keeps_recently_used(self):
        svc = self._svc(cap=2)
        svc.contribution("a", "b")
        svc.contribution("a", "c")
        svc.contribution("a", "b")  # refresh b — c is now the LRU entry
        svc.contribution("a", "d")  # evicts c, not b
        cache = svc._nodes["a"].contrib_cache
        assert "b" in cache and "d" in cache and "c" not in cache
        hits = svc.cache_hits
        svc.contribution("a", "b")
        assert svc.cache_hits == hits + 1

    def test_unbounded_by_default_never_evicts(self):
        svc = self._svc(cap=0)
        for subject in ("b", "c", "d", "e"):
            svc.contribution("a", subject)
        assert svc.cache_evictions == 0
        assert len(svc._nodes["a"].contrib_cache) == 4

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BarterCastConfig(contrib_cache_entries=-1)


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


class TestAdaptiveCacheBudget:
    def test_formula_scales_with_sqrt_population(self):
        from repro.bartercast.protocol import adaptive_contrib_cache_entries

        assert adaptive_contrib_cache_entries(0) == 0
        assert adaptive_contrib_cache_entries(10_000) == 0  # unbounded is fine
        assert adaptive_contrib_cache_entries(10_001) == 1024  # floor applies
        assert adaptive_contrib_cache_entries(1_000_000) == 8_000
        with pytest.raises(ValueError):
            adaptive_contrib_cache_entries(-1)

    def test_resolve_only_when_unset(self):
        svc = make_service()  # contrib_cache_entries defaults to None
        assert svc.resolve_cache_budget(1_000_000) == 8_000
        assert svc._contrib_cap == 8_000

        pinned = make_service(contrib_cache_entries=77)
        assert pinned.resolve_cache_budget(1_000_000) == 77
        assert pinned._contrib_cap == 77

    def test_stats_report_hit_rate_and_memory(self):
        svc = make_service()
        svc.local_transfer("a", "b", 4 * MB, now=0.0)
        svc.contribution("a", "b")  # miss
        svc.contribution("a", "b")  # hit
        stats = svc.cache_stats()
        assert stats["contribution_hit_rate"] == pytest.approx(0.5)
        assert stats["contrib_cache_entries_total"] == 1
        assert stats["contrib_cache_memory_bytes"] == 200
        assert stats["contrib_cache_cap"] == 0
