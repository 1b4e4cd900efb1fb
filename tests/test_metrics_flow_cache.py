"""The incremental :class:`FlowMatrixCache`.

Row ``i`` of the flow matrix depends only on observer ``i``'s
subjective graph, so the cache must (a) recompute **exactly** the rows
whose observer graph changed — the counter assertions pin this — and
(b) remain bit-identical to a full fresh recompute at every step.
"""

import numpy as np
import pytest

from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.bartercast.records import TransferRecord
from repro.metrics.cev import (
    FlowMatrixCache,
    collective_experience_value,
    flow_matrix,
)
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS

PEERS = ["a", "b", "c", "d"]


def make_service(peers=PEERS, seed=0, **cfg):
    reg = OnlineRegistry()
    for p in peers:
        reg.set_online(p)
    pss = OraclePSS(reg, np.random.default_rng(seed))
    return BarterCastService(pss, BarterCastConfig(**cfg))


def seeded_service():
    svc = make_service()
    svc.local_transfer("a", "b", 8.0, now=0.0)
    svc.local_transfer("b", "c", 4.0, now=1.0)
    svc.local_transfer("c", "d", 2.0, now=2.0)
    return svc


class TestIncrementalRows:
    def test_first_call_computes_all_rows(self):
        svc = seeded_service()
        cache = FlowMatrixCache(svc, PEERS)
        F = cache.matrix()
        assert cache.rows_recomputed == len(PEERS)
        assert cache.rows_reused == 0
        np.testing.assert_array_equal(F, flow_matrix(svc, PEERS))

    def test_idle_resample_reuses_every_row(self):
        svc = seeded_service()
        cache = FlowMatrixCache(svc, PEERS)
        cache.matrix()
        cache.matrix()
        assert cache.rows_recomputed == len(PEERS)
        assert cache.rows_reused == len(PEERS)

    def test_single_observer_change_recomputes_one_row(self):
        svc = seeded_service()
        cache = FlowMatrixCache(svc, PEERS)
        cache.matrix()
        # inject_record touches exactly one holder's graph — the only
        # mutation primitive that changes a single observer.
        svc.inject_record(
            "c", TransferRecord("a", "d", up=3.0, down=1.0, timestamp=5.0)
        )
        F = cache.matrix()
        assert cache.rows_recomputed == len(PEERS) + 1
        assert cache.rows_reused == len(PEERS) - 1
        np.testing.assert_array_equal(F, flow_matrix(svc, PEERS))

    def test_local_transfer_recomputes_both_endpoint_rows(self):
        svc = seeded_service()
        cache = FlowMatrixCache(svc, PEERS)
        cache.matrix()
        svc.local_transfer("a", "d", 6.0, now=3.0)  # touches a and d
        cache.matrix()
        assert cache.rows_recomputed == len(PEERS) + 2

    def test_stays_equal_to_full_recompute_under_churn(self):
        svc = seeded_service()
        cache = FlowMatrixCache(svc, PEERS)
        rng = np.random.default_rng(3)
        for step in range(30):
            u, v = rng.choice(PEERS, size=2, replace=False)
            svc.local_transfer(str(u), str(v), float(rng.uniform(1, 9)), now=float(step))
            np.testing.assert_array_equal(
                cache.matrix(), flow_matrix(svc, PEERS)
            )
        assert cache.rows_reused > 0  # incrementality actually engaged



class TestFlowMatrixFrontend:
    def test_flow_matrix_with_cache_returns_copy(self):
        svc = seeded_service()
        cache = FlowMatrixCache(svc, PEERS)
        F = flow_matrix(svc, PEERS, cache=cache)
        F[0, 0] = 123.0  # caller's copy — must not poison the cache
        np.testing.assert_array_equal(cache.matrix()[0, 0], 0.0)

    def test_peer_list_mismatch_rejected(self):
        svc = seeded_service()
        cache = FlowMatrixCache(svc, PEERS)
        with pytest.raises(ValueError):
            flow_matrix(svc, ["a", "b"], cache=cache)
        with pytest.raises(ValueError):
            collective_experience_value(svc, ["a", "b"], [1.0], cache=cache)

    def test_cev_with_cache_matches_without(self):
        svc = seeded_service()
        cache = FlowMatrixCache(svc, PEERS)
        thresholds = [1.0, 4.0, 8.0]
        for step in range(5):
            svc.local_transfer("a", "c", 3.0 * (step + 1), now=float(step))
            with_cache = collective_experience_value(
                svc, PEERS, thresholds, cache=cache
            )
            without = collective_experience_value(svc, PEERS, thresholds)
            assert with_cache == without
