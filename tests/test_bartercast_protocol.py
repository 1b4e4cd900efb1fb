"""Tests for records, the subjective graph, and the gossip service."""

import numpy as np
import pytest

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import two_hop_flow
from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.bartercast.records import TransferRecord
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS
from repro.sim.units import MB
from tests import reference_bartercast as ref
from tests.reference_bartercast import edmonds_karp


def make_service(peers=("a", "b", "c"), seed=0, **cfg):
    reg = OnlineRegistry()
    for p in peers:
        reg.set_online(p)
    pss = OraclePSS(reg, np.random.default_rng(seed))
    return BarterCastService(pss, BarterCastConfig(**cfg)), reg


class TestRecords:
    def test_rejects_self_record(self):
        with pytest.raises(ValueError):
            TransferRecord("a", "a", 1.0, 1.0, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            TransferRecord("a", "b", -1.0, 0.0, 0.0)


class TestSubjectiveGraph:
    def test_record_creates_both_edges(self):
        g = SubjectiveGraph("me")
        g.add_record(TransferRecord("a", "b", up=10.0, down=4.0, timestamp=0.0))
        assert ref.weight(g, "a", "b") == 10.0
        assert ref.weight(g, "b", "a") == 4.0

    def test_max_wins_on_conflict(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 10.0)
        g.observe_direct("a", "b", 5.0)  # stale smaller total
        assert ref.weight(g, "a", "b") == 10.0
        g.observe_direct("a", "b", 12.0)
        assert ref.weight(g, "a", "b") == 12.0

    def test_zero_weight_ignored(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 0.0)
        assert ref.num_edges(g) == 0

    def test_nodes_and_edges_enumeration(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 1.0)
        g.observe_direct("b", "c", 2.0)
        assert ref.nodes(g) == {"a", "b", "c"}
        assert sorted(ref.edges(g)) == [("a", "b", 1.0), ("b", "c", 2.0)]

    def test_to_matrix(self):
        g = SubjectiveGraph("me")
        g.observe_direct("a", "b", 3.0)
        ids, mat = g.dense()
        assert ids == ["a", "b"]
        assert mat[0, 1] == 3.0
        assert mat[1, 0] == 0.0


class TestLocalTransfer:
    def test_both_endpoints_record(self):
        svc, _ = make_service()
        svc.local_transfer("a", "b", 5 * MB, now=10.0)
        assert ref.weight(svc.graph_of("a"), "a", "b") == 5 * MB
        assert ref.weight(svc.graph_of("b"), "a", "b") == 5 * MB
        # third party knows nothing yet
        assert ref.weight(svc.graph_of("c"), "a", "b") == 0.0

    def test_transfers_accumulate(self):
        svc, _ = make_service()
        svc.local_transfer("a", "b", 2 * MB, now=1.0)
        svc.local_transfer("a", "b", 3 * MB, now=2.0)
        assert ref.weight(svc.graph_of("b"), "a", "b") == 5 * MB

    def test_zero_ignored(self):
        svc, _ = make_service()
        svc.local_transfer("a", "b", 0.0, now=1.0)
        assert ref.num_edges(svc.graph_of("a")) == 0

    def test_round_batch_equals_transfer_by_transfer(self):
        round_ = [("a", "b", 2 * MB), ("b", "c", 0.0), ("c", "a", 1 * MB), ("a", "b", 3 * MB)]
        batched, _ = make_service()
        batched.local_transfers(round_, now=4.0)
        single, _ = make_service()
        for u, d, n in round_:
            single.local_transfer(u, d, n, now=4.0)
        for peer in ("a", "b", "c"):
            assert batched.records_of(peer) == single.records_of(peer)
            assert ref.edges(batched.graph_of(peer)) == ref.edges(single.graph_of(peer))
            assert batched.graph_of(peer).dense()[0] == single.graph_of(peer).dense()[0]

    def test_records_of_reports_own_totals(self):
        svc, _ = make_service()
        svc.local_transfer("a", "b", 5 * MB, now=1.0)
        svc.local_transfer("b", "a", 2 * MB, now=2.0)
        recs = {r.partner: r for r in svc.records_of("a")}
        assert recs["b"].up == 5 * MB
        assert recs["b"].down == 2 * MB

    def test_records_truncated_to_most_significant(self):
        svc, _ = make_service(max_records_per_exchange=2)
        svc.local_transfer("a", "b", 1 * MB, now=0.0)
        svc.local_transfer("a", "c", 9 * MB, now=0.0)
        svc.local_transfer("a", "d", 5 * MB, now=0.0)
        partners = {r.partner for r in svc.records_of("a")}
        assert partners == {"c", "d"}


class TestGossip:
    def test_gossip_spreads_records(self):
        svc, reg = make_service(peers=("a", "b", "c"), seed=1)
        svc.local_transfer("a", "b", 5 * MB, now=0.0)
        # force many ticks so c eventually meets a or b
        for t in range(40):
            for p in ("a", "b", "c"):
                svc.gossip_tick(p, float(t))
        assert ref.weight(svc.graph_of("c"), "a", "b") == 5 * MB

    def test_gossip_with_no_peers_fails_gracefully(self):
        svc, reg = make_service(peers=("a",))
        assert svc.gossip_tick("a", 0.0) is False

    def test_contribution_direct(self):
        svc, _ = make_service()
        svc.local_transfer("b", "a", 7 * MB, now=0.0)
        assert svc.contribution("a", "b") == 7 * MB
        assert svc.contribution("b", "a") == 0.0  # a gave b nothing

    def test_contribution_two_hop_via_gossip(self):
        """b uploads to c; c uploads to a; after gossip a credits b
        min(b→c, c→a)."""
        svc, _ = make_service(seed=3)
        svc.local_transfer("b", "c", 10 * MB, now=0.0)
        svc.local_transfer("c", "a", 4 * MB, now=1.0)
        for t in range(40):
            for p in ("a", "b", "c"):
                svc.gossip_tick(p, float(t))
        assert svc.contribution("a", "b") == pytest.approx(min(10, 4) * MB)

    def test_contribution_self_zero(self):
        svc, _ = make_service()
        assert svc.contribution("a", "a") == 0.0

    def test_three_hop_contribution_invisible_at_two_hop_bound(self):
        svc, _ = make_service(peers=("a", "b", "c", "d"), seed=5)
        svc.local_transfer("b", "c", 9 * MB, now=0.0)
        svc.local_transfer("c", "d", 9 * MB, now=0.0)
        svc.local_transfer("d", "a", 9 * MB, now=0.0)
        for t in range(60):
            for p in ("a", "b", "c", "d"):
                svc.gossip_tick(p, float(t))
        assert svc.contribution("a", "b") == 0.0  # path b→c→d→a is 3 hops
        assert svc.contribution("a", "c") == 9 * MB

    def test_hearsay_records_rejected(self):
        """A peer cannot push records reported by somebody else."""
        svc, _ = make_service(peers=("honest", "liar"), seed=2)
        # The liar crafts a record claiming huge upload by "accomplice".
        fake = TransferRecord("accomplice", "liar", up=100 * MB, down=0.0, timestamp=0.0)
        svc._state("liar").direct  # liar has no real transfers
        # Simulate the exchange path directly: receiver folds only
        # records whose reporter equals the sender.
        svc._state("liar").graph.add_record(fake)  # liar's own graph may lie
        for t in range(20):
            svc.gossip_tick("honest", float(t))
        assert ref.weight(svc.graph_of("honest"), "accomplice", "liar") == 0.0

    def test_inject_record_for_attack_models(self):
        svc, _ = make_service()
        svc.inject_record(
            "victim", TransferRecord("x", "y", up=5 * MB, down=0.0, timestamp=0.0)
        )
        assert ref.weight(svc.graph_of("victim"), "x", "y") == 5 * MB


class TestContributionOracle:
    """``contribution()`` answers verbatim what :func:`two_hop_flow`
    computes over the observer's current graph, under a random mix of
    transfers, gossip and injected records."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_contribution_is_two_hop_flow_under_interleaving(self, seed):
        peers = [f"p{i}" for i in range(6)]
        svc, _ = make_service(peers=tuple(peers), seed=seed)
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
                got = svc.contribution(o, s)
                # verbatim the closed form …
                assert got == two_hop_flow(svc.graph_of(o), s, o)
                # … and equal to the generic bounded maxflow
                assert got == pytest.approx(
                    edmonds_karp(svc.graph_of(o), s, o, max_hops=2)
                )


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BarterCastConfig(max_records_per_exchange=0)
