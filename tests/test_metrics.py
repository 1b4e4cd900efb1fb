"""Tests for CEV, ordering, pollution and the time-series recorder."""

import numpy as np
import pytest

from repro.bartercast.maxflow import two_hop_flow
from repro.bartercast.protocol import BarterCastService
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import Vote, VoteEntry
from repro.metrics.cev import collective_experience_value, flow_matrix, flows_to_observer
from repro.metrics.ordering import correct_order_fraction
from repro.metrics.pollution import is_polluted, pollution_fraction
from repro.metrics.timeseries import TimeSeries, TimeSeriesRecorder
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS
from repro.sim.engine import Engine
from repro.sim.units import MB
from tests.reference_runtime import receive_votes


def make_bartercast(peers):
    reg = OnlineRegistry()
    for p in peers:
        reg.set_online(p)
    return BarterCastService(OraclePSS(reg, np.random.default_rng(0)))


class TestCEV:
    def test_flows_match_two_hop_closed_form(self):
        peers = ["a", "b", "c", "d"]
        bc = make_bartercast(peers)
        bc.local_transfer("b", "a", 7 * MB, now=0.0)
        bc.local_transfer("c", "a", 2 * MB, now=0.0)
        # give a's graph a two-hop path d→c→a via gossip-free injection
        from repro.bartercast.records import TransferRecord

        bc.inject_record("a", TransferRecord("c", "d", up=0.0, down=4 * MB, timestamp=0.0))
        flows = flows_to_observer(bc, "a", peers)
        g = bc.graph_of("a")
        for j, pid in enumerate(peers):
            assert flows[j] == pytest.approx(two_hop_flow(g, pid, "a")), pid

    def test_flow_matrix_orientation(self):
        peers = ["a", "b"]
        bc = make_bartercast(peers)
        bc.local_transfer("b", "a", 5 * MB, now=0.0)
        F = flow_matrix(bc, peers)
        # F[i, j] = f_{j -> i}; a is row 0, b col 1
        assert F[0, 1] == 5 * MB
        assert F[1, 0] == 0.0

    def test_cev_counts_ordered_pairs(self):
        peers = ["a", "b", "c"]
        bc = make_bartercast(peers)
        bc.local_transfer("b", "a", 10 * MB, now=0.0)
        cev = collective_experience_value(bc, peers, thresholds=[5 * MB])
        # exactly one ordered pair (a experiences b) out of 6
        assert cev[5 * MB] == pytest.approx(1 / 6)

    def test_cev_multiple_thresholds_monotone(self):
        peers = [f"p{i}" for i in range(6)]
        bc = make_bartercast(peers)
        rng = np.random.default_rng(1)
        for _ in range(30):
            u, d = rng.choice(6, size=2, replace=False)
            bc.local_transfer(f"p{u}", f"p{d}", float(rng.integers(1, 10)) * MB, now=0.0)
        ts = [1 * MB, 5 * MB, 20 * MB, 100 * MB]
        cev = collective_experience_value(bc, peers, thresholds=ts)
        values = [cev[t] for t in ts]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert 0.0 <= values[-1] <= values[0] <= 1.0

    def test_cev_zero_threshold_is_total_but_never_self(self):
        """T=0 means f >= 0 holds for every ordered pair (the adaptive-T
        starting point: everyone accepted) — but self-pairs never count."""
        peers = ["a", "b"]
        bc = make_bartercast(peers)
        cev = collective_experience_value(bc, peers, thresholds=[0.0])
        assert cev[0.0] == 1.0  # both ordered pairs, diagonal excluded

    def test_tiny_population(self):
        bc = make_bartercast(["a"])
        assert collective_experience_value(bc, ["a"], [1.0]) == {1.0: 0.0}


def node_with_votes(pid, votes, b_min=1):
    node = VoteSamplingNode(pid, NodeConfig(b_min=b_min), np.random.default_rng(0))
    for i, (mod, v) in enumerate(votes):
        receive_votes(node, f"v{i}-{mod}", [VoteEntry(mod, v, 0.0)], 1.0, True)
    return node


class TestOrdering:
    def test_correct_node_counted(self):
        n = node_with_votes("x", [("M1", Vote.POSITIVE), ("M3", Vote.NEGATIVE)])
        # make M2 known with score 0
        n.receive_top_k(["M2"])
        nodes = {"x": n}
        assert correct_order_fraction(nodes, ["M1", "M2", "M3"]) == 1.0

    def test_ignorant_node_not_correct(self):
        n = node_with_votes("x", [])
        assert correct_order_fraction({"x": n}, ["M1", "M2", "M3"]) == 0.0

    def test_moderators_excluded_from_denominator(self):
        n = node_with_votes("x", [("M1", Vote.POSITIVE), ("M3", Vote.NEGATIVE)])
        n.receive_top_k(["M2"])
        m1 = node_with_votes("M1", [])
        nodes = {"x": n, "M1": m1}
        assert correct_order_fraction(nodes, ["M1", "M2", "M3"]) == 1.0

    def test_include_subset(self):
        good = node_with_votes("g", [("M1", Vote.POSITIVE), ("M3", Vote.NEGATIVE)])
        good.receive_top_k(["M2"])
        bad = node_with_votes("b", [])
        nodes = {"g": good, "b": bad}
        assert correct_order_fraction(nodes, ["M1", "M2", "M3"], include=["g"]) == 1.0
        assert correct_order_fraction(nodes, ["M1", "M2", "M3"]) == 0.5

    def test_empty_population(self):
        assert correct_order_fraction({}, ["M1"]) == 0.0


class TestPollution:
    def test_spam_top_is_polluted(self):
        n = node_with_votes("x", [("M0", Vote.POSITIVE)])
        assert is_polluted(n, "M0")

    def test_tie_is_not_polluted(self):
        n = node_with_votes(
            "x", [("M0", Vote.POSITIVE), ("M1", Vote.POSITIVE)]
        )
        assert not is_polluted(n, "M0")

    def test_no_information_is_not_polluted(self):
        n = node_with_votes("x", [], b_min=5)
        assert not is_polluted(n, "M0")

    def test_honest_top_not_polluted(self):
        n = node_with_votes(
            "x", [("M1", Vote.POSITIVE), ("M1", Vote.POSITIVE), ("M0", Vote.POSITIVE)]
        )
        # two distinct voters on M1 (helper uses unique voter ids)
        assert not is_polluted(n, "M0")

    def test_fraction_over_subset(self):
        p = node_with_votes("p", [("M0", Vote.POSITIVE)])
        h = node_with_votes("h", [("M1", Vote.POSITIVE)])
        nodes = {"p": p, "h": h}
        assert pollution_fraction(nodes, "M0", include=["p", "h"]) == 0.5
        assert pollution_fraction(nodes, "M0", include=[]) == 0.0

    def test_bootstrapping_node_polluted_through_voxpopuli(self):
        n = VoteSamplingNode("x", NodeConfig(b_min=5), np.random.default_rng(0))
        n.receive_top_k(["M0", "M1"])
        assert is_polluted(n, "M0")


class TestTimeSeries:
    def test_recorder_samples_on_cadence(self):
        eng = Engine()
        rec = TimeSeriesRecorder(eng, interval=10.0)
        counter = {"n": 0}

        def probe():
            counter["n"] += 1
            return float(counter["n"])

        rec.add_probe("count", probe)
        rec.start()
        eng.run_until(35.0)
        series = rec.get("count")
        assert list(series.times) == [0.0, 10.0, 20.0, 30.0]
        assert list(series.values) == [1.0, 2.0, 3.0, 4.0]

    def test_mapping_probe_creates_subseries(self):
        eng = Engine()
        rec = TimeSeriesRecorder(eng, interval=10.0)
        rec.add_probe("cev", lambda: {"T=5": 0.1, "T=10": 0.05})
        rec.start()
        eng.run_until(10.0)
        assert len(rec.get("cev:T=5")) == 2
        assert rec.get("cev:T=10").final() == 0.05

    def test_value_at_step_interpolation(self):
        s = TimeSeries("x")
        s.append(0.0, 1.0)
        s.append(10.0, 2.0)
        assert s.value_at(5.0) == 1.0
        assert s.value_at(10.0) == 2.0
        with pytest.raises(ValueError):
            s.value_at(-1.0)

    def test_no_start_sample_option(self):
        eng = Engine()
        rec = TimeSeriesRecorder(eng, interval=10.0, sample_at_start=False)
        rec.add_probe("x", lambda: 1.0)
        rec.start()
        eng.run_until(25.0)
        assert list(rec.get("x").times) == [10.0, 20.0]

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimeSeriesRecorder(Engine(), interval=0.0)
