"""Microbenchmarks for the performance-critical kernels.

These are conventional pytest-benchmark measurements (many rounds) for
the hot paths the guide says to profile: the maxflow evaluation inside
the experience function, the vectorised CEV probe, bitfield set
algebra, and one BitTorrent swarm round.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import two_hop_flow, two_hop_flows_to_sink
from repro.bartercast.protocol import BarterCastService
from repro.bittorrent.ledger import TransferLedger
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.metrics.cev import collective_experience_value
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS
from repro.sim.engine import Engine
from repro.sim.units import MB
from repro.traces.model import PeerProfile, SwarmSpec


@pytest.fixture(scope="module")
def dense_graph():
    rng = np.random.default_rng(0)
    g = SubjectiveGraph("owner")
    nodes = [f"n{i}" for i in range(100)]
    for u in nodes:
        for v in nodes:
            if u != v and rng.random() < 0.1:
                g.observe_direct(u, v, float(rng.integers(1, 50)) * MB)
    return g, nodes


def test_bench_two_hop_flow(benchmark, dense_graph):
    g, nodes = dense_graph
    result = benchmark(lambda: two_hop_flow(g, nodes[1], nodes[0]))
    assert result >= 0.0


def test_bench_cev_probe_100_peers(benchmark):
    peers = [f"p{i}" for i in range(100)]
    reg = OnlineRegistry()
    for p in peers:
        reg.set_online(p)
    bc = BarterCastService(OraclePSS(reg, np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    for _ in range(2000):
        u, d = rng.choice(100, size=2, replace=False)
        bc.local_transfer(peers[u], peers[d], float(rng.integers(1, 20)) * MB, 0.0)
    thresholds = [2 * MB, 5 * MB, 10 * MB, 20 * MB, 50 * MB]
    out = benchmark(lambda: collective_experience_value(bc, peers, thresholds))
    assert 0.0 <= out[5 * MB] <= 1.0


def test_bench_batch_flows(benchmark, dense_graph):
    g, nodes = dense_graph
    flows = benchmark(lambda: two_hop_flows_to_sink(g, nodes, nodes[0]))
    assert flows.shape == (len(nodes),)


def test_bench_build_10k_nodes(benchmark):
    """Build a 10k-node graph edge by edge; no ``n × n`` block is ever
    held, so the build peaks far under the 800 MB one would take."""
    n = 10_000

    def build():
        tracemalloc.start()
        g = SubjectiveGraph("hub")
        for i in range(n):
            g.observe_direct(f"n{i}", f"n{(i + 1) % n}", float(i % 13 + 1))
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return g, peak

    g, peak = benchmark.pedantic(build, rounds=1, iterations=1)
    assert len(g._order) == n
    assert peak * 100 < n * n * 8


def test_bench_bitfield_interest(benchmark):
    """The round's interest decision for every neighbour pair at once,
    at the shape of the largest Fig 6 swarm (88 members × 3 140
    pieces): one seed, everyone else part-way through."""
    rng = np.random.default_rng(2)
    pieces = 3140
    spec = SwarmSpec("s", file_size=pieces * 256 * 1024.0, initial_seeder="seed")
    swarm = Swarm(spec, SwarmConfig(), np.random.default_rng(3), TransferLedger())
    swarm.join(PeerProfile("seed"), 0.0)
    for i in range(87):
        swarm.join(PeerProfile(f"p{i}"), 0.0)
        member = swarm.members[f"p{i}"]
        for piece in rng.choice(pieces, int(rng.integers(0, pieces)), replace=False):
            member.gain(int(piece))
    interest = benchmark(swarm._round_interest)
    assert len(interest) == 88
    assert sum(len(names) for _member, names in interest) > 88


def test_bench_swarm_round(benchmark):
    spec = SwarmSpec("s", file_size=400 * 256 * 1024.0, initial_seeder="seed")
    swarm = Swarm(spec, SwarmConfig(), np.random.default_rng(3), TransferLedger())
    swarm.join(PeerProfile("seed", upload_capacity=1e6), 0.0)
    for i in range(30):
        swarm.join(PeerProfile(f"p{i}"), 0.0)
    clock = {"t": 0.0}

    def round_():
        clock["t"] += 30.0
        return swarm.run_round(clock["t"], 30.0)

    moved = benchmark(round_)
    assert moved >= 0.0


def test_bench_engine_event_throughput(benchmark):
    def push_and_drain():
        eng = Engine()
        for i in range(10_000):
            eng.schedule(float(i % 97), lambda: None)
        return eng.run_until(97.0)

    fired = benchmark(push_and_drain)
    assert fired == 10_000
