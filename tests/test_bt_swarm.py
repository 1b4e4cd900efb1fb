"""Integration-style tests for the swarm round engine."""

import numpy as np
import pytest

from repro.bittorrent.ledger import TransferLedger
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.traces.model import PeerProfile, SwarmSpec


def make_swarm(
    file_size=10 * 256 * 1024,
    piece_size=256 * 1024,
    seeder="seed",
    seed=0,
    **cfg_kw,
):
    spec = SwarmSpec("s", file_size=file_size, piece_size=piece_size, initial_seeder=seeder)
    cfg = SwarmConfig(**cfg_kw)
    return Swarm(spec, cfg, np.random.default_rng(seed), TransferLedger())


def profile(pid, up=100_000.0, down=1_000_000.0, free_rider=False, connectable=True):
    return PeerProfile(
        pid,
        connectable=connectable,
        free_rider=free_rider,
        upload_capacity=up,
        download_capacity=down,
    )


def run_rounds(swarm, n, dt=30.0, t0=0.0):
    t = t0
    for _ in range(n):
        t += dt
        swarm.run_round(t, dt)
    return t


class TestMembership:
    def test_initial_seeder_joins_complete(self):
        sw = make_swarm()
        sw.join(profile("seed"), 0.0)
        assert sw.progress_of("seed") == 1.0
        assert sw.members["seed"].bitfield.complete

    def test_join_twice_refused(self):
        sw = make_swarm()
        assert sw.join(profile("a"), 0.0)
        assert not sw.join(profile("a"), 0.0)

    def test_leave_is_idempotent(self):
        sw = make_swarm()
        sw.join(profile("a"), 0.0)
        sw.leave("a", 1.0)
        sw.leave("a", 1.0)
        assert "a" not in sw.active

    def test_bitfield_persists_across_sessions(self):
        sw = make_swarm()
        sw.join(profile("seed"), 0.0)
        sw.join(profile("a"), 0.0)
        run_rounds(sw, 5)
        progress = sw.progress_of("a")
        assert progress > 0
        sw.leave("a", 200.0)
        sw.join(profile("a"), 300.0)
        assert sw.progress_of("a") == progress

    def test_completed_free_rider_does_not_rejoin(self):
        sw = make_swarm(file_size=2 * 256 * 1024)
        sw.join(profile("seed"), 0.0)
        fr = profile("fr", free_rider=True)
        sw.join(fr, 0.0)
        run_rounds(sw, 60)
        assert sw.progress_of("fr") == 1.0
        assert "fr" not in sw.active  # left on completion
        assert not sw.join(fr, 1000.0)  # refuses to come back as seed

    def test_two_firewalled_peers_do_not_connect(self):
        sw = make_swarm(seeder=None)
        sw.join(profile("a", connectable=False), 0.0)
        sw.join(profile("b", connectable=False), 0.0)
        assert sw.neighbors.get("a", set()) == set()
        assert sw.neighbors.get("b", set()) == set()

    def test_firewalled_peer_connects_to_connectable(self):
        sw = make_swarm(seeder=None)
        sw.join(profile("a", connectable=False), 0.0)
        sw.join(profile("b", connectable=True), 0.0)
        assert "b" in sw.neighbors["a"]
        assert "a" in sw.neighbors["b"]

    def test_max_connections_respected(self):
        sw = make_swarm(seeder=None, max_connections=3)
        for i in range(10):
            sw.join(profile(f"p{i}"), 0.0)
        # join-time budget: nobody opens more than max_connections
        # themselves (incoming edges may exceed it, as in BitTorrent).
        assert all(len(nbs) <= 4 * 3 for nbs in sw.neighbors.values())


class TestTransfers:
    def test_leecher_downloads_from_seed(self):
        sw = make_swarm()
        sw.join(profile("seed"), 0.0)
        sw.join(profile("a"), 0.0)
        moved = sw.run_round(30.0, 30.0)
        assert moved > 0
        assert sw.progress_of("a") > 0

    def test_download_completes_and_is_stamped(self):
        sw = make_swarm(file_size=4 * 256 * 1024)
        sw.join(profile("seed"), 0.0)
        sw.join(profile("a"), 0.0)
        run_rounds(sw, 80)
        assert sw.progress_of("a") == 1.0
        assert sw.members["a"].completed_at is not None

    def test_transfer_recorded_in_ledger(self):
        sw = make_swarm()
        sw.join(profile("seed"), 0.0)
        sw.join(profile("a"), 0.0)
        run_rounds(sw, 5)
        assert sw.ledger.sent("seed", "a") > 0
        assert sw.ledger.sent("a", "seed") == 0.0  # a has nothing seed wants

    def test_upload_capacity_bounds_throughput(self):
        up_cap = 50_000.0
        sw = make_swarm()
        sw.join(profile("seed", up=up_cap), 0.0)
        sw.join(profile("a"), 0.0)
        sw.join(profile("b"), 0.0)
        dt, rounds = 30.0, 10
        run_rounds(sw, rounds, dt=dt)
        total_up = sw.ledger.uploaded_by("seed")
        assert total_up <= up_cap * dt * rounds * 1.0001

    def test_download_capacity_bounds_throughput(self):
        down_cap = 30_000.0
        sw = make_swarm()
        sw.join(profile("seed", up=1e7), 0.0)
        sw.join(profile("a", down=down_cap), 0.0)
        dt, rounds = 30.0, 10
        run_rounds(sw, rounds, dt=dt)
        assert sw.ledger.downloaded_by("a") <= down_cap * dt * rounds * 1.0001

    def test_no_transfer_with_single_peer(self):
        sw = make_swarm()
        sw.join(profile("seed"), 0.0)
        assert sw.run_round(30.0, 30.0) == 0.0

    def test_free_rider_leaves_after_completion(self):
        sw = make_swarm(file_size=2 * 256 * 1024)
        sw.join(profile("seed"), 0.0)
        sw.join(profile("fr", free_rider=True), 0.0)
        run_rounds(sw, 60)
        assert sw.progress_of("fr") == 1.0
        assert "fr" not in sw.active

    def test_altruist_stays_seeding_after_completion(self):
        sw = make_swarm(file_size=2 * 256 * 1024)
        sw.join(profile("seed"), 0.0)
        sw.join(profile("alt"), 0.0)
        run_rounds(sw, 60)
        assert sw.progress_of("alt") == 1.0
        assert "alt" in sw.active

    def test_new_seed_uploads_to_later_leechers(self):
        sw = make_swarm(file_size=2 * 256 * 1024)
        sw.join(profile("seed"), 0.0)
        sw.join(profile("alt"), 0.0)
        t = run_rounds(sw, 60)
        sw.leave("seed", t)
        sw.join(profile("late"), t)
        run_rounds(sw, 60, t0=t)
        assert sw.progress_of("late") == 1.0
        assert sw.ledger.sent("alt", "late") > 0

    def test_peers_exchange_pieces_bidirectionally(self):
        """Two leechers with disjoint halves trade with each other."""
        sw = make_swarm(file_size=8 * 256 * 1024, seeder=None)
        sw.join(profile("a"), 0.0)
        sw.join(profile("b"), 0.0)
        # Pre-load disjoint halves.
        for i in range(4):
            sw.members["a"].gain(i)
            sw.picker.piece_completed(i)
        for i in range(4, 8):
            sw.members["b"].gain(i)
            sw.picker.piece_completed(i)
        run_rounds(sw, 100)
        assert sw.progress_of("a") == 1.0
        assert sw.progress_of("b") == 1.0
        assert sw.ledger.sent("a", "b") > 0
        assert sw.ledger.sent("b", "a") > 0

    def test_last_piece_costs_only_remainder(self):
        piece = 256 * 1024
        sw = make_swarm(file_size=int(2.5 * piece), piece_size=piece)
        assert sw.num_pieces == 3
        assert sw.piece_cost(0) == piece
        assert sw.piece_cost(2) == pytest.approx(0.5 * piece)

    def test_total_downloaded_bytes_match_file_size(self):
        """Conservation: a completed download moved ≈ file_size bytes."""
        fsize = 4 * 256 * 1024
        sw = make_swarm(file_size=fsize)
        sw.join(profile("seed"), 0.0)
        sw.join(profile("a"), 0.0)
        run_rounds(sw, 120)
        assert sw.progress_of("a") == 1.0
        assert sw.ledger.downloaded_by("a") == pytest.approx(fsize, rel=1e-6)


class TestDeterminism:
    def test_same_seed_same_outcome(self):
        def build():
            sw = make_swarm(seed=9)
            sw.join(profile("seed"), 0.0)
            for i in range(5):
                sw.join(profile(f"p{i}"), 0.0)
            run_rounds(sw, 20)
            return {p: sw.progress_of(p) for p in sw.members}

        assert build() == build()
