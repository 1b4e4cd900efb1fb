"""Conservation and invariant property tests for the swarm engine.

These are the "make really sure your algorithm is right" tests the
optimization guide calls for before any tuning: byte conservation,
bitfield/picker consistency, and capacity invariants across randomised
membership schedules.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bittorrent.bitfield import bits_to_array
from repro.bittorrent.ledger import TransferLedger
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.traces.model import PeerProfile, SwarmSpec
from tests import reference_bittorrent as bt

PIECE = 256 * 1024.0


def build_swarm(n_pieces=8, seed=0):
    spec = SwarmSpec("s", file_size=n_pieces * PIECE, piece_size=PIECE,
                     initial_seeder="seed")
    return Swarm(spec, SwarmConfig(), np.random.default_rng(seed), TransferLedger())


def availability_ground_truth(swarm):
    total = np.zeros(swarm.num_pieces, dtype=np.int64)
    for member in swarm.active.values():
        total += bt.as_array(member.bitfield)
    return total


def assert_possession_views_agree(swarm):
    """``wanted_bits == ~have & ~in_flight`` and the count is the number of
    held pieces, for every member that ever joined."""
    full = (1 << swarm.num_pieces) - 1
    for member in swarm.members.values():
        have = member.bitfield.bits
        in_flight = 0
        for piece in member.in_flight.values():
            in_flight |= 1 << piece
        assert len(set(member.in_flight.values())) == len(member.in_flight)
        assert not have & in_flight
        assert member.wanted_bits == full & ~have & ~in_flight
        assert member.bitfield.count == have.bit_count()
        assert 0 <= have <= full


def assert_levels_agree(picker):
    """The picker's levels partition the pieces by availability."""
    avail = bt.availability(picker)
    for a, level in enumerate(picker.levels):
        assert np.array_equal(bits_to_array(level, picker.num_pieces), avail == a)


@given(
    schedule=st.lists(
        st.tuples(
            st.sampled_from(["join", "leave", "round"]),
            st.integers(0, 5),
        ),
        max_size=40,
    )
)
@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_picker_availability_matches_active_bitfields(schedule):
    """The incrementally-maintained availability array always equals
    the sum of active members' bitfields."""
    swarm = build_swarm()
    swarm.join(PeerProfile("seed", upload_capacity=1e6), 0.0)
    t = 0.0
    for op, pid_num in schedule:
        pid = f"p{pid_num}"
        t += 30.0
        if op == "join":
            swarm.join(PeerProfile(pid), t)
        elif op == "leave":
            swarm.leave(pid, t)
        else:
            swarm.run_round(t, 30.0)
        assert np.array_equal(
            bt.availability(swarm.picker), availability_ground_truth(swarm)
        )
        assert_levels_agree(swarm.picker)
        # ... and after every join (initial-seeder fill included),
        # leave, rejoin and round's piece completions, each member's
        # ``wanted_bits`` still agree with its possession.
        assert_possession_views_agree(swarm)


@given(seed=st.integers(0, 50), n_leechers=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_property_ledger_bytes_equal_piece_progress(seed, n_leechers):
    """Conservation: bytes recorded in the ledger equal the bytes
    embodied in completed pieces plus in-flight partial accumulators."""
    swarm = build_swarm(seed=seed)
    swarm.join(PeerProfile("seed", upload_capacity=1e6), 0.0)
    for i in range(n_leechers):
        swarm.join(PeerProfile(f"p{i}"), 0.0)
    t = 0.0
    for _ in range(12):
        t += 30.0
        swarm.run_round(t, 30.0)
    total_ledger = swarm.ledger.total_bytes
    embodied = 0.0
    for pid, member in swarm.members.items():
        if pid == "seed":
            continue
        embodied += sum(
            bt.piece_cost(swarm, i) for i in member.bitfield.held_indices()
        )
        embodied += sum(member.accum.values())
    assert total_ledger == pytest.approx(embodied, rel=1e-9)


@given(seed=st.integers(0, 30))
@settings(max_examples=20, deadline=None)
def test_property_upload_capacity_never_exceeded(seed):
    up_cap = 50_000.0
    swarm = build_swarm(n_pieces=32, seed=seed)
    swarm.join(PeerProfile("seed", upload_capacity=up_cap), 0.0)
    for i in range(4):
        swarm.join(PeerProfile(f"p{i}"), 0.0)
    t, dt, rounds = 0.0, 30.0, 10
    for _ in range(rounds):
        t += dt
        swarm.run_round(t, dt)
    assert bt.uploaded_by(swarm.ledger, "seed") <= up_cap * dt * rounds * (1 + 1e-9)


@given(seed=st.integers(0, 30))
@settings(max_examples=20, deadline=None)
def test_property_no_piece_downloaded_twice(seed):
    """A completed download moved exactly file_size bytes — never more
    (no duplicate piece transfers)."""
    swarm = build_swarm(n_pieces=4, seed=seed)
    swarm.join(PeerProfile("seed", upload_capacity=1e6), 0.0)
    swarm.join(PeerProfile("a", download_capacity=1e6), 0.0)
    t = 0.0
    while bt.progress_of(swarm, "a") < 1.0 and t < 3600.0:
        t += 30.0
        swarm.run_round(t, 30.0)
    assert bt.progress_of(swarm, "a") == 1.0
    assert bt.downloaded_by(swarm.ledger, "a") == pytest.approx(
        swarm.spec.file_size, rel=1e-9
    )


def test_wanted_row_tracks_pieces_in_flight_across_leave_and_rejoin():
    """A slow seed keeps pieces in flight between rounds: they are not
    wanted while being fetched, wanted again once the link dies, and
    never picked twice."""
    swarm = build_swarm(n_pieces=16)
    slow = PIECE / 100.0  # a piece takes several 30 s rounds
    swarm.join(PeerProfile("seed", upload_capacity=slow), 0.0)
    swarm.join(PeerProfile("a", upload_capacity=slow), 0.0)
    swarm.join(PeerProfile("b", upload_capacity=slow), 0.0)
    assert swarm.members["seed"].wanted_bits == 0  # initial-seeder fill
    t = 0.0
    for _ in range(8):
        t += 30.0
        swarm.run_round(t, 30.0)
        assert_possession_views_agree(swarm)
    a = swarm.members["a"]
    fetching = list(a.in_flight.values())
    assert fetching and not any(a.wanted_bits >> p & 1 for p in fetching)
    swarm.leave("a", t)
    assert not a.in_flight and all(a.wanted_bits >> p & 1 for p in fetching)
    assert_possession_views_agree(swarm)
    swarm.join(a.profile, t)
    for _ in range(40):
        t += 30.0
        swarm.run_round(t, 30.0)
        assert_possession_views_agree(swarm)
    assert a.bitfield.count > 0
