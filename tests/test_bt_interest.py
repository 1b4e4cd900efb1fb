"""The round's interest decision against its scalar definition.

``Swarm._round_interest`` decides "which active neighbours are
interested in me" for every active member: piece counts settle most
pairs and one ``have_u & ~have_d`` on the int bitsets the rest.  The
definition it must reproduce is the pairwise boolean-array one
(:func:`tests.reference_bittorrent.is_interested_in`):

    [nb for nb in sorted(neighbours) if nb in active
     and is_interested_in(active[nb].bitfield, me.bitfield)]

The random swarms below aim at the shortcuts' edges: empty and complete
bitfields, equal counts with equal and with different content, peers
one piece apart, piece counts around the byte boundary, neighbours that
are inactive or unknown, members with no neighbour entry at all.
"""

import tracemalloc

import numpy as np
import pytest

from repro.bittorrent.ledger import TransferLedger
from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.traces.model import PeerProfile, SwarmSpec
from tests.reference_bittorrent import is_interested_in
from tests import reference_bittorrent as bt

PIECE = 256 * 1024.0

#: gains one random swarm may spend on dense bitfields (keeps a
#: 120-member × 4 096-piece draw from taking seconds)
GAIN_BUDGET = 30_000


def make_swarm(num_pieces, seed=0, **cfg):
    spec = SwarmSpec("s", file_size=num_pieces * PIECE, piece_size=PIECE)
    return Swarm(spec, SwarmConfig(**cfg), np.random.default_rng(seed), TransferLedger())


def scalar_interest(swarm):
    have = {pid: bt.as_array(m.bitfield) for pid, m in swarm.active.items()}
    return [
        (
            pid,
            [
                nb
                for nb in sorted(swarm.neighbors.get(pid, ()))
                if nb in have and is_interested_in(have[nb], have[pid])
            ],
        )
        for pid in sorted(have)
    ]


def round_interest(swarm):
    return [(member.peer_id, names) for member, names in swarm._round_interest()]


def load(swarm, member, pieces):
    """Gain ``pieces`` as a round would: the picker hears of each."""
    for piece in pieces:
        if member.gain(int(piece)) and member.active:
            swarm.picker.piece_completed(int(piece))


def fill(swarm, member):
    """Make an active member a seed, keeping the picker's view."""
    swarm.picker.peer_left(member.bitfield)
    member.gain_all()
    swarm.picker.peer_joined(member.bitfield)


def random_swarm(rng):
    n = int(rng.integers(5, 121))
    num_pieces = int(rng.choice([1, 2, 7, 8, 9, 64, 215, 1000, 3140, 4096]))
    if rng.random() < 0.5:
        num_pieces = int(rng.integers(1, 4097))
    swarm = make_swarm(num_pieces, seed=int(rng.integers(1 << 30)))
    pids = [f"p{i:03d}" for i in range(n)]
    for pid in pids:
        swarm.join(PeerProfile(pid, connectable=bool(rng.random() < 0.7)), 0.0)

    members = [swarm.members[pid] for pid in pids]
    dense_left = max(2, GAIN_BUDGET // num_pieces)
    for k, member in enumerate(members):
        kind = rng.choice(
            ["empty", "complete", "sparse", "dense", "copy", "plus_one", "shuffled"]
        )
        # the last three derive from an earlier member's bitfield
        other = members[int(rng.integers(k))] if k else member
        base = other.bitfield.held_indices()
        if kind == "complete":
            fill(swarm, member)
        elif kind == "sparse":
            sparse = rng.choice(num_pieces, min(num_pieces, 12), replace=False)
            load(swarm, member, sparse)
        elif kind == "dense" and dense_left:
            dense_left -= 1
            # from half full to one piece short of complete
            count = int(rng.integers(num_pieces // 2, num_pieces + 1))
            dense = rng.choice(num_pieces, max(count - 1, 0), replace=False)
            load(swarm, member, dense)
        elif kind == "copy" and len(base) < num_pieces:
            load(swarm, member, base)
        elif kind == "plus_one" and len(base) < num_pieces - 1:
            missing = np.flatnonzero(~bt.as_array(other.bitfield))
            load(swarm, member, base + [rng.choice(missing)])
        elif kind == "shuffled" and len(base) < num_pieces:
            # as many pieces as ``other``, not the same ones
            load(swarm, member, rng.choice(num_pieces, len(base), replace=False))

    # Some members go offline; their ids stay in the neighbour sets
    # drawn below, next to ids the swarm has never heard of.
    for pid in rng.choice(pids, int(rng.integers(0, n // 3 + 1)), replace=False):
        swarm.leave(str(pid), 1.0)
    universe = pids + ["ghost-a", "ghost-b"]
    swarm.neighbors = {
        pid: {
            str(nb)
            for nb in rng.choice(universe, int(rng.integers(0, 41)))
            if nb != pid
        }
        for pid in swarm.active
        if rng.random() < 0.9
    }
    swarm._pairs = None  # the neighbour sets were replaced behind its back
    return swarm


@pytest.mark.parametrize("seed", range(30))
def test_round_interest_equals_scalar_definition(seed):
    rng = np.random.default_rng(seed)
    swarm = random_swarm(rng)
    assert round_interest(swarm) == scalar_interest(swarm)
    # ... and still does once rounds have completed pieces, peers have
    # left and rejoined and fresh ones have joined (real connections).
    t = 0.0
    for step in range(6):
        t += 30.0
        swarm.run_round(t, 30.0)
        assert round_interest(swarm) == scalar_interest(swarm)
        pid = str(rng.choice(sorted(swarm.members)))
        if step % 2:
            swarm.leave(pid, t)
        else:
            swarm.join(swarm.members[pid].profile, t)
            swarm.join(PeerProfile(f"late{step}"), t)
        assert round_interest(swarm) == scalar_interest(swarm)


def test_count_shortcuts_cover_every_case_on_one_pair():
    """empty / complete / more / fewer / equal-and-same /
    equal-and-different, both directions."""
    swarm = make_swarm(9)
    shapes = {
        "empty": [],
        "one": [0],
        "other_one": [8],
        "two": [0, 8],
        "full": range(9),
    }
    for name, pieces in shapes.items():
        swarm.join(PeerProfile(name), 0.0)
        load(swarm, swarm.members[name], pieces)
    got = dict(round_interest(swarm))
    assert got == dict(scalar_interest(swarm))
    assert got["empty"] == []
    assert got["one"] == ["empty", "other_one"]
    assert got["two"] == ["empty", "one", "other_one"]
    assert got["full"] == ["empty", "one", "other_one", "two"]


def test_possession_is_the_members_own_after_many_joins():
    """Each member's bits are exactly the pieces it gained, however
    many members joined after it."""
    swarm = make_swarm(20, max_connections=64)
    for i in range(40):
        pid = f"p{i:02d}"
        swarm.join(PeerProfile(pid), 0.0)
        load(swarm, swarm.members[pid], [i % 20, (3 * i) % 20])
    for i in range(40):
        member = swarm.members[f"p{i:02d}"]
        assert member.bitfield.held_indices() == sorted({i % 20, (3 * i) % 20})
    assert round_interest(swarm) == scalar_interest(swarm)


def test_large_swarm_round_allocates_per_pair_not_per_member_squared():
    """Guard against a dense members × members kernel: at 2 000 members
    the round's interest step may hold O(pairs) memory — each bit test's
    temporaries are a few ⌈pieces/8⌉-byte ints freed at once — orders
    of magnitude under members² × ⌈pieces/8⌉."""
    n, num_pieces = 2_000, 256
    rng = np.random.default_rng(5)
    swarm = make_swarm(num_pieces, max_connections=4)
    for i in range(n):
        pid = f"p{i:04d}"
        swarm.join(PeerProfile(pid), 0.0)
        load(swarm, swarm.members[pid], rng.choice(num_pieces, 6, replace=False))
    pairs = swarm._round_pairs()
    row_bytes = (num_pieces + 7) // 8
    n_pairs = sum(len(names) for _member, names, _bitfields in pairs)
    assert n_pairs >= 2 * n  # every member has neighbours

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        interest = swarm._round_interest()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the interested lists — all O(pairs)
    assert peak <= 4 * n_pairs * row_bytes + 64 * n_pairs
    assert peak < n * n * row_bytes / 20
    assert [(m.peer_id, names) for m, names in interest] == scalar_interest(swarm)
