"""Tests for PiecePicker (rarest-first + random-first).

The numpy picker the int-bitset one replaced is the executable spec
(:class:`tests.reference_bittorrent.ReferencePicker`): the property
test at the end demands the same piece and the same RNG state after
every pick.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bittorrent.bitfield import Bitfield, bits_to_array
from repro.bittorrent.picker import PiecePicker, nth_set_bit
from tests.reference_bittorrent import ReferencePicker, bitfield_of
from tests import reference_bittorrent as bt


def make_picker(n=10, seed=0, threshold=0):
    return PiecePicker(n, np.random.default_rng(seed), random_first_threshold=threshold)


def set_availability(picker, counts):
    """Join one member per level so piece ``i`` ends up held by
    ``counts[i]`` members."""
    for level in range(1, max(counts) + 1):
        held = [i for i, c in enumerate(counts) if c >= level]
        picker.peer_joined(bitfield_of(picker.num_pieces, held))


def pick(picker, down, up, in_flight=()):
    """Pick for a downloader holding ``down`` and already fetching the
    ``in_flight`` pieces: its wanted set is ``~have & ~in_flight``."""
    wanted = ((1 << down.num_pieces) - 1) ^ down.bits
    for piece in in_flight:
        wanted &= ~(1 << piece)
    return picker.pick(wanted, down.count, up.bits)


def test_rejects_zero_pieces():
    with pytest.raises(ValueError):
        make_picker(0)


def test_pick_none_when_uploader_has_nothing_interesting():
    picker = make_picker(4)
    down = bitfield_of(4, [0, 1])
    up = bitfield_of(4, [0, 1])
    assert pick(picker, down, up) is None


def test_picks_rarest_available_piece():
    picker = make_picker(4, threshold=0)
    # availability: piece0 common, piece3 rare
    set_availability(picker, [5, 4, 3, 1])
    down = Bitfield(4)
    up = Bitfield(4, full=True)
    assert pick(picker, down, up) == 3


def test_rarest_restricted_to_uploader_pieces():
    picker = make_picker(4, threshold=0)
    set_availability(picker, [5, 4, 3, 1])
    down = Bitfield(4)
    up = bitfield_of(4, [0, 1])  # rare pieces not held
    assert pick(picker, down, up) in (0, 1)
    assert pick(picker, down, up) == 1  # rarer of the two


def test_random_first_mode_ignores_rarity():
    picker = make_picker(50, seed=1, threshold=4)
    set_availability(picker, list(range(1, 51)))
    down = Bitfield(50)  # holds 0 pieces < threshold
    up = Bitfield(50, full=True)
    picks = {pick(picker, down, up) for _ in range(100)}
    # uniform picks should not all be the globally rarest piece
    assert len(picks) > 5


def test_exclude_mask_respected():
    picker = make_picker(3, threshold=0)
    down = Bitfield(3)
    up = Bitfield(3, full=True)
    assert pick(picker, down, up, in_flight=[0, 1]) == 2


def test_tie_break_is_random_but_valid():
    picker = make_picker(6, seed=3, threshold=0)
    down = Bitfield(6)
    up = Bitfield(6, full=True)
    picks = {pick(picker, down, up) for _ in range(60)}
    assert picks <= set(range(6))
    assert len(picks) > 1


def test_availability_maintenance():
    picker = make_picker(4)
    a = bitfield_of(4, [0, 1])
    b = bitfield_of(4, [1, 2])
    picker.peer_joined(a)
    picker.peer_joined(b)
    assert list(bt.availability(picker)) == [1, 2, 1, 0]
    picker.piece_completed(3)
    assert bt.availability(picker)[3] == 1
    picker.peer_left(a)
    assert list(bt.availability(picker)) == [0, 1, 1, 1]
    assert picker.levels == [0b0001, 0b1110]


# ----------------------------------------------------------------------
# The int picker against the numpy reference
# ----------------------------------------------------------------------
OPS = st.sampled_from(["join", "leave", "complete", "pick", "pick", "pick"])


def random_bits(draw, num_pieces):
    """Each piece with probability 1/2."""
    raw = int.from_bytes(draw.bytes((num_pieces + 7) // 8), "little")
    return raw & ((1 << num_pieces) - 1)


def assert_levels_agree(picker, ref):
    """``levels`` partitions the pieces by availability, which equals
    the reference's count array."""
    avail = ref.availability
    assert np.array_equal(bt.availability(picker), avail)
    assert len(picker.levels) == int(avail.max()) + 1
    for a, level in enumerate(picker.levels):
        assert np.array_equal(bits_to_array(level, picker.num_pieces), avail == a)


@given(
    num_pieces=st.sampled_from([1, 2, 7, 64, 215, 3140, 4096]) | st.integers(1, 300),
    threshold=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    ops=st.lists(st.tuples(OPS, st.integers(0, 2**32 - 1)), max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_int_picker_matches_numpy_reference(num_pieces, threshold, seed, ops):
    """Random joins, leaves, completed pieces and picks: the int
    picker returns the reference's piece, leaves its RNG in the same
    state, and its ``levels`` always agree with ``availability``.  The
    downloaders range from empty (random-first) through tied rarest
    sets to one piece short of complete (the last piece)."""
    picker = PiecePicker(num_pieces, np.random.default_rng(seed), threshold)
    ref = ReferencePicker(num_pieces, np.random.default_rng(seed), threshold)
    full = (1 << num_pieces) - 1
    active = []
    for op, arg in ops:
        draw = np.random.default_rng(arg)
        if op == "join" or not active:
            # from empty through sparse and dense to complete, or all
            # but one or two pieces (which leaves a unique rarest piece)
            density = draw.choice([0.0, 0.02, 0.3, 0.9, 1.0, -1.0])
            member = Bitfield(num_pieces)
            if density < 0:
                member.fill()
                member.bits &= ~(1 << int(draw.integers(num_pieces)))
                member.bits &= ~(1 << int(draw.integers(num_pieces)))
                member.count = member.bits.bit_count()
            for piece in np.flatnonzero(draw.random(num_pieces) < density):
                bt.set_piece(member, int(piece))
            picker.peer_joined(member)
            ref.peer_joined(bt.as_array(member))
            active.append(member)
        elif op == "leave":
            member = active.pop(int(draw.integers(len(active))))
            picker.peer_left(member)
            ref.peer_left(bt.as_array(member))
        elif op == "complete":
            member = active[int(draw.integers(len(active)))]
            missing = np.flatnonzero(~bt.as_array(member))
            if missing.size:
                piece = int(draw.choice(missing))
                bt.set_piece(member, piece)
                picker.piece_completed(piece)
                ref.piece_completed(piece)
        else:
            uploader = active[int(draw.integers(len(active)))]
            pieces = draw.permutation(num_pieces).tolist()
            downloaders = [
                0,  # fresh: random-first while under the threshold
                sum(1 << p for p in pieces[:threshold]),  # at the threshold
                full & ~(1 << pieces[0]),  # one piece short of complete
                random_bits(draw, num_pieces),
            ]
            for have in downloaders:
                # about a quarter of the pieces in flight
                in_flight = random_bits(draw, num_pieces) & random_bits(draw, num_pieces)
                wanted = full & ~have & ~in_flight
                held = have.bit_count()
                got = picker.pick(wanted, held, uploader.bits)
                expected = ref.pick(
                    bits_to_array(wanted, num_pieces), held, bt.as_array(uploader)
                )
                assert got == expected
                assert picker._rng.bit_generator.state == ref._rng.bit_generator.state
        assert_levels_agree(picker, ref)


@given(bits=st.integers(1, (1 << 4100) - 1), data=st.data())
def test_nth_set_bit_is_the_ascending_index_list(bits, data):
    j = data.draw(st.integers(0, bits.bit_count() - 1))
    assert nth_set_bit(bits, j) == int(np.flatnonzero(bits_to_array(bits, 4100))[j])
