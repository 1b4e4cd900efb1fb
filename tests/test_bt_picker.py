"""Tests for PiecePicker (rarest-first + random-first)."""

import numpy as np
import pytest

from repro.bittorrent.bitfield import Bitfield
from repro.bittorrent.picker import PiecePicker


def make_picker(n=10, seed=0, threshold=0):
    return PiecePicker(n, np.random.default_rng(seed), random_first_threshold=threshold)


def pick(picker, down, up, in_flight=()):
    """Pick for a downloader holding ``down`` and already fetching the
    ``in_flight`` pieces: its wanted row is ``~have & ~in_flight``."""
    wanted = ~down.as_array()
    wanted[list(in_flight)] = False
    return picker.pick(wanted, down.count, up)


def test_rejects_zero_pieces():
    with pytest.raises(ValueError):
        make_picker(0)


def test_pick_none_when_uploader_has_nothing_interesting():
    picker = make_picker(4)
    down = Bitfield.from_indices(4, [0, 1])
    up = Bitfield.from_indices(4, [0, 1])
    assert pick(picker, down, up) is None


def test_picks_rarest_available_piece():
    picker = make_picker(4, threshold=0)
    # availability: piece0 common, piece3 rare
    picker.availability[:] = [5, 4, 3, 1]
    down = Bitfield(4)
    up = Bitfield(4, full=True)
    assert pick(picker, down, up) == 3


def test_rarest_restricted_to_uploader_pieces():
    picker = make_picker(4, threshold=0)
    picker.availability[:] = [5, 4, 3, 1]
    down = Bitfield(4)
    up = Bitfield.from_indices(4, [0, 1])  # rare pieces not held
    assert pick(picker, down, up) in (0, 1)
    assert pick(picker, down, up) == 1  # rarer of the two


def test_random_first_mode_ignores_rarity():
    picker = make_picker(50, seed=1, threshold=4)
    picker.availability[:] = np.arange(50)
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
    a = Bitfield.from_indices(4, [0, 1])
    b = Bitfield.from_indices(4, [1, 2])
    picker.peer_joined(a)
    picker.peer_joined(b)
    assert list(picker.availability) == [1, 2, 1, 0]
    picker.piece_completed(3)
    assert picker.availability[3] == 1
    picker.peer_left(a)
    assert list(picker.availability) == [0, 1, 1, 1]
