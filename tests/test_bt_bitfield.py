"""Tests for Bitfield.

Interest is the int op ``other.bits & ~mine.bits``; the tests hold it
to the boolean-array definition in :mod:`tests.reference_bittorrent`.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bittorrent.bitfield import Bitfield, bits_to_array
from tests.reference_bittorrent import bitfield_of, interesting_mask, is_interested_in


def interesting(mine, other):
    """Pieces ``other`` has that ``mine`` misses, as the swarm computes it."""
    return other.bits & ~mine.bits


def test_starts_empty():
    bf = Bitfield(10)
    assert bf.count == 0
    assert bf.empty
    assert not bf.complete


def test_full_constructor():
    bf = Bitfield(5, full=True)
    assert bf.count == 5
    assert bf.complete


def test_set_returns_newness():
    bf = Bitfield(4)
    assert bf.set(2) is True
    assert bf.set(2) is False
    assert bf.count == 1
    assert bf.bits >> 2 & 1


def test_fill():
    bf = Bitfield(4)
    bf.fill()
    assert bf.complete


def test_rejects_zero_pieces():
    with pytest.raises(ValueError):
        Bitfield(0)


def test_interesting_mask():
    a = bitfield_of(5, [0, 1])
    b = bitfield_of(5, [1, 2, 3])
    mask = bits_to_array(interesting(a, b), 5)  # pieces b has that a misses
    assert list(np.flatnonzero(mask)) == [2, 3]
    assert np.array_equal(mask, interesting_mask(a.as_array(), b.as_array()))


def test_is_interested_in():
    a = bitfield_of(4, [0])
    b = bitfield_of(4, [0, 1])
    assert interesting(a, b)
    assert not interesting(b, a)
    assert is_interested_in(a.as_array(), b.as_array())


def test_seed_not_interested_in_anyone():
    seed = Bitfield(4, full=True)
    other = bitfield_of(4, [1, 2])
    assert not interesting(seed, other)
    assert interesting(other, seed)


def test_as_array_readonly():
    bf = bitfield_of(4, [1, 3])
    arr = bf.as_array()
    assert arr.tolist() == [False, True, False, True]
    with pytest.raises(ValueError):
        arr[0] = True


def test_held_indices_round_trip():
    bf = bitfield_of(8, [1, 5, 7])
    assert bf.held_indices() == [1, 5, 7]


@given(st.sets(st.integers(0, 31), max_size=32))
def test_property_count_matches_indices(indices):
    bf = bitfield_of(32, indices)
    assert bf.count == len(indices) == bf.bits.bit_count()
    assert bf.complete == (len(indices) == 32)
    assert set(bf.held_indices()) == indices
    assert all(bool(bf.bits >> i & 1) == (i in indices) for i in range(32))


@given(st.sets(st.integers(0, 15)), st.sets(st.integers(0, 15)))
def test_property_interest_is_set_difference(a_idx, b_idx):
    a = bitfield_of(16, a_idx)
    b = bitfield_of(16, b_idx)
    expected = b_idx - a_idx
    got = set(np.flatnonzero(bits_to_array(interesting(a, b), 16)))
    assert {int(i) for i in got} == expected
    assert set(np.flatnonzero(interesting_mask(a.as_array(), b.as_array()))) == got
    assert bool(interesting(a, b)) == bool(expected)
    assert is_interested_in(a.as_array(), b.as_array()) == bool(expected)
