"""Tests for TopKCache."""

import pytest

from repro.core.voxpopuli import TopKCache


def test_bounded_by_v_max():
    cache = TopKCache(v_max=3, k=3)
    for i in range(10):
        cache.add([f"m{i}"])
    assert len(cache.lists()) == 3
    assert cache.known_moderators() == ["m7", "m8", "m9"]


def test_lists_truncated_to_k():
    cache = TopKCache(v_max=5, k=2)
    cache.add(["a", "b", "c", "d"])
    assert cache.known_moderators() == ["a", "b"]


def test_empty_list_ignored():
    cache = TopKCache()
    cache.add([])
    assert cache.lists() == []


def test_merged_ranking_averages():
    cache = TopKCache(v_max=5, k=3)
    cache.add(["a", "b"])
    cache.add(["a", "c"])
    merged = cache.merged_ranking()
    assert merged[0][0] == "a"


def test_validation():
    with pytest.raises(ValueError):
        TopKCache(v_max=0)
    with pytest.raises(ValueError):
        TopKCache(k=0)


def test_oldest_list_evicted_fifo():
    cache = TopKCache(v_max=2, k=3)
    cache.add(["old"])
    cache.add(["mid"])
    cache.add(["new"])
    assert sorted(cache.known_moderators()) == ["mid", "new"]


def test_add_dedups_on_first_occurrence():
    """Regression: a repeat-padded hostile list used to crowd other ids
    out of the cached K window."""
    cache = TopKCache(v_max=4, k=2)
    cache.add(["m", "m", "x"])
    assert cache.lists() == [["m", "x"]]


def test_lists_accessor_returns_copies():
    cache = TopKCache(v_max=4, k=3)
    cache.add(["a", "b"])
    got = cache.lists()
    assert got == [["a", "b"]]
    got[0].append("evil")
    assert cache.lists() == [["a", "b"]]
