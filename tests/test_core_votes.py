"""Tests for Vote / LocalVoteList."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.core.columnar import ColumnarStateStore
from repro.core.votes import LocalVoteList, Vote
from tests.reference_runtime import select_for_exchange, vote_on


def vote_list():
    """A list on row ``me`` of a store of its own, as a node holds it."""
    store = ColumnarStateStore()
    return LocalVoteList(store, store.ensure_row("me"))


def rng():
    return np.random.default_rng(0)


def test_cast_and_query():
    vl = vote_list()
    vl.cast("m1", Vote.POSITIVE, 1.0)
    assert vote_on(vl, "m1") is Vote.POSITIVE
    assert vl.has_voted("m1")
    assert not vl.has_voted("m2")
    assert len(vl) == 1


def test_revote_replaces_single_entry():
    vl = vote_list()
    vl.cast("m1", Vote.POSITIVE, 1.0)
    vl.cast("m1", Vote.NEGATIVE, 2.0)
    assert len(vl) == 1
    assert vote_on(vl, "m1") is Vote.NEGATIVE
    assert vl.entries()[0].cast_at == 2.0


def test_approved_and_disapproved_sets():
    vl = vote_list()
    vl.cast("good", Vote.POSITIVE, 1.0)
    vl.cast("bad", Vote.NEGATIVE, 2.0)
    assert vl.approved() == frozenset({"good"})
    assert vl.disapproved() == frozenset({"bad"})


def test_entries_newest_first():
    vl = vote_list()
    vl.cast("a", Vote.POSITIVE, 1.0)
    vl.cast("b", Vote.POSITIVE, 5.0)
    vl.cast("c", Vote.POSITIVE, 3.0)
    assert [e.moderator_id for e in vl.entries()] == ["b", "c", "a"]


def test_select_all_when_under_budget():
    vl = vote_list()
    for i in range(5):
        vl.cast(f"m{i}", Vote.POSITIVE, float(i))
    sel = select_for_exchange(vl, 50, rng())
    assert len(sel) == 5


def test_select_respects_budget():
    vl = vote_list()
    for i in range(100):
        vl.cast(f"m{i:03d}", Vote.POSITIVE, float(i))
    sel = select_for_exchange(vl, 50, rng())
    assert len(sel) == 50
    assert len({e.moderator_id for e in sel}) == 50


def test_select_recency_half_is_most_recent():
    vl = vote_list()
    for i in range(100):
        vl.cast(f"m{i:03d}", Vote.POSITIVE, float(i))
    sel = select_for_exchange(vl, 10, rng())
    ids = [e.moderator_id for e in sel]
    # newest five (m099..m095) must be the recency half
    assert set(ids[:5]) == {"m099", "m098", "m097", "m096", "m095"}


def test_select_random_half_varies_with_rng():
    vl = vote_list()
    for i in range(100):
        vl.cast(f"m{i:03d}", Vote.POSITIVE, float(i))
    s1 = {e.moderator_id for e in select_for_exchange(vl, 10, np.random.default_rng(1))}
    s2 = {e.moderator_id for e in select_for_exchange(vl, 10, np.random.default_rng(2))}
    assert s1 != s2


def test_select_zero_budget():
    vl = vote_list()
    vl.cast("m", Vote.POSITIVE, 0.0)
    assert select_for_exchange(vl, 0, rng()) == []


@given(st.lists(st.tuples(st.integers(0, 20), st.booleans()), max_size=60))
def test_property_one_entry_per_moderator(ops):
    vl = vote_list()
    expected = {}
    for t, (mid, positive) in enumerate(ops):
        v = Vote.POSITIVE if positive else Vote.NEGATIVE
        vl.cast(f"m{mid}", v, float(t))
        expected[f"m{mid}"] = v
    assert len(vl) == len(expected)
    for mid, v in expected.items():
        assert vote_on(vl, mid) is v
    assert vl.approved().isdisjoint(vl.disapproved())
