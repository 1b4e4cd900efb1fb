"""Tests for BallotBox (§V-A).

Every test runs against both boxes in :data:`BOXES`: the production
:class:`BallotBox` (a view of a columnar state store) and the dict box
in ``tests/reference_ballotbox.py`` that the differential suites
compare it with, so the reference is held to the same rules.  Each test
loops over the two itself, which keeps one test id per rule.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ballotbox import BallotBox
from repro.core.votes import Vote, VoteEntry
from tests.reference_ballotbox import ReferenceBallotBox

BOXES = (BallotBox, ReferenceBallotBox)


def ve(mod, vote, t=0.0):
    return VoteEntry(mod, vote, t)


def boxes(b_max):
    """One empty box of each implementation."""
    return [Box(b_max=b_max) for Box in BOXES]


def test_merge_and_counts():
    for bb in boxes(10):
        bb.merge("v1", [ve("m1", Vote.POSITIVE), ve("m2", Vote.NEGATIVE)], now=1.0)
        bb.merge("v2", [ve("m1", Vote.POSITIVE)], now=2.0)
        assert bb.counts("m1") == (2, 0)
        assert bb.counts("m2") == (0, 1)
        assert bb.score("m1") == 2
        assert bb.score("m2") == -1
        assert bb.num_unique_users() == 2


def test_one_vote_per_voter_per_moderator():
    for bb in boxes(10):
        bb.merge("v1", [ve("m1", Vote.POSITIVE)], now=1.0)
        bb.merge("v1", [ve("m1", Vote.NEGATIVE)], now=2.0)
        assert bb.counts("m1") == (0, 1)
        assert bb.total_votes() == 1


def test_self_votes_filtered():
    for bb in boxes(10):
        stored = bb.merge("m1", [ve("m1", Vote.POSITIVE)], now=1.0)
        assert stored == 0
        assert bb.num_unique_users() == 0


def test_eviction_oldest_voter_when_over_capacity():
    for bb in boxes(2):
        bb.merge("v1", [ve("m1", Vote.POSITIVE)], now=1.0)
        bb.merge("v2", [ve("m1", Vote.POSITIVE)], now=2.0)
        bb.merge("v3", [ve("m1", Vote.POSITIVE)], now=3.0)
        assert bb.num_unique_users() == 2
        assert bb.voters() == ["v2", "v3"]
        assert bb.score("m1") == 2


def test_refresh_protects_from_eviction():
    for bb in boxes(2):
        bb.merge("v1", [ve("m1", Vote.POSITIVE)], now=1.0)
        bb.merge("v2", [ve("m1", Vote.POSITIVE)], now=2.0)
        bb.merge("v1", [ve("m2", Vote.POSITIVE)], now=3.0)  # v1 refreshed
        bb.merge("v3", [ve("m1", Vote.POSITIVE)], now=4.0)
        assert bb.voters() == ["v1", "v3"]  # v2 was oldest


def test_empty_merge_is_noop():
    for bb in boxes(5):
        assert bb.merge("v1", [], now=0.0) == 0
        assert bb.num_unique_users() == 0


def test_remove_voter():
    for bb in boxes(5):
        bb.merge("v1", [ve("m1", Vote.POSITIVE)], now=0.0)
        assert bb.remove_voter("v1")
        assert not bb.remove_voter("v1")
        assert bb.num_unique_users() == 0
        assert bb.counts("m1") == (0, 0)


def test_vote_of():
    for bb in boxes(5):
        bb.merge("v1", [ve("m1", Vote.NEGATIVE)], now=0.0)
        assert bb.vote_of("v1", "m1") is Vote.NEGATIVE
        assert bb.vote_of("v1", "m2") is None
        assert bb.vote_of("ghost", "m1") is None


def test_moderators_sorted():
    for bb in boxes(5):
        bb.merge("v1", [ve("z", Vote.POSITIVE), ve("a", Vote.POSITIVE)], now=0.0)
        assert bb.moderators() == ["a", "z"]


def test_b_max_validation():
    for Box in BOXES:
        with pytest.raises(ValueError):
            Box(b_max=0)


@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 4), st.booleans()),
        max_size=80,
    ),
    st.integers(1, 6),
)
def test_property_unique_voters_never_exceed_b_max(merges, b_max):
    for bb in boxes(b_max):
        for t, (voter, mod, positive) in enumerate(merges):
            v = Vote.POSITIVE if positive else Vote.NEGATIVE
            bb.merge(f"v{voter}", [ve(f"m{mod}", v)], now=float(t))
            assert bb.num_unique_users() <= b_max
            # Score consistency: counts always sum to total mentions.
            for m in bb.moderators():
                pos, neg = bb.counts(m)
                assert pos + neg >= 1


def test_self_vote_only_merge_does_not_refresh_recency():
    """Regression: a merge that stores nothing (e.g. a self-vote-only
    list) must NOT bump the voter's recency — pre-fix it did, letting a
    peer dodge B_max eviction forever with empty-calorie exchanges.

    With b_max=2: v1 then v2 fill the box; v1 ships a self-vote-only
    list (stored == 0); when v3 arrives, the *oldest real contributor*
    is v1 and must be the one evicted.  Pre-fix, v1's order was bumped
    by the empty merge and v2 was evicted instead."""
    for bb in boxes(2):
        bb.merge("v1", [ve("m1", Vote.POSITIVE)], now=1.0)
        bb.merge("v2", [ve("m1", Vote.POSITIVE)], now=2.0)
        assert bb.merge("v1", [ve("v1", Vote.POSITIVE)], now=3.0) == 0
        bb.merge("v3", [ve("m1", Vote.POSITIVE)], now=4.0)
        assert bb.voters() == ["v2", "v3"]


def test_stored_votes_survive_a_noop_remerge():
    """The no-recency-bump path must still leave previously stored
    votes intact (it returns early, it must not roll anything back)."""
    for bb in boxes(5):
        bb.merge("v1", [ve("m1", Vote.NEGATIVE)], now=1.0)
        assert bb.merge("v1", [ve("v1", Vote.POSITIVE)], now=2.0) == 0
        assert bb.counts("m1") == (0, 1)
        assert bb.voters() == ["v1"]


def test_all_counts_matches_per_moderator_counts():
    for bb in boxes(10):
        bb.merge("v1", [ve("m1", Vote.POSITIVE), ve("m2", Vote.NEGATIVE)], now=1.0)
        bb.merge("v2", [ve("m1", Vote.NEGATIVE), ve("m3", Vote.POSITIVE)], now=2.0)
        totals = bb.all_counts()
        assert set(totals) == set(bb.moderators())
        for m in bb.moderators():
            assert totals[m] == bb.counts(m)


def test_all_counts_empty_box():
    for bb in boxes(3):
        assert bb.all_counts() == {}


@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 5), st.booleans()),
        max_size=80,
    ),
    st.integers(1, 6),
)
def test_property_all_counts_is_bit_identical_to_counts(merges, b_max):
    """The single-pass tally equals the per-moderator rescan under any
    merge/eviction history (integer sums, so exact equality)."""
    for bb in boxes(b_max):
        for t, (voter, mod, positive) in enumerate(merges):
            v = Vote.POSITIVE if positive else Vote.NEGATIVE
            bb.merge(f"v{voter}", [ve(f"m{mod}", v)], now=float(t))
        totals = bb.all_counts()
        assert sorted(totals) == bb.moderators()
        for m in bb.moderators():
            assert totals[m] == bb.counts(m)


@given(
    st.lists(
        st.tuples(st.integers(0, 30), st.booleans()),
        min_size=1,
        max_size=50,
    )
)
def test_property_eviction_is_oldest_first(merge_seq):
    """With b_max=3, the surviving voters are always the 3 most
    recently merged distinct voters."""
    for bb in boxes(3):
        last_seen = {}
        for t, (voter, positive) in enumerate(merge_seq):
            v = Vote.POSITIVE if positive else Vote.NEGATIVE
            bb.merge(f"v{voter}", [ve("m", v)], now=float(t))
            last_seen[f"v{voter}"] = t
        expected = sorted(last_seen, key=lambda p: -last_seen[p])[:3]
        assert sorted(bb.voters()) == sorted(expected)


def test_votes_of_and_recency_accessors():
    for bb in boxes(5):
        bb.merge("v", [ve("m1", Vote.POSITIVE), ve("m2", Vote.NEGATIVE)], now=4.0)
        assert sorted(bb.votes_of("v")) == [
            ("m1", Vote.POSITIVE, 4.0),
            ("m2", Vote.NEGATIVE, 4.0),
        ]
        assert bb.last_received_of("v") == 4.0
        assert bb.votes_of("ghost") == []
        assert bb.last_received_of("ghost") == 0.0
