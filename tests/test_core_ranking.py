"""Tests for ranking and rank merging."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.ballotbox import BallotBox
from repro.core.ranking import (
    merge_rank_lists,
    rank_by_sum,
    strictly_ordered,
    top_k,
)
from repro.core.votes import Vote, VoteEntry


def box_with(votes):
    """votes: list of (voter, moderator, vote)"""
    bb = BallotBox(b_max=100)
    for t, (voter, mod, vote) in enumerate(votes):
        bb.merge(voter, [VoteEntry(mod, vote, float(t))], now=float(t))
    return bb


class TestRankBySum:
    def test_orders_by_net_score(self):
        bb = box_with(
            [
                ("v1", "m1", Vote.POSITIVE),
                ("v2", "m1", Vote.POSITIVE),
                ("v3", "m3", Vote.NEGATIVE),
            ]
        )
        ranking = rank_by_sum(bb, universe=["m1", "m2", "m3"])
        assert [m for m, _ in ranking] == ["m1", "m2", "m3"]
        assert dict(ranking) == {"m1": 2.0, "m2": 0.0, "m3": -1.0}

    def test_universe_moderators_score_zero(self):
        bb = box_with([])
        ranking = rank_by_sum(bb, universe=["x"])
        assert ranking == [("x", 0.0)]

    def test_tie_break_on_id(self):
        bb = box_with([("v1", "b", Vote.POSITIVE), ("v2", "a", Vote.POSITIVE)])
        assert [m for m, _ in rank_by_sum(bb)] == ["a", "b"]


class TestTopK:
    def test_truncates(self):
        ranking = [("a", 3.0), ("b", 2.0), ("c", 1.0)]
        assert top_k(ranking, 2) == ["a", "b"]
        assert top_k(ranking, 10) == ["a", "b", "c"]
        assert top_k(ranking, 0) == []


class TestMergeRankLists:
    def test_single_list_preserved(self):
        merged = merge_rank_lists([["a", "b", "c"]], k=3)
        assert [m for m, _ in merged] == ["a", "b", "c"]

    def test_missing_moderator_gets_k_plus_one(self):
        # list1 ranks a first; list2 doesn't know a at all
        merged = merge_rank_lists([["a"], ["b"]], k=3)
        scores = dict(merged)
        # a: (1 + 4)/2 = 2.5 ; b: (4 + 1)/2 = 2.5 — tie
        assert scores["a"] == pytest.approx(-2.5)
        assert scores["b"] == pytest.approx(-2.5)

    def test_majority_agreement_wins(self):
        lists = [["a", "b"], ["a", "b"], ["b", "a"]]
        merged = merge_rank_lists(lists, k=3)
        assert merged[0][0] == "a"

    def test_empty_input(self):
        assert merge_rank_lists([], k=3) == []

    def test_lists_truncated_to_k(self):
        merged = merge_rank_lists([["a", "b", "c", "d"]], k=2)
        assert {m for m, _ in merged} == {"a", "b"}

    def test_k_validation(self):
        with pytest.raises(ValueError):
            merge_rank_lists([["a"]], k=0)

    @given(
        st.lists(
            st.permutations(["a", "b", "c"]),
            min_size=1,
            max_size=7,
        )
    )
    def test_property_unanimous_lists_reproduce_order(self, perms):
        """If every list is the same permutation, the merge equals it."""
        lists = [list(perms[0]) for _ in perms]
        merged = merge_rank_lists(lists, k=3)
        assert [m for m, _ in merged] == list(perms[0])


class TestStrictlyOrdered:
    def test_strict_order_detected(self):
        ranking = [("m1", 2.0), ("m2", 0.0), ("m3", -1.0)]
        assert strictly_ordered(ranking, ["m1", "m2", "m3"])
        assert not strictly_ordered(ranking, ["m3", "m2", "m1"])

    def test_ties_are_not_correct(self):
        ranking = [("m1", 0.0), ("m2", 0.0), ("m3", 0.0)]
        assert not strictly_ordered(ranking, ["m1", "m2", "m3"])

    def test_unknown_moderator_not_correct(self):
        ranking = [("m1", 2.0), ("m3", -1.0)]
        assert not strictly_ordered(ranking, ["m1", "m2", "m3"])


class TestMergeDuplicateRobustness:
    """Regression: duplicate ids inside one received list used to sum
    every occurrence's rank while counting one appearance."""

    def test_duplicates_count_once_at_first_rank(self):
        merged = merge_rank_lists([["m", "m", "x"]], k=3)
        assert merged == [("m", -1.0), ("x", -2.0)]

    def test_duplicates_do_not_crowd_out_later_ids(self):
        # With k=2, the repeated "a" must not push "b" off the list.
        merged = dict(merge_rank_lists([["a", "a", "b"]], k=2))
        assert merged["a"] == -1.0
        assert merged["b"] == -2.0

    def test_duplicate_list_matches_clean_list(self):
        clean = merge_rank_lists([["m", "x"], ["x", "m"]], k=3)
        dirty = merge_rank_lists([["m", "m", "x"], ["x", "x", "m"]], k=3)
        assert dirty == clean
