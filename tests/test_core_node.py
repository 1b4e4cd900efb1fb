"""Tests for VoteSamplingNode protocol behaviour."""

import numpy as np
import pytest

from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import Vote, VoteEntry
from tests.reference_runtime import receive_votes, votes_to_send


def make_node(pid="n1", seed=0, **cfg):
    return VoteSamplingNode(pid, NodeConfig(**cfg), np.random.default_rng(seed))


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(b_min=0)
        with pytest.raises(ValueError):
            NodeConfig(b_min=10, b_max=5)
        with pytest.raises(ValueError):
            NodeConfig(k=0)
        with pytest.raises(ValueError):
            NodeConfig(votes_per_exchange=0)


class TestUserActions:
    def test_create_moderation_stores_own(self):
        node = make_node()
        m = node.create_moderation("t1", "My upload", now=1.0)
        assert m.moderator_id == "n1"
        assert node.store.get("n1", "t1") is not None

    def test_cannot_vote_on_self(self):
        node = make_node()
        with pytest.raises(ValueError):
            node.cast_vote("n1", Vote.POSITIVE, 0.0)

    def test_disapproval_purges_metadata(self):
        node = make_node()
        node.receive_moderations(
            [node_mod("spammer", "t1")], now=1.0
        )
        assert node.store.has_moderator("spammer")
        node.cast_vote("spammer", Vote.NEGATIVE, 2.0)
        assert not node.store.has_moderator("spammer")

    def test_disapproved_moderator_blocked_in_future(self):
        node = make_node()
        node.cast_vote("spammer", Vote.NEGATIVE, 1.0)
        got = node.receive_moderations([node_mod("spammer", "t1")], now=2.0)
        assert got == 0
        assert not node.store.has_moderator("spammer")


def node_mod(moderator, torrent, valid=True):
    from repro.core.moderation import Moderation

    return Moderation(
        moderator_id=moderator,
        torrent_id=torrent,
        title=f"{moderator}:{torrent}",
        signature_valid=valid,
    )


class TestModerationCast:
    def test_receive_counts_new_only(self):
        node = make_node()
        m = node_mod("m1", "t1")
        assert node.receive_moderations([m], now=1.0) == 1
        assert node.receive_moderations([m], now=2.0) == 0

    def test_invalid_signature_dropped(self):
        node = make_node()
        assert node.receive_moderations([node_mod("m1", "t1", valid=False)], 1.0) == 0

    def test_forged_own_authorship_rejected(self):
        node = make_node()
        fake = node_mod("n1", "t-fake")  # claims to be authored by us
        assert node.receive_moderations([fake], now=1.0) == 0

    def test_intention_fires_on_first_metadata(self):
        node = make_node()
        node.set_vote_intention("m1", Vote.POSITIVE)
        assert not node.vote_list.has_voted("m1")
        node.receive_moderations([node_mod("m1", "t1")], now=5.0)
        assert node.vote_list.vote_on("m1") is Vote.POSITIVE

    def test_negative_intention_purges_after_receipt(self):
        node = make_node()
        node.set_vote_intention("m3", Vote.NEGATIVE)
        node.receive_moderations([node_mod("m3", "t1")], now=5.0)
        assert node.vote_list.vote_on("m3") is Vote.NEGATIVE
        assert not node.store.has_moderator("m3")

    def test_intention_does_not_override_existing_vote(self):
        node = make_node()
        node.cast_vote("m1", Vote.NEGATIVE, 1.0)
        node.set_vote_intention("m1", Vote.POSITIVE)
        node.receive_moderations([node_mod("m1", "t1")], now=2.0)
        assert node.vote_list.vote_on("m1") is Vote.NEGATIVE

    def test_send_includes_own_and_approved_only(self):
        node = make_node()
        node.create_moderation("t0", "mine", now=0.0)
        node.receive_moderations(
            [node_mod("friend", "t1"), node_mod("stranger", "t2")], now=1.0
        )
        node.cast_vote("friend", Vote.POSITIVE, 2.0)
        senders = {m.moderator_id for m in node.moderations_to_send()}
        assert senders == {"n1", "friend"}


class TestBallotBox:
    def entries(self, *mods, vote=Vote.POSITIVE):
        return [VoteEntry(m, vote, 0.0) for m in mods]

    def test_experienced_votes_accepted(self):
        node = make_node()
        stored = receive_votes(node, "v1", self.entries("m1"), 1.0, experienced=True)
        assert stored == 1
        assert node.ballot_box.counts("m1") == (1, 0)

    def test_inexperienced_votes_rejected(self):
        node = make_node()
        stored = receive_votes(node, "v1", self.entries("m1"), 1.0, experienced=False)
        assert stored == 0
        assert node.votes_rejected_inexperienced == 1
        assert node.ballot_box.num_unique_users() == 0

    def test_own_votes_not_self_merged(self):
        node = make_node()
        assert receive_votes(node, "n1", self.entries("m1"), 1.0, True) == 0

    def test_votes_to_send_hands_out_a_list_the_caller_may_change(self):
        """Regression: a memoised selection was once handed out
        itself — clearing or extending what it returned emptied or
        corrupted every later exchange until the next cast."""
        node = make_node()
        node.cast_vote("m1", Vote.POSITIVE, 1.0)
        node.cast_vote("m2", Vote.NEGATIVE, 2.0)
        sent = votes_to_send(node)
        assert [e.moderator_id for e in sent] == ["m2", "m1"]
        sent.append(VoteEntry("forged", Vote.POSITIVE, 3.0))
        sent.clear()
        assert [e.moderator_id for e in votes_to_send(node)] == ["m2", "m1"]
        assert len(node.vote_list) == 2

    def test_receiver_enforces_votes_per_exchange_cap(self):
        """Regression: merge() trusted the sender to honour the 50-vote
        cap; a malicious peer shipping an oversized list must be
        truncated at the receiver.  Pre-fix, every entry was stored."""
        node = make_node(votes_per_exchange=3)
        oversized = self.entries(*[f"m{i}" for i in range(10)])
        stored = receive_votes(node, "v1", oversized, 1.0, experienced=True)
        assert stored == 3
        assert node.ballot_box.total_votes() == 3
        assert node.votes_truncated == 7
        # The kept prefix is the head of the sender's list.
        assert node.ballot_box.moderators() == ["m0", "m1", "m2"]

    def test_cap_does_not_touch_compliant_lists(self):
        node = make_node(votes_per_exchange=5)
        stored = receive_votes(node,
            "v1", self.entries("m1", "m2"), 1.0, experienced=True
        )
        assert stored == 2
        assert node.votes_truncated == 0

    def test_oversized_list_cannot_bloat_moderators_per_voter(self):
        """Repeated oversized sends keep the per-voter moderator count
        bounded by the cap times the number of exchanges the receiver
        actually accepts — not by the sender's appetite."""
        node = make_node(votes_per_exchange=2)
        for round_ in range(3):
            mods = [f"m{round_}_{i}" for i in range(50)]
            receive_votes(node, "v1", self.entries(*mods), float(round_), True)
        assert node.ballot_box.total_votes() == 6
        assert node.votes_truncated == 3 * 48


class TestVoxPopuli:
    def vote_in(self, node, n_voters, moderator="m1", vote=Vote.POSITIVE):
        for i in range(n_voters):
            receive_votes(node,
                f"v{i}", [VoteEntry(moderator, vote, 0.0)], 1.0, experienced=True
            )

    def test_needs_bootstrap_until_b_min(self):
        node = make_node(b_min=3)
        assert node.needs_bootstrap()
        self.vote_in(node, 3)
        assert not node.needs_bootstrap()

    def test_bootstrapping_node_responds_null(self):
        node = make_node(b_min=3)
        assert node.respond_top_k() is None

    def test_declined_requests_are_counted(self):
        """The old code incremented vp_requests_answered by 0 on the
        decline path — a no-op; declines now have their own counter."""
        node = make_node(b_min=3)
        node.respond_top_k()
        node.respond_top_k()
        assert node.vp_requests_declined == 2
        assert node.vp_requests_answered == 0
        self.vote_in(node, 3)
        node.respond_top_k()
        assert node.vp_requests_declined == 2
        assert node.vp_requests_answered == 1

    def test_settled_node_responds_with_top_k(self):
        node = make_node(b_min=2, k=3)
        self.vote_in(node, 3, "m1", Vote.POSITIVE)
        resp = node.respond_top_k()
        assert resp is not None
        assert resp[0] == "m1"
        assert len(resp) <= 3

    def test_receive_null_ignored(self):
        node = make_node()
        node.receive_top_k(None)
        assert len(node.topk_cache) == 0

    def test_topk_cache_bounded_by_v_max(self):
        node = make_node(v_max=2)
        for i in range(5):
            node.receive_top_k([f"m{i}"])
        assert len(node.topk_cache) == 2


class TestRanking:
    def test_current_ranking_uses_ballot_when_settled(self):
        node = make_node(b_min=2)
        for i in range(3):
            receive_votes(node,
                f"v{i}", [VoteEntry("m1", Vote.POSITIVE, 0.0)], 1.0, True
            )
        ranking = node.current_ranking()
        assert ranking[0][0] == "m1"
        assert ranking[0][1] == 3.0

    def test_current_ranking_uses_voxpopuli_when_bootstrapping(self):
        node = make_node(b_min=5)
        node.receive_top_k(["mX", "mY"])
        ranking = node.current_ranking()
        assert ranking[0][0] == "mX"

    def test_empty_node_has_empty_ranking(self):
        node = make_node()
        assert node.current_ranking() == []

    def test_known_moderators_union(self):
        node = make_node()
        node.receive_moderations([node_mod("a", "t1")], now=1.0)
        receive_votes(node, "v1", [VoteEntry("b", Vote.POSITIVE, 0.0)], 1.0, True)
        node.receive_top_k(["c"])
        node.cast_vote("d", Vote.POSITIVE, 1.0)
        assert node.known_moderators() == ["a", "b", "c", "d"]

    def test_unvoted_known_moderator_ranked_at_zero(self):
        node = make_node(b_min=1)
        node.receive_moderations([node_mod("m2", "t1")], now=1.0)
        receive_votes(node, "v1", [VoteEntry("m1", Vote.POSITIVE, 0.0)], 1.0, True)
        scores = dict(node.ballot_ranking())
        assert scores["m1"] == 1.0
        assert scores["m2"] == 0.0
