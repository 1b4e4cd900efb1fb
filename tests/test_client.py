"""Tests for the media-client layer (search index + facade)."""

import numpy as np
import pytest

from repro.client.client import MediaClient
from repro.client.search import InvertedIndex, tokenize
from repro.core.moderation import Moderation, ModerationStore
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import Vote, VoteEntry
from tests.reference_runtime import receive_votes


def mod(moderator, torrent, title, desc=""):
    return Moderation(
        moderator_id=moderator, torrent_id=torrent, title=title, description=desc
    )


class TestTokenize:
    def test_lowercase_alnum(self):
        assert tokenize("Ubuntu 9.04 ISO!") == ["ubuntu", "9", "04", "iso"]

    def test_empty(self):
        assert tokenize("---") == []


class TestInvertedIndex:
    def test_query_matches_title_description_torrent(self):
        store = ModerationStore()
        store.insert(mod("m1", "linux-iso", "Ubuntu release", "jaunty desktop"), 0.0)
        idx = InvertedIndex(store)
        assert len(idx.query("ubuntu")) == 1
        assert len(idx.query("jaunty")) == 1
        assert len(idx.query("linux")) == 1
        assert idx.query("windows") == []

    def test_multi_term_scores_higher(self):
        store = ModerationStore()
        store.insert(mod("m1", "t1", "ubuntu desktop"), 0.0)
        store.insert(mod("m2", "t2", "ubuntu server edition"), 0.0)
        idx = InvertedIndex(store)
        results = idx.query("ubuntu server")
        assert results[0][0].moderator_id == "m2"
        assert results[0][1] == 2

    def test_index_refreshes_on_insert(self):
        store = ModerationStore()
        idx = InvertedIndex(store)
        assert idx.query("fedora") == []
        store.insert(mod("m1", "t1", "Fedora spin"), 1.0)
        assert len(idx.query("fedora")) == 1

    def test_index_refreshes_on_purge(self):
        store = ModerationStore()
        store.insert(mod("bad", "t1", "malware pack"), 0.0)
        idx = InvertedIndex(store)
        assert len(idx.query("malware")) == 1
        store.purge_moderator("bad")
        assert idx.query("malware") == []

    def test_empty_query(self):
        store = ModerationStore()
        store.insert(mod("m1", "t1", "something"), 0.0)
        assert InvertedIndex(store).query("!!!") == []

    def test_term_count(self):
        store = ModerationStore()
        store.insert(mod("m1", "t1", "alpha beta"), 0.0)
        idx = InvertedIndex(store)
        assert idx.term_count() >= 3  # alpha, beta, t1


@pytest.fixture()
def client():
    node = VoteSamplingNode("me", NodeConfig(b_min=2), np.random.default_rng(0))
    return MediaClient(node)


def vote_in(node, voter, moderator, vote=Vote.POSITIVE):
    receive_votes(node, voter, [VoteEntry(moderator, vote, 0.0)], 1.0, True)


class TestMediaClient:
    def test_publish_and_search(self, client):
        client.publish("dist-iso", "My Distro ISO", now=0.0, description="fast mirror")
        hits = client.search("distro")
        assert len(hits) == 1
        assert hits[0].torrent_id == "dist-iso"

    def test_search_orders_by_moderator_reputation(self, client):
        node = client.node
        node.receive_moderations(
            [mod("good", "t-good", "ubuntu iso"), mod("spam", "t-spam", "ubuntu iso")],
            now=0.0,
        )
        vote_in(node, "v1", "good")
        vote_in(node, "v2", "good")
        vote_in(node, "v1", "spam", Vote.NEGATIVE)
        hits = client.search("ubuntu")
        assert [h.moderator_id for h in hits] == ["good", "spam"]
        assert hits[0].moderator_score > hits[1].moderator_score

    def test_extra_matching_term_beats_reputation(self, client):
        node = client.node
        node.receive_moderations(
            [
                mod("good", "t1", "ubuntu"),
                mod("nobody", "t2", "ubuntu jaunty"),
            ],
            now=0.0,
        )
        vote_in(node, "v1", "good")
        vote_in(node, "v2", "good")
        hits = client.search("ubuntu jaunty")
        assert hits[0].moderator_id == "nobody"  # 2 terms beat reputation

    def test_search_limit(self, client):
        for i in range(30):
            client.node.receive_moderations([mod(f"m{i}", f"t{i}", "linux")], 0.0)
        assert len(client.search("linux", limit=10)) == 10

    def test_disapprove_removes_from_search(self, client):
        client.node.receive_moderations([mod("spam", "t", "casino pills")], 0.0)
        assert client.search("casino")
        client.disapprove("spam", now=1.0)
        assert client.search("casino") == []

    def test_approve_enables_forwarding(self, client):
        client.node.receive_moderations([mod("friend", "t", "music")], 0.0)
        client.approve("friend", now=1.0)
        forwarded = {m.moderator_id for m in client.node.moderations_to_send()}
        assert "friend" in forwarded

    def test_top_moderators_screen(self, client):
        for v, m in (("v1", "a"), ("v2", "a"), ("v1", "b")):
            vote_in(client.node, v, m)
        screen = client.top_moderators(k=2)
        assert screen[0] == "a"
        assert len(screen) <= 2

    def test_top_moderators_detailed(self, client):
        for v, m in (("v1", "a"), ("v2", "a"), ("v3", "a")):
            vote_in(client.node, v, m)
        vote_in(client.node, "v1", "b", Vote.NEGATIVE)
        rows = client.top_moderators_detailed(k=2)
        assert rows[0]["moderator"] == "a"
        assert rows[0]["positive_votes"] == 3
        assert rows[0]["popular_vote_pct"] == 100.0
        assert rows[1]["moderator"] == "b"
        assert rows[1]["popular_vote_pct"] == 0.0

    def test_top_moderators_detailed_unvoted_pct_none(self, client):
        client.node.receive_top_k(["ghost"])
        rows = client.top_moderators_detailed(k=1)
        assert rows[0]["popular_vote_pct"] is None

    def test_browse_moderator(self, client):
        client.node.receive_moderations(
            [mod("m1", "t1", "x"), mod("m1", "t2", "y"), mod("m2", "t3", "z")], 0.0
        )
        assert len(client.browse_moderator("m1")) == 2

    def test_status(self, client):
        client.publish("t", "hello world", now=0.0)
        s = client.status()
        assert s["peer_id"] == "me"
        assert s["moderations"] == 1
        assert s["bootstrapping"] is True

    def test_squash_bounded(self):
        assert MediaClient._squash(float("inf")) == 1.0
        assert MediaClient._squash(float("-inf")) == -1.0
        assert -1.0 < MediaClient._squash(-1000.0) < MediaClient._squash(1000.0) < 1.0
