"""Tests for Moderation / ModerationStore and the extract policy."""

import numpy as np
import pytest

from repro.core.columnar import ColumnarStateStore
from repro.core.moderation import Moderation, ModerationStore
from repro.core.votes import LocalVoteList, Vote
from tests.reference_runtime import extract_moderations


def vote_list():
    """A list on row ``me`` of a store of its own, as a node holds it."""
    store = ColumnarStateStore()
    return LocalVoteList(store, store.ensure_row("me"))


def mod(moderator="m1", torrent="t1", version=1, valid=True, created=0.0):
    return Moderation(
        moderator_id=moderator,
        torrent_id=torrent,
        title=f"{moderator}:{torrent}",
        created_at=created,
        version=version,
        signature_valid=valid,
    )


class TestStore:
    def test_insert_and_get(self):
        st = ModerationStore()
        assert st.insert(mod(), now=1.0)
        assert st.get("m1", "t1").title == "m1:t1"
        assert len(st) == 1

    def test_duplicate_insert_not_new(self):
        st = ModerationStore()
        st.insert(mod(), now=1.0)
        assert not st.insert(mod(), now=2.0)

    def test_newer_version_replaces(self):
        st = ModerationStore()
        st.insert(mod(version=1), now=1.0)
        assert not st.insert(mod(version=2), now=2.0)  # update, not new
        assert st.get("m1", "t1").version == 2
        # stale version rejected
        st.insert(mod(version=1), now=3.0)
        assert st.get("m1", "t1").version == 2

    def test_invalid_signature_rejected(self):
        st = ModerationStore()
        assert not st.insert(mod(valid=False), now=1.0)
        assert len(st) == 0

    def test_purge_moderator(self):
        st = ModerationStore()
        st.insert(mod("bad", "t1"), now=1.0)
        st.insert(mod("bad", "t2"), now=1.0)
        st.insert(mod("good", "t1"), now=1.0)
        assert st.purge_moderator("bad") == 2
        assert not st.has_moderator("bad")
        assert st.has_moderator("good")

    def test_capacity_evicts_unapproved_first(self):
        st = ModerationStore(capacity=2)
        st.insert(mod("approved", "t1"), now=1.0)
        st.insert(mod("stranger", "t1"), now=2.0)
        st.insert(mod("stranger2", "t1"), now=3.0)
        st.enforce_capacity(approved=frozenset({"approved"}))
        assert len(st) == 2
        assert st.has_moderator("approved")
        assert not st.has_moderator("stranger")  # oldest unapproved out

    def test_capacity_falls_back_to_oldest_overall(self):
        st = ModerationStore(capacity=1)
        st.insert(mod("a", "t1"), now=1.0)
        st.insert(mod("b", "t1"), now=2.0)
        st.enforce_capacity(approved=frozenset({"a", "b"}))
        assert len(st) == 1
        assert st.has_moderator("b")

    def test_recency_order(self):
        st = ModerationStore()
        st.insert(mod("a", "t1"), now=1.0)
        st.insert(mod("b", "t1"), now=2.0)
        order = [m.moderator_id for m in st.recency_order()]
        assert order == ["b", "a"]

    def test_moderators_sorted(self):
        st = ModerationStore()
        st.insert(mod("z", "t1"), now=1.0)
        st.insert(mod("a", "t1"), now=1.0)
        assert st.moderators() == ["a", "z"]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ModerationStore(capacity=0)


class TestExtractPolicy:
    def test_forwards_only_own_and_approved(self):
        st = ModerationStore()
        vl = vote_list()
        st.insert(mod("me", "t1"), now=1.0)
        st.insert(mod("friend", "t1"), now=2.0)
        st.insert(mod("stranger", "t1"), now=3.0)
        vl.cast("friend", Vote.POSITIVE, 0.0)
        out = extract_moderations(st, vl, "me", 10, np.random.default_rng(0))
        senders = {m.moderator_id for m in out}
        assert senders == {"me", "friend"}

    def test_disapproved_never_forwarded(self):
        st = ModerationStore()
        vl = vote_list()
        st.insert(mod("bad", "t1"), now=1.0)
        vl.cast("bad", Vote.NEGATIVE, 0.0)
        out = extract_moderations(st, vl, "me", 10, np.random.default_rng(0))
        assert out == []

    def test_budget_respected_with_recency_half(self):
        st = ModerationStore()
        vl = vote_list()
        vl.cast("friend", Vote.POSITIVE, 0.0)
        for i in range(20):
            st.insert(mod("friend", f"t{i:02d}"), now=float(i))
        out = extract_moderations(st, vl, "me", 6, np.random.default_rng(0))
        assert len(out) == 6
        # recency half = 3 most recent torrents
        recent = {m.torrent_id for m in out[:3]}
        assert recent == {"t19", "t18", "t17"}

    def test_zero_budget(self):
        st = ModerationStore()
        vl = vote_list()
        st.insert(mod("me", "t1"), now=1.0)
        assert extract_moderations(st, vl, "me", 0, np.random.default_rng(0)) == []
