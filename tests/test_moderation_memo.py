"""The node's ModerationCast reads are memos; they must never differ
from recomputing.

* ``moderations_to_send()`` caches the eligible list on ``(store
  mutation count, vote-list version)``: after any step it equals a
  fresh ``extract_moderations`` and leaves ``node.rng`` where the fresh
  extract does.
* ``approved()`` / ``disapproved()`` are cached on the vote-list
  version.
* ``receive_moderations`` drops offered items already held before its
  loop; the result must equal the item-by-item merge, including when a
  negative intention purges mid-merge, and capacity is still enforced.
"""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.moderation import Moderation
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import Vote
from tests.reference_runtime import extract_moderations, vote_on

BUDGET = 3
CAPACITY = 6


def mk(moderator, torrent, version=1):
    return Moderation(
        moderator_id=f"m{moderator}",
        torrent_id=f"t{torrent}",
        title="x",
        version=version,
    )


def make_node(seed=0, col_store=None):
    config = NodeConfig(
        moderations_per_exchange=BUDGET, moderation_store_capacity=CAPACITY
    )
    return VoteSamplingNode(
        "me", config, np.random.default_rng(seed), col_store=col_store
    )


def assert_memos_fresh(node):
    """The memoised reads equal recomputing them, RNG included."""
    twin = copy.deepcopy(node.rng)
    fresh = extract_moderations(
        node.store, node.vote_list, node.peer_id, BUDGET, twin
    )
    assert node.moderations_to_send() == fresh
    assert node.rng.bit_generator.state == twin.bit_generator.state
    votes = {e.moderator_id: e.vote for e in node.vote_list.entries()}
    for sign, memo in (
        (Vote.POSITIVE, node.vote_list.approved()),
        (Vote.NEGATIVE, node.vote_list.disapproved()),
    ):
        assert memo == {m for m, v in votes.items() if v is sign}


steps = st.lists(
    st.one_of(
        # a received item: new, a version refresh, or already held
        st.tuples(
            st.just("receive"), st.integers(0, 4), st.integers(0, 3), st.integers(1, 3)
        ),
        # an own item: grows the store past capacity (no eviction)
        st.tuples(st.just("create"), st.integers(0, 3)),
        # a cast: positive approves, negative purges
        st.tuples(st.just("cast"), st.integers(0, 4), st.booleans()),
        st.tuples(st.just("extract")),
    ),
    min_size=1,
    max_size=40,
)


@given(steps=steps, seed=st.integers(0, 3))
@settings(max_examples=120, deadline=None)
def test_extract_memo_equals_a_fresh_extract_after_every_step(steps, seed):
    node = make_node(seed)
    now = 0.0
    for step in steps:
        now += 1.0
        if step[0] == "receive":
            _, moderator, torrent, version = step
            node.receive_moderations([mk(moderator, torrent, version)], now)
        elif step[0] == "create":
            node.create_moderation(f"own{step[1]}", "x", now)
        elif step[0] == "cast":
            _, moderator, positive = step
            vote = Vote.POSITIVE if positive else Vote.NEGATIVE
            node.cast_vote(f"m{moderator}", vote, now)
        assert_memos_fresh(node)


def test_memo_follows_each_kind_of_store_change():
    """Insert, version refresh, capacity eviction, purge on a negative
    cast and a positive cast each move the memo key, and the memo
    follows."""
    node = make_node()
    store = node.store
    node.cast_vote("m0", Vote.POSITIVE, 0.0)
    node.cast_vote("m1", Vote.POSITIVE, 0.0)
    assert_memos_fresh(node)

    def changed(action):
        key = (store.mutation_count, node.vote_list.version)
        action()
        assert (store.mutation_count, node.vote_list.version) != key
        assert_memos_fresh(node)

    changed(lambda: node.receive_moderations([mk(0, 0)], 1.0))  # insert
    changed(lambda: node.receive_moderations([mk(0, 0, 2)], 2.0))  # refresh
    changed(lambda: node.receive_moderations([mk(1, t) for t in range(5)], 3.0))
    assert len(store) == CAPACITY  # full
    changed(lambda: node.receive_moderations([mk(2, 0), mk(2, 1)], 4.0))  # evicts
    assert len(store) == CAPACITY and not store.has_moderator("m2")
    changed(lambda: node.cast_vote("m1", Vote.NEGATIVE, 5.0))  # purge
    assert not store.has_moderator("m1")
    changed(lambda: node.cast_vote("m2", Vote.POSITIVE, 6.0))  # approve
    changed(lambda: node.receive_moderations([mk(2, t) for t in range(3)], 7.0))
    # Over budget now: every call draws, a memo hit included.
    assert len(node.moderations_to_send()) == BUDGET
    assert_memos_fresh(node)


def test_held_offer_still_trims_a_store_over_capacity():
    """Regression for the held-item skip: ``create_moderation`` does not
    evict, so the next merge must trim the store even when every
    offered item is already held."""
    node = make_node()
    held = [mk(0, t) for t in range(CAPACITY)]
    node.receive_moderations(held, 1.0)
    node.create_moderation("own", "x", 2.0)
    assert len(node.store) == CAPACITY + 1
    assert node.receive_moderations(held, 3.0) == 0
    assert len(node.store) == CAPACITY


def receive_item_by_item(node, items, now):
    """``receive_moderations`` without the held-item skip."""
    disapproved = node.vote_list.disapproved()
    new_count = 0
    for mod in items:
        if not mod.signature_valid or mod.moderator_id in disapproved:
            continue
        if mod.moderator_id == node.peer_id and mod.key() not in node.store:
            continue
        if node.store.insert(mod, now):
            new_count += 1
            node.moderations_received += 1
            node._maybe_apply_intention(mod.moderator_id, now)
    node.store.enforce_capacity(node.vote_list.approved())
    return new_count


def snapshot(node):
    return (
        node.store.export_state(),
        [(e.moderator_id, e.vote, e.cast_at) for e in node.vote_list.entries()],
        node.moderations_received,
    )


offer = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(1, 2)), max_size=8
)


@given(
    held=offer,
    intentions=st.dictionaries(st.integers(0, 3), st.booleans(), max_size=3),
    offered=offer,
)
@settings(max_examples=150, deadline=None)
def test_skipping_held_items_equals_the_item_by_item_merge(held, intentions, offered):
    """Intentions set after items were already held are the case the
    skip must not change: a negative one purges mid-merge, and a held
    item from the purged moderator later in the list is new again."""
    nodes = [make_node(), make_node()]
    for node in nodes:
        node.receive_moderations([mk(*item) for item in held], 1.0)
        for moderator, positive in intentions.items():
            node.set_vote_intention(
                f"m{moderator}", Vote.POSITIVE if positive else Vote.NEGATIVE
            )
    items = [mk(*item) for item in offered]
    got = nodes[0].receive_moderations(items, 2.0)
    expected = receive_item_by_item(nodes[1], items, 2.0)
    assert got == expected
    assert snapshot(nodes[0]) == snapshot(nodes[1])


def test_purge_mid_merge_readmits_a_held_item():
    """The concrete case behind the fallback: ``m0``'s first new item
    fires a negative intention, the purge removes the held one, and
    the held one, offered after it, is stored again."""
    node = make_node()
    node.receive_moderations([mk(0, 0)], 1.0)
    node.set_vote_intention("m0", Vote.NEGATIVE)
    assert node.receive_moderations([mk(0, 1), mk(0, 0)], 2.0) == 2
    assert vote_on(node.vote_list, "m0") is Vote.NEGATIVE
    assert node.store.get("m0", "t0") is not None
    assert node.store.get("m0", "t1") is None
