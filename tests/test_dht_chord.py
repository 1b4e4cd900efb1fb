"""Tests for the Chord DHT substrate."""

import pytest

from repro.dht.chord import ChordConfig, ChordRing, chord_id


def ring_with(names, **cfg):
    ring = ChordRing(ChordConfig(**cfg))
    for n in names:
        ring.join(n)
    return ring


class TestBasics:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChordConfig(bits=2)
        with pytest.raises(ValueError):
            ChordConfig(stabilize_interval=0.0)

    def test_chord_id_stable_and_bounded(self):
        a = chord_id("peer1", 16)
        assert a == chord_id("peer1", 16)
        assert 0 <= a < (1 << 16)
        assert a != chord_id("peer2", 16)

    def test_join_and_leave_membership(self):
        ring = ring_with(["a", "b", "c"])
        assert ring.online_count() == 3
        ring.leave("b")
        assert ring.online_count() == 2
        ring.leave("b")  # idempotent
        assert ring.online_count() == 2

    def test_rejoin_after_leave(self):
        ring = ring_with(["a", "b"])
        ring.leave("a")
        ring.join("a")
        assert ring.online_count() == 2

    def test_join_costs_messages_on_nonempty_ring(self):
        ring = ChordRing()
        ring.join("first")
        assert ring.join_messages == 0  # nothing to contact
        ring.join("second")
        assert ring.join_messages > 0

    def test_failure_costs_more_than_graceful_leave_and_loses_keys(self):
        ring = ring_with(["a", "b", "c", "d"])
        ring.leave("a", graceful=True)
        graceful = ring.leave_messages
        ring.leave("b", graceful=False)
        assert ring.failure_messages > graceful - ring.leave_messages
        assert ring.keys_lost == 1

    def test_stabilize_costs_two_messages_per_node(self):
        ring = ring_with(["a", "b", "c"])
        before = ring.stabilize_messages
        ring.stabilize_all()
        assert ring.stabilize_messages - before == 6


class TestLookup:
    def test_lookup_succeeds_on_fresh_ring(self):
        ring = ring_with([f"p{i}" for i in range(32)])
        ring.stabilize_all()
        messages, ok = ring.lookup("p0", "some-content-key")
        assert ok
        assert messages >= 0

    def test_lookup_hops_grow_logarithmically(self):
        small = ring_with([f"p{i}" for i in range(4)])
        small.stabilize_all()
        large = ring_with([f"p{i}" for i in range(256)])
        large.stabilize_all()

        def mean_messages(ring, n=40):
            total = 0
            for i in range(n):
                m, ok = ring.lookup("p0", f"key-{i}")
                assert ok
                total += m
            return total / n

        m_small = mean_messages(small)
        m_large = mean_messages(large)
        assert m_large > m_small  # more nodes, more hops
        assert m_large <= 2 + 2 * 8  # ~log2(256)=8, generous bound

    def test_lookup_from_unknown_node_fails(self):
        ring = ring_with(["a", "b"])
        assert ring.lookup("ghost", "k") == (0, False)

    def test_stale_fingers_cost_timeouts(self):
        ring = ring_with([f"p{i}" for i in range(64)])
        ring.stabilize_all()
        # Half the ring fails without re-stabilisation.
        for i in range(1, 64, 2):
            ring.leave(f"p{i}", graceful=False)
        before = ring.timeouts
        for i in range(30):
            ring.lookup("p0", f"key-{i}")
        assert ring.timeouts > before

    def test_single_node_owns_everything(self):
        ring = ring_with(["solo"])
        ring.stabilize_all()
        messages, ok = ring.lookup("solo", "anything")
        assert ok
        assert messages == 0


class TestMaintenanceUnderChurn:
    def test_churn_generates_maintenance_traffic(self):
        ring = ChordRing()
        for i in range(20):
            ring.join(f"p{i}")
        base = ring.total_maintenance_messages()
        # a churn storm: half leave ungracefully, rejoin, repeat
        t = 0.0
        for cycle in range(5):
            t += 600.0
            for i in range(0, 20, 2):
                ring.leave(f"p{i}", graceful=False)
            ring.stabilize_all()
            t += 600.0
            for i in range(0, 20, 2):
                ring.join(f"p{i}")
            ring.stabilize_all()
        assert ring.total_maintenance_messages() > base * 3
        assert ring.keys_lost == 50

# ----------------------------------------------------------------------
# Regressions: join cost accounting and recycled-ident finger liveness
# ----------------------------------------------------------------------
class TestJoinCostRegression:
    def test_join_charges_pre_join_ring_from_successor(self):
        """join() must charge the m finger-init lookups over the ring
        as it existed *before* the newcomer was inserted, routed from
        the joining node's successor.

        Pre-fix, the newcomer was inserted first and routing started
        at ``_ring[0]``: on this hand-built ring that charged 19
        messages instead of the correct 10 — the regression pins the
        reference value computed independently below.
        """
        from bisect import bisect_left

        bits = 8
        size = 1 << bits
        ring = ring_with(
            ["alpha", "bravo", "charlie", "delta", "echo"], bits=bits
        )
        idents = sorted(ring._ring)

        def succ(pool, t):
            i = bisect_left(pool, t)
            return pool[0] if i == len(pool) else pool[i]

        def greedy_hops(pool, target, start):
            current, hops = start, 0
            while succ(pool, target) != current and hops <= 2 * bits:
                dist = (target - current) % size
                step = 1 << max(0, dist.bit_length() - 1)
                nxt = succ(pool, (current + step) % size)
                hops += 1
                if nxt == current:
                    break
                current = nxt
            return hops

        jid = chord_id("foxtrot", bits)
        assert jid not in idents  # no probing in this scenario
        expected = 1  # key transfer from successor
        for i in range(bits):
            target = (jid + (1 << i)) % size
            expected += max(1, greedy_hops(idents, target, succ(idents, jid)))
        # The buggy accounting (post-join ring, routed from the lowest
        # ident) gives a different number here — keep the scenario
        # discriminating.
        post = sorted(idents + [jid])
        buggy = 1 + sum(
            max(1, greedy_hops(post, (jid + (1 << i)) % size, post[0]))
            for i in range(bits)
        )
        assert buggy != expected

        before = ring.join_messages
        ring.join("foxtrot")
        assert ring.join_messages - before == expected

    def test_joining_a_single_node_ring_still_costs_messages(self):
        # The pre-join ring has one node: every finger init resolves
        # in 0 hops but still costs the max(1, hops) floor + transfer.
        ring = ring_with(["first"])
        before = ring.join_messages
        ring.join("second")
        assert ring.join_messages - before == ring.config.bits + 1


class TestRecycledIdentRegression:
    def test_recycled_ident_still_counts_as_dead_finger(self):
        """join/leave/join where the later joiner linear-probes into
        the departed node's ident: fingers that still name the dead
        node must pay a timeout even though the *ident* is live again.

        Pre-fix, fingers stored bare idents and liveness was ``ident
        in _by_ident`` — structurally no timeout can fire in this
        scenario because every finger ident maps to a live node.
        """
        bits = 4
        ring = ring_with(["n6", "n5", "n29", "n4", "n2", "n1"], bits=bits)
        # n6 and n10 collide at ident 2 (blake2-derived; pinned here so
        # a hash change fails loudly rather than silently degrading).
        assert chord_id("n10", bits) == ring._nodes["n6"].ident == 2
        ring.join("n10")
        assert ring._nodes["n10"].ident == 3  # linear-probed
        ring.stabilize_all()  # fingers now reference (3, "n10")
        ring.leave("n10", graceful=False)
        ring.join("n14")  # also collides at 2, probes into 3
        assert ring._nodes["n14"].ident == 3  # ident recycled
        # Every finger ident is now backed by a live node, so the old
        # bare-ident liveness check could never time out.
        live = set(ring._by_ident)
        for node in ring._nodes.values():
            assert {ident for ident, _ in node.fingers} <= live
        before = ring.timeouts
        for requester in ["n6", "n5", "n29", "n4", "n2", "n1"]:
            for k in range(40):
                _, ok = ring.lookup(requester, f"key{k}")
                assert ok
        assert ring.timeouts > before

    def test_fresh_fingers_after_restabilize_do_not_time_out(self):
        ring = ring_with(["n6", "n5", "n29", "n4", "n2", "n1"], bits=4)
        ring.join("n10")
        ring.stabilize_all()
        ring.leave("n10", graceful=False)
        ring.join("n14")
        ring.stabilize_all()  # fingers refreshed: no stale names
        before = ring.timeouts
        for requester in ["n6", "n5", "n29", "n4", "n2", "n1"]:
            for k in range(40):
                _, ok = ring.lookup(requester, f"key{k}")
                assert ok
        assert ring.timeouts == before


# ----------------------------------------------------------------------
# Churn property test: randomized membership sequences
# ----------------------------------------------------------------------
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

_CHURN_OPS = st.lists(
    st.tuples(
        st.sampled_from(["join", "leave", "fail", "stabilize"]),
        st.integers(0, 11),
    ),
    min_size=1,
    max_size=60,
)


class TestChurnProperties:
    @given(ops=_CHURN_OPS)
    @settings(max_examples=30, deadline=None)
    def test_randomized_churn_invariants(self, ops):
        """Any join/graceful-leave/failure/stabilize sequence keeps the
        counters non-negative and monotone, total_maintenance_messages
        consistent with its parts, and every lookup succeeding once the
        ring has been stabilized."""
        ring = ChordRing(ChordConfig(bits=8))
        names = [f"p{i}" for i in range(12)]
        counters = (
            "join_messages",
            "leave_messages",
            "failure_messages",
            "stabilize_messages",
            "lookup_messages",
            "timeouts",
            "keys_lost",
        )
        previous = {c: 0 for c in counters}
        t = 0.0
        for op, i in ops:
            t += 1.0
            if op == "join":
                ring.join(names[i])
            elif op == "leave":
                ring.leave(names[i], graceful=True)
            elif op == "fail":
                ring.leave(names[i], graceful=False)
            else:
                ring.stabilize_all()
            for c in counters:
                value = getattr(ring, c)
                assert value >= previous[c] >= 0
                previous[c] = value
            assert ring.total_maintenance_messages() == (
                ring.join_messages
                + ring.leave_messages
                + ring.failure_messages
                + ring.stabilize_messages
            )
            assert ring.online_count() == len(ring._by_ident) == len(ring._nodes)
        ring.stabilize_all()
        for name in list(ring._nodes):
            messages, ok = ring.lookup(name, f"content-{name}")
            assert ok
            assert messages >= 0
