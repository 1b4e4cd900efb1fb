"""Tests for OnlineRegistry."""

from hypothesis import given
from hypothesis import strategies as st

from repro.pss.base import OnlineRegistry


def test_online_offline_flips_membership():
    reg = OnlineRegistry()
    reg.set_online("a")
    assert reg.is_online("a")
    assert reg.online_peers() == ["a"]
    reg.set_offline("a")
    assert not reg.is_online("a")
    assert reg.online_count() == 0


def test_idempotent_transitions():
    reg = OnlineRegistry()
    reg.set_online("a")
    reg.set_online("a")
    assert reg.online_count() == 1
    reg.set_offline("a")
    reg.set_offline("a")
    assert reg.online_count() == 0


def test_swap_remove_keeps_all_members_addressable():
    reg = OnlineRegistry()
    for p in ["a", "b", "c", "d"]:
        reg.set_online(p)
    reg.set_offline("b")  # middle removal triggers swap
    remaining = {reg.peer_at(i) for i in range(reg.online_count())}
    assert remaining == {"a", "c", "d"}


def test_online_peers_returns_copy():
    reg = OnlineRegistry()
    reg.set_online("a")
    snapshot = reg.online_peers()
    snapshot.append("zz")
    assert reg.online_peers() == ["a"]


@given(
    st.lists(
        st.tuples(st.sampled_from(["on", "off"]), st.integers(0, 9)),
        max_size=60,
    )
)
def test_property_registry_matches_reference_set(ops):
    """The swap-remove list always agrees with a plain set model."""
    reg = OnlineRegistry()
    model = set()
    for op, pid_num in ops:
        pid = f"p{pid_num}"
        if op == "on":
            reg.set_online(pid)
            model.add(pid)
        else:
            reg.set_offline(pid)
            model.discard(pid)
        assert set(reg.online_peers()) == model
        assert reg.online_count() == len(model)
        assert {reg.peer_at(i) for i in range(len(model))} == model
