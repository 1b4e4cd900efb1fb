"""Tests for the Newscast gossip PSS."""

import numpy as np
import pytest

from repro.pss.base import OnlineRegistry
from repro.pss.newscast import NewscastConfig, NewscastService


def make(n=20, seed=0, **cfg):
    reg = OnlineRegistry()
    svc = NewscastService(reg, np.random.default_rng(seed), NewscastConfig(**cfg))
    for i in range(n):
        pid = f"p{i}"
        reg.set_online(pid)
        svc.node_online(pid, now=0.0)
    return reg, svc


def run_rounds(reg, svc, rounds, t0=0.0, dt=10.0):
    t = t0
    for _ in range(rounds):
        t += dt
        for pid in reg.online_peers():
            svc.gossip_tick(pid, t)
    return t


def test_config_validation():
    with pytest.raises(ValueError):
        NewscastConfig(view_size=0)
    with pytest.raises(ValueError):
        NewscastConfig(bootstrap_size=0)


def test_bootstrap_fills_view():
    _, svc = make(10, bootstrap_size=5)
    # the last node bootstrapped saw 9 candidates
    assert 1 <= len(svc._views.get("p9", {})) <= 5


def test_views_never_exceed_capacity():
    reg, svc = make(30, view_size=8)
    run_rounds(reg, svc, 10)
    assert all(len(v) <= 8 for v in svc._views.values())


def test_view_never_contains_self():
    reg, svc = make(15)
    run_rounds(reg, svc, 10)
    for pid in reg.online_peers():
        assert pid not in svc._views.get(pid, {})


def test_exchange_spreads_descriptors():
    reg, svc = make(20, view_size=20)
    run_rounds(reg, svc, 15)
    sizes = {p: len(v) for p, v in svc._views.items()}
    assert np.mean(list(sizes.values())) > 10


def test_overlay_connects_population():
    """After enough rounds, transitively reachable set ≈ everyone."""
    reg, svc = make(25, view_size=10, seed=3)
    run_rounds(reg, svc, 20)
    # BFS over the union of views from p0
    seen = {"p0"}
    frontier = ["p0"]
    while frontier:
        nxt = []
        for pid in frontier:
            for nb in svc._views.get(pid, {}):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    assert len(seen) >= 23


def test_offline_partner_is_dropped_from_view():
    reg, svc = make(5, view_size=10, seed=1)
    run_rounds(reg, svc, 5)
    reg.set_offline("p1")
    # tick everyone many times; p1 must eventually vanish from views
    run_rounds(reg, svc, 30, t0=100.0)
    for pid in reg.online_peers():
        view = svc._views.get(pid, {})
        # Either dropped on contact failure or aged out by trimming.
        if "p1" in view:
            # p1 descriptors may survive only if never picked; extremely
            # unlikely after 30 rounds with 4 nodes.
            pytest.fail(f"stale descriptor for offline peer in {pid}'s view")


def test_sample_returns_view_member():
    reg, svc = make(10, seed=2)
    run_rounds(reg, svc, 5)
    for _ in range(50):
        s = svc.sample("p0")
        assert s in svc._views.get("p0", {})


def test_sample_none_for_unknown_node():
    _, svc = make(3)
    assert svc.sample("stranger") is None


def test_gossip_tick_noop_for_offline_node():
    reg, svc = make(5)
    reg.set_offline("p0")
    assert svc.gossip_tick("p0", 10.0) is False


def test_rejoin_rebootstraps_view():
    reg, svc = make(10, seed=4)
    run_rounds(reg, svc, 5)
    reg.set_offline("p0")
    svc.node_offline("p0")
    # long absence
    reg.set_online("p0")
    svc.node_online("p0", now=1000.0)
    assert len(svc._views.get("p0", {})) >= 1


def test_exchange_counters_advance():
    """``gossip_tick`` reports each exchange it makes; the runtime's
    traffic meter counts those."""
    reg, svc = make(10, seed=5)
    t = run_rounds(reg, svc, 3)
    assert sum(svc.gossip_tick(pid, t + 10.0) for pid in reg.online_peers()) > 0
