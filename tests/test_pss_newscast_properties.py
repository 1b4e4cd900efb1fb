"""Property-based tests for the Newscast PSS."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.pss.base import OnlineRegistry
from repro.pss.newscast import NewscastConfig, NewscastService


@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["online", "offline", "tick"]),
            st.integers(0, 9),
        ),
        max_size=60,
    ),
    view_size=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_property_views_bounded_and_never_self(ops, view_size):
    """Whatever the interleaving of churn and gossip: views never
    exceed capacity, never contain the owner, and ticks never crash."""
    reg = OnlineRegistry()
    svc = NewscastService(
        reg, np.random.default_rng(0), NewscastConfig(view_size=view_size)
    )
    t = 0.0
    for op, n in ops:
        pid = f"p{n}"
        t += 1.0
        if op == "online":
            reg.set_online(pid)
            svc.node_online(pid, t)
        elif op == "offline":
            reg.set_offline(pid)
            svc.node_offline(pid)
        else:
            svc.gossip_tick(pid, t)
        for owner, view in ((p, svc._views.get(p, {})) for p in reg.online_peers()):
            assert len(view) <= view_size
            assert owner not in view


@given(seed=st.integers(0, 100))
@settings(max_examples=30, deadline=None)
def test_property_descriptor_timestamps_monotone_with_gossip(seed):
    """Fresh self-descriptors dominate: after an exchange, each party's
    entry for the other carries the exchange time."""
    reg = OnlineRegistry()
    svc = NewscastService(reg, np.random.default_rng(seed), NewscastConfig())
    for pid in ("a", "b"):
        reg.set_online(pid)
        svc.node_online(pid, 0.0)
    svc._exchange("a", "b", now=42.0)
    assert svc._views.get("a", {}).get("b") == 42.0
    assert svc._views.get("b", {}).get("a") == 42.0
