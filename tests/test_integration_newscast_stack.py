"""Full-stack integration with the Newscast gossip PSS (§III / A3).

The other integration tests use the oracle PSS; these verify the whole
pipeline also works when peer discovery itself is gossip-based — view
bootstrap on session start, stale-entry handling, and end-to-end
moderation + vote flow.
"""

import pytest

from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import HOUR, MB
from repro.traces.generator import TraceGenerator, TraceGeneratorConfig


@pytest.fixture(scope="module")
def newscast_run():
    trace = TraceGenerator(
        TraceGeneratorConfig(n_peers=25, n_swarms=3, duration=8 * HOUR),
        seed=21,
    ).generate()
    engine = Engine()
    rng = RngRegistry(21)
    session = BitTorrentSession(
        engine, trace, rng, config=SessionConfig(round_interval=60.0)
    )
    runtime = ProtocolRuntime(
        session,
        rng,
        config=RuntimeConfig(
            use_newscast=True,
            moderation_interval=120.0,
            vote_interval=120.0,
            bartercast_interval=300.0,
            newscast_interval=60.0,
            experience_threshold=1 * MB,
        ),
    )
    arrivals = trace.arrival_order()
    moderator = arrivals[0]
    runtime.ensure_node(moderator).create_moderation("t0", "the file", 0.0)
    for pid in arrivals[1:5]:
        runtime.ensure_node(pid).set_vote_intention(moderator, Vote.POSITIVE)
    session.start()
    engine.run_until(trace.duration)
    return trace, session, runtime, moderator


def test_newscast_service_active(newscast_run):
    _trace, _session, runtime, _m = newscast_run
    assert runtime.newscast is not None
    assert runtime.run_summary()["traffic"]["newscast"]["exchanges"] > 0


def test_views_are_populated_and_bounded(newscast_run):
    trace, session, runtime, _m = newscast_run
    sizes = {p: len(v) for p, v in runtime.newscast._views.items()}
    cap = runtime.newscast.config.view_size
    assert sizes, "views should exist"
    assert all(s <= cap for s in sizes.values())


def test_moderation_spreads_over_gossip_pss(newscast_run):
    trace, _session, runtime, moderator = newscast_run
    have = [
        pid for pid, n in runtime.nodes.items() if n.store.has_moderator(moderator)
    ]
    assert len(have) >= len(trace.peers) // 3


def test_votes_flow_over_gossip_pss(newscast_run):
    _trace, _session, runtime, moderator = newscast_run
    votes = sum(
        n.ballot_box.counts(moderator)[0] for n in runtime.nodes.values()
    )
    assert votes > 0


def test_stale_pss_samples_tolerated(newscast_run):
    """With churn, Newscast sampling inevitably returns offline peers
    sometimes; the runtime treats them as failed connections and the
    run completes without error — reaching here is the assertion."""
    trace, session, _runtime, _m = newscast_run
    assert session.engine.now == trace.duration
