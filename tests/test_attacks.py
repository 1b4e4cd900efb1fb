"""Tests for the attack models."""

import numpy as np
import pytest

from repro.attacks.collusion import FakeExperienceColluders
from repro.attacks.spam import FlashCrowd
from repro.attacks.sybil import SybilAttacker
from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.experience import ThresholdExperience
from repro.core.votes import Vote, VoteEntry
from repro.identity.authority import IdentityAuthority
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.sim.units import HOUR, MB
from repro.traces.model import EventKind, PeerProfile, SwarmSpec, Trace, TraceEvent


def tiny_runtime(n=4, seed=0, **cfg):
    peers, events = {}, []
    for i in range(n):
        pid = f"p{i}"
        peers[pid] = PeerProfile(pid)
        events.append(TraceEvent(float(i), pid, EventKind.SESSION_START))
    trace = Trace(
        duration=4 * HOUR,
        peers=peers,
        swarms={"s0": SwarmSpec("s0", file_size=256 * 1024.0, initial_seeder="p0")},
        events=sorted(events, key=TraceEvent.sort_key),
    )
    engine = Engine()
    rng = RngRegistry(seed)
    session = BitTorrentSession(engine, trace, rng, config=SessionConfig(round_interval=60.0))
    runtime = ProtocolRuntime(
        session,
        rng,
        config=RuntimeConfig(
            moderation_interval=120.0,
            vote_interval=120.0,
            bartercast_interval=120.0,
            **cfg,
        ),
    )
    return engine, session, runtime


class TestSpamColluderNode:
    """A flash-crowd member's behaviour, as the gossip batch runs it for
    a crowd row (``tests.reference_runtime.SpamColluderNode`` is its
    per-node form).  The gate is off (T = 0), so honest nodes merge
    what the crowd sends."""

    def crowd_run(self, decoys=(), **cfg):
        engine, session, runtime = tiny_runtime(experience_threshold=0.0, **cfg)
        crowd = FlashCrowd(runtime, size=3, decoys=decoys)
        crowd.arrive(0.0)
        session.start()
        engine.run_until(2 * HOUR)
        honest = [runtime.nodes[f"p{i}"] for i in range(4)]
        members = [runtime.nodes[pid] for pid in crowd.members]
        return runtime, crowd, honest, members

    def test_always_pushes_spam_vote(self):
        _runtime, crowd, honest, _members = self.crowd_run()
        heard = [
            node
            for node in honest
            for pid in crowd.members
            if node.ballot_box.vote_of(pid, "M0") is Vote.POSITIVE
        ]
        assert heard

    def test_always_answers_voxpopuli_with_spam(self):
        _runtime, _crowd, honest, members = self.crowd_run()
        cached = [lst for node in honest for lst in node.topk_cache.lists()]
        assert ["M0"] in cached
        for member in members:
            # never bootstraps, and answering leaves its counters alone
            assert not member.topk_cache.lists()
            assert member.vp_requests_answered == member.vp_requests_declined == 0

    def test_carries_spam_moderation(self):
        _engine, _session, runtime = tiny_runtime()
        crowd = FlashCrowd(runtime, size=1)
        member = runtime.nodes[crowd.members[0]]
        assert "M0" in {m.moderator_id for m in member.moderations_to_send()}

    def test_ignores_incoming_votes(self):
        engine, session, runtime = tiny_runtime(experience_threshold=0.0)
        for i in range(4):
            runtime.ensure_node(f"p{i}").cast_vote("M1", Vote.POSITIVE, 0.0)
        crowd = FlashCrowd(runtime, size=3)
        crowd.arrive(0.0)
        session.start()
        engine.run_until(2 * HOUR)
        assert runtime.run_summary()["nodes"]["votes_merged"] > 0
        for pid in crowd.members:
            member = runtime.nodes[pid]
            assert member.ballot_box.num_unique_users() == 0
            assert member.votes_merged == member.votes_rejected_inexperienced == 0

    def test_decoys_included(self):
        from repro.core.node import NodeConfig

        _runtime, crowd, honest, _members = self.crowd_run(
            decoys=["M1", "M2", "M3"], node=NodeConfig(votes_per_exchange=2)
        )
        heard = {
            (moderator, vote)
            for node in honest
            for pid in crowd.members
            for moderator, vote, _at in node.ballot_box.votes_of(pid)
        }
        # The receiver-side cap keeps the list's first two entries.
        assert heard == {("M0", Vote.POSITIVE), ("M1", Vote.NEGATIVE)}
        assert sum(node.votes_truncated for node in honest) > 0


class TestFlashCrowd:
    def test_registers_and_arrives(self):
        engine, session, runtime = tiny_runtime()
        crowd = FlashCrowd(runtime, size=5)
        session.start()
        engine.run_until(1 * HOUR)
        assert all(pid not in session.registry for pid in crowd.members)
        crowd.arrive(engine.now)
        assert all(session.registry.is_online(pid) for pid in crowd.members)

    def test_crowd_pollutes_bootstrapping_nodes(self):
        engine, session, runtime = tiny_runtime(n=4)
        crowd = FlashCrowd(runtime, size=12)
        crowd.arrive(0.0)
        session.start()
        engine.run_until(2 * HOUR)
        # honest nodes are still below B_min (nobody is experienced in
        # this transfer-free world) so their VoxPopuli caches fill with
        # the crowd's spam lists.
        polluted = [
            pid
            for pid in ("p1", "p2", "p3")
            if runtime.nodes[pid].topk_cache
            and runtime.nodes[pid].current_ranking()
            and runtime.nodes[pid].current_ranking()[0][0] == "M0"
        ]
        assert len(polluted) >= 2

    def test_crowd_votes_rejected_by_experience_gate(self):
        engine, session, runtime = tiny_runtime(n=4)
        crowd = FlashCrowd(runtime, size=8)
        crowd.arrive(0.0)
        session.start()
        engine.run_until(2 * HOUR)
        # no honest ballot box contains a colluder's vote
        for pid in ("p0", "p1", "p2", "p3"):
            voters = set(runtime.nodes[pid].ballot_box.voters())
            assert voters.isdisjoint(set(crowd.members))

    def test_size_validation(self):
        engine, session, runtime = tiny_runtime()
        with pytest.raises(ValueError):
            FlashCrowd(runtime, size=0)


class TestSybil:
    def test_minting_is_cheap_and_tracked(self):
        engine, session, runtime = tiny_runtime()
        auth = IdentityAuthority(seed=0)
        attacker = SybilAttacker(runtime, auth)
        ids = attacker.mint_identities(10)
        assert len(ids) == 10
        assert auth.known_public_keys() == 10

    def test_deploy_requires_identities(self):
        engine, session, runtime = tiny_runtime()
        attacker = SybilAttacker(runtime, IdentityAuthority())
        with pytest.raises(RuntimeError):
            attacker.deploy(0.0)

    def test_deploy_brings_crowd_online(self):
        engine, session, runtime = tiny_runtime()
        attacker = SybilAttacker(runtime, IdentityAuthority())
        attacker.mint_identities(4)
        session.start()
        engine.run_until(10.0)
        crowd = attacker.deploy(engine.now)
        assert all(session.registry.is_online(p) for p in crowd.members)
        with pytest.raises(RuntimeError):
            attacker.deploy(engine.now)

    def test_upload_cost_scales_with_core(self):
        engine, session, runtime = tiny_runtime()
        attacker = SybilAttacker(runtime, IdentityAuthority())
        attacker.mint_identities(10)
        small = attacker.upload_cost_to_influence(["a"], 5 * MB)
        large = attacker.upload_cost_to_influence(["a", "b", "c"], 5 * MB)
        assert large == 3 * small


class TestFakeExperience:
    def make_bc(self, peers):
        from repro.bartercast.protocol import BarterCastService
        from repro.pss.base import OnlineRegistry
        from repro.pss.ideal import OraclePSS

        reg = OnlineRegistry()
        for p in peers:
            reg.set_online(p)
        return BarterCastService(OraclePSS(reg, np.random.default_rng(0)))

    def test_fabricated_clique_gains_no_flow_to_honest_victim(self):
        """Flow conservation defeats the clique: no honest node ever
        uploaded to the victim on the colluders' behalf, so maxflow
        from any colluder to the victim stays zero."""
        bc = self.make_bc(["victim", "c1", "c2", "c3"])
        colluders = FakeExperienceColluders(bc, ["c1", "c2", "c3"], claimed_bytes=1e12)
        colluders.poison_node("victim", now=0.0)
        exp = ThresholdExperience(bc, threshold=5 * MB)
        for c in ("c1", "c2", "c3"):
            assert bc.contribution("victim", c) == 0.0
            assert not exp.is_experienced("victim", c)

    def test_front_peer_amplification_capped_by_real_edge(self):
        """One colluder really uploads T bytes (the 'front peer'); the
        clique's fake edges let *other* colluders ride that edge — but
        total credited flow is capped by the front peer's real upload."""
        bc = self.make_bc(["victim", "front", "c2"])
        bc.local_transfer("front", "victim", 6 * MB, now=0.0)
        colluders = FakeExperienceColluders(bc, ["front", "c2"], claimed_bytes=1e12)
        colluders.poison_node("victim", now=1.0)
        # c2's flow to victim rides c2→front→victim, capped at 6 MB.
        assert bc.contribution("victim", "c2") == pytest.approx(6 * MB)
        # It cannot exceed the real edge no matter the claimed size.
        assert bc.contribution("victim", "c2") <= 6 * MB

    def test_seed_own_tables_spreads_via_gossip(self):
        bc = self.make_bc(["victim", "c1", "c2"])
        colluders = FakeExperienceColluders(bc, ["c1", "c2"], claimed_bytes=1e9)
        colluders.seed_own_tables(now=0.0)
        for t in range(40):
            for p in ("victim", "c1", "c2"):
                bc.gossip_tick(p, float(t))
        # victim heard the lie...
        assert bc.graph_of("victim").weight("c1", "c2") == 1e9
        # ...but still credits the colluders nothing.
        assert bc.contribution("victim", "c1") == 0.0

    def test_validation(self):
        bc = self.make_bc(["a", "b"])
        with pytest.raises(ValueError):
            FakeExperienceColluders(bc, ["a"])
        with pytest.raises(ValueError):
            FakeExperienceColluders(bc, ["a", "b"], claimed_bytes=0.0)
