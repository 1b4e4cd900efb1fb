"""One planned gossip run, entry by entry against the scalar ticks.

A run of 16 or more vote slots goes through the column plan: slots
proved inert and merge-only slots (whose merges queue for the store's
run entry) are not visited.  These tests drive the batch handler
directly with a scripted partner draw, so the run holds exactly the
slots each test is about, and compare it with
:class:`~tests.reference_runtime.ReferenceRuntime`'s scalar ticks
taken in the same order.
"""

from typing import List, Optional

from repro.bittorrent.session import BitTorrentSession, SessionConfig
from repro.core.node import NodeConfig
from repro.core.persistence import node_to_dict
from repro.core.runtime import ProtocolRuntime, RuntimeConfig
from repro.core.votes import Vote
from repro.pss.base import PeerSamplingService
from repro.sim.engine import Engine
from repro.sim.rng import RngRegistry
from repro.traces.model import PeerProfile, Trace
from tests.reference_runtime import ReferenceRuntime
from tests import reference_ballotbox as ballots

MODERATION, VOTE = 0, 1
PIDS = [f"p{i:02d}" for i in range(24)]


class ScriptedPSS(PeerSamplingService):
    """Hands out the scripted partners in call order."""

    def __init__(self, registry, script: List[Optional[str]]):
        self.registry = registry
        self.script = list(script)

    def sample(self, requester: str) -> Optional[str]:
        return self.script.pop(0)


def build(runtime_cls, script, voters):
    """A runtime over 24 online peers (no protocol tick falls due) with
    an open experience gate and no VoxPopuli, so the plan's column fast
    paths decide every vote slot; ``voters`` each hold one vote."""
    trace = Trace(
        duration=3600.0,
        peers={pid: PeerProfile(peer_id=pid) for pid in PIDS},
        swarms={},
        events=[],
    )
    engine = Engine()
    rng = RngRegistry(5)
    session = BitTorrentSession(engine, trace, rng, config=SessionConfig())
    config = RuntimeConfig(
        moderation_interval=1e6,
        vote_interval=1e6,
        bartercast_interval=1e6,
        experience_threshold=0.0,
        node=NodeConfig(voxpopuli_enabled=False),
    )
    runtime = runtime_cls(
        session, rng, config=config, pss=ScriptedPSS(session.registry, script)
    )
    for pid in PIDS:
        runtime.bring_online(pid, 0.0)
    for i, pid in enumerate(voters):
        runtime.nodes[pid].cast_vote(f"m{i % 3}", Vote.POSITIVE, 0.0)
    return engine, runtime


def run_batch(runtime, entries):
    times = [t for t, _pid, _p in entries]
    pids = [pid for _t, pid, _p in entries]
    rows = [runtime.nodes[pid].row for pid in pids]
    runtime._vote_tick_batch(times, pids, rows, [p for _t, _pid, p in entries])


def run_scalar(engine, runtime, entries):
    for t, pid, p in entries:
        engine._now = t
        (runtime._moderation_tick if p == MODERATION else runtime._vote_tick)(pid)


def end_state(runtime):
    summary = runtime.run_summary()
    summary.pop("population")
    nodes = sorted(runtime.nodes.items())
    states = {pid: node_to_dict(node) for pid, node in nodes}
    rngs = {pid: node.rng.bit_generator.state for pid, node in nodes}
    return summary, states, rngs


def test_cast_inside_planned_run(monkeypatch):
    """A moderation exchange fires p01's vote intention mid-run; later
    in the run a merge-only slot (p01 with p03, whose one vote was
    queued) and a proved-empty slot (p04 with p01) both touch p01's row.
    Both must read p01's new list live, and the queued merges of the
    first must leave the queue."""
    from repro.core import gossip

    entries = [
        (100.0, "p05", VOTE),  # merge-only, settles before p01's slot
        (101.0, "p01", MODERATION),  # p00's moderation: p01's intention fires
        (102.0, "p01", VOTE),  # merge-only at plan time
        (103.0, "p04", VOTE),  # proved empty at plan time
    ] + [(104.0 + i, pid, VOTE) for i, pid in enumerate(PIDS[7:23])]
    script = ["p06", "p00", "p03", "p01"] + [
        PIDS[(i + 1) % 16 + 7] for i in range(16)
    ]
    voters = ["p03", "p05", "p09", "p20"]
    plans = []
    real_plan = gossip.plan

    def spy(rt, run):
        real_plan(rt, run)
        plans.append((run.planned.tolist(), list(run.q_slots)))

    def scenario(runtime_cls):
        engine, runtime = build(runtime_cls, script, voters)
        runtime.nodes["p00"].create_moderation("t-p00", "x", now=0.0)
        runtime.nodes["p01"].set_vote_intention("p00", Vote.POSITIVE)
        return engine, runtime

    engine, ref = scenario(ReferenceRuntime)
    run_scalar(engine, ref, entries)
    monkeypatch.setattr(gossip, "plan", spy)
    _engine, got = scenario(ProtocolRuntime)
    run_batch(got, entries)

    (planned, queued), = plans
    assert not any(planned[:4])  # neither slot is visited by the plan
    assert 0 in queued and 2 in queued and 3 not in queued
    for pid in ("p03", "p04"):  # p01's new vote reached both boxes
        assert ballots.vote_of(got.nodes[pid].ballot_box, "p01", "p00") is Vote.POSITIVE, pid
    assert end_state(got) == end_state(ref)


def test_planned_run_ends_at_its_last_entry():
    """The handler leaves the engine clock at the run's last entry even
    when the plan visits none of its slots: two merge-only slots (p01's
    vote into p00's and p02's boxes), then proved-empty ones to the end."""
    entries = [(200.0 + i, pid, VOTE) for i, pid in enumerate(PIDS[:20])]
    script = [PIDS[(i + 1) % 20] for i in range(20)]
    engine, runtime = build(ProtocolRuntime, script, ["p01"])
    engine._now = 150.0
    run_batch(runtime, entries)
    assert engine.now == entries[-1][0]
    assert runtime.run_summary()["nodes"]["votes_merged"] == 2
