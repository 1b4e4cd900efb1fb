"""Golden end state of a small bulk vote-tick run.

The 400-peer / 300 s ``steady_vote`` shape (the repo benchmark's
``tiny`` size of that workload): everyone online from t=0, a quarter of
the peers holding 30 votes, vote ticks every 60 s through the SoA
engine's batched handler — ``OraclePSS.sample_batch`` with batches as
large as the population (so self-draws are repaired in nearly every
batch) and row-to-row columnar ballot merges.  Its end state is pinned
per seed as one hash of ``run_summary()`` minus the scheduler's
``population`` section plus a strided sample of serialised nodes, so a
reordered PSS draw, a merge that stores a different vote or a changed
eviction fails here in a second instead of in a bench unit.

The hashes were recorded on the commit *before* vote lists were packed
at cast time and ``sample_batch`` repaired collisions in the stream
(PR 21); they are that change's "every simulated statistic is
identical" claim.  To re-record after an intended behaviour change, run
this file with ``-s`` and copy the printed values.

The summary hashes leave out BarterCast's cache counters (performance
state, which ``ServiceShard.identity_state`` drops too); they were
re-recorded without them on a commit whose output still matched the
earlier, counter-bearing hashes, so they carry the same claim.
"""

import hashlib
import json

import pytest

from repro.bittorrent.session import SessionConfig
from repro.core.node import NodeConfig
from repro.core.persistence import node_to_dict
from repro.core.runtime import RuntimeConfig
from repro.core.votes import Vote
from repro.experiments.common import SimulationStack
from repro.traces.model import PeerProfile, Trace

N_PEERS = 400
WINDOW = 300.0
MODERATORS = 60
VOTES_PER_VOTER = 30
STATE_SAMPLE = 64

GOLDEN = {
    7: "b5de219b90568813",
    11: "a6f3571113e790c2",
}


def steady_vote_end_state(seed: int) -> str:
    pids = [f"p{i:05d}" for i in range(N_PEERS)]
    trace = Trace(
        duration=WINDOW,
        peers={pid: PeerProfile(peer_id=pid) for pid in pids},
        swarms={},
        events=[],
    )
    stack = SimulationStack.build(
        trace,
        seed=seed,
        session_config=SessionConfig(round_interval=1e9),
        runtime_config=RuntimeConfig(
            node=NodeConfig(b_min=1, b_max=50, v_max=10, voxpopuli_enabled=False),
            moderation_interval=1e9,
            vote_interval=60.0,
            bartercast_interval=1e9,
            experience_threshold=0.0,
            population_engine="soa",
            columnar_state="on",
        ),
    )
    runtime = stack.runtime
    mods = pids[:MODERATORS]
    for i, pid in enumerate(pids):
        node = runtime.ensure_node(pid)
        if i % 4 == 0:
            for j in range(VOTES_PER_VOTER):
                m = mods[(i + j) % len(mods)]
                if m != pid:
                    vote = Vote.POSITIVE if (i + j) % 3 else Vote.NEGATIVE
                    node.cast_vote(m, vote, 0.0)
        runtime.bring_online(pid, 0.0)
    stack.session.start()
    stack.engine.run_until(WINDOW)

    summary = runtime.run_summary()
    population = summary.pop("population")  # describes the scheduler
    # cache counters are performance state, as in ServiceShard.identity_state
    summary["bartercast"] = {"exchanges": summary["bartercast"]["exchanges"]}
    assert population["ticks_by_protocol"]["vote"] > N_PEERS
    assert summary["nodes"]["votes_merged"] > 0
    stride = max(1, len(pids) // STATE_SAMPLE)
    states = [node_to_dict(runtime.nodes[pid]) for pid in pids[::stride]]
    sha = hashlib.sha256()
    for part in (summary, states):
        sha.update(json.dumps(part, sort_keys=True, default=float).encode())
    return sha.hexdigest()[:16]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_steady_vote_end_state_is_pinned(seed):
    state = steady_vote_end_state(seed)
    print(f"\n    {seed}: {state!r},")
    assert state == GOLDEN[seed]
