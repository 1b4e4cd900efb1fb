"""Golden end state of a small Fig 6 run.

The 30-peer / 10-hour Fig 6 shape (the repo benchmark's ``tiny``
``paper_fig6`` size) runs the whole stack — piece-level swarms, the
transfer ledger, BarterCast gossip and flows, the experience gate,
vote sampling — in about a second.  Its end state is pinned here as
three hashes per seed, so any reordering of RNG draws, of the round's
link order or of the order direct observations reach the subjective
graphs fails in tier-1 instead of in a ten-second benchmark unit.

The hashes were recorded on the commit *before* the swarm round was
batched and direct edges were folded on read (PR 14); they are the
"every simulated statistic is identical" claim of that change.  To
re-record after an intended behaviour change, run this file with
``-s`` and copy the printed values.

The ledger and graph hashes see bytes, not pieces.  :data:`SWARMS`
pins the piece level of the same runs: for every member of every
swarm the pieces it holds, when it completed, its in-flight pieces,
partial-piece bytes and last round's reception, plus each picker's
availability and each swarm RNG's position — so a pick that moves to
another piece of equal cost, or an extra draw, fails here too.  Most
peers are offline at the end, so it pins a run stopped half way as
well, with transfers in flight.  It was recorded before possession
moved from numpy rows to int bitsets.
"""

import hashlib
import json
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.core.runtime import RuntimeConfig
from repro.experiments.common import SimulationStack
from repro.experiments.vote_sampling import VoteSamplingConfig, VoteSamplingExperiment
from repro.metrics.ordering import correct_order_fraction
from repro.sim.units import HOUR
from repro.traces.generator import TraceGenerator

#: the benchmark replays one fixed trace and lets the seed draw
#: everything the protocols randomise on top of it
TRACE_SEED = 7

GOLDEN = {
    7: {
        "summary": "4ce12e62e3d5a931",
        "ledger": "2b5afa9daca0428c",
        "graphs": "ad4c724d42e53bf8",
    },
    11: {
        "summary": "87ba0c8974a4a1b5",
        "ledger": "1c255b073f118908",
        "graphs": "b1e9e52cac3dd286",
    },
}


#: piece-level end state of the same runs (see the module docstring)
SWARMS = {
    7: "f2c6ba611e7932d1",
    11: "6dc6a8c5a046d25b",
}


def _sha(part) -> str:
    return hashlib.sha256(
        json.dumps(part, sort_keys=True, default=float).encode()
    ).hexdigest()[:16]


@lru_cache(maxsize=None)
def fig6_run(seed: int, until=None):
    cfg = VoteSamplingConfig(seed=seed, duration=10.0 * HOUR)
    trace_cfg = replace(cfg.trace, n_peers=30, duration=cfg.duration)
    trace = TraceGenerator(trace_cfg, seed=TRACE_SEED).generate(0)
    stack = SimulationStack.build(
        trace,
        seed=seed,
        runtime_config=RuntimeConfig(
            node=cfg.node, experience_threshold=cfg.experience_threshold
        ),
        sample_interval=cfg.sample_interval,
    )
    order = VoteSamplingExperiment(cfg)._setup_workload(stack, trace)
    nodes = stack.runtime.nodes
    stack.recorder.add_probe(
        "correct_fraction",
        lambda: correct_order_fraction(
            nodes, order, include=[pid for pid in trace.peers if pid in nodes]
        ),
    )
    stack.run(until)
    return stack, trace


def fig6_end_state(seed: int) -> dict:
    stack, trace = fig6_run(seed)
    summary = stack.runtime.run_summary()
    summary.pop("population")  # describes the scheduler, not the protocol
    series = [float(v) for v in stack.recorder.get("correct_fraction").values]
    bartercast = stack.runtime.bartercast
    graphs = []
    for pid in sorted(trace.peers):
        graph = bartercast.graph_of(pid)
        # edges() is in insertion order and dense()[0] is the graph's
        # node order: both move if observations are folded in another
        # order, even when the weights end up equal.  The literal 0
        # stands where the recorded tuples held the eviction count,
        # which was 0 in this unbounded run, so the pinned hashes hold.
        graphs.append([pid, graph.edges(), graph.dense()[0], 0])
    return {
        "summary": _sha([summary, series]),
        "ledger": _sha(stack.session.ledger.edges()),
        "graphs": _sha(graphs),
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_fig6_end_state_is_pinned(seed):
    state = fig6_end_state(seed)
    print(f"\n    {seed}: {json.dumps(state, indent=8)},")
    assert state == GOLDEN[seed]


def swarm_state(stack) -> list:
    swarms = []
    for sid, swarm in sorted(stack.session.swarms.items()):
        members = [
            [
                pid,
                member.active,
                member.bitfield.held_indices(),
                member.completed_at,
                sorted(member.in_flight.items()),
                sorted(member.accum.items()),
                sorted(member.received_last_round.items()),
            ]
            for pid, member in sorted(swarm.members.items())
        ]
        swarms.append(
            [
                sid,
                swarm.rounds_run,
                members,
                [int(a) for a in swarm.picker.availability],
                swarm._rng.bit_generator.state,
            ]
        )
    return swarms


def swarm_end_state(seed: int) -> str:
    half_way = fig6_run(seed, 5.0 * HOUR)[0]
    return _sha([swarm_state(fig6_run(seed)[0]), swarm_state(half_way)])


@pytest.mark.parametrize("seed", sorted(SWARMS))
def test_fig6_swarm_end_state_is_pinned(seed):
    state = swarm_end_state(seed)
    print(f"\n    {seed}: {state!r},")
    assert state == SWARMS[seed]
