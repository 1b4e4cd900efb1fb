"""Integration tests for the adaptive-T runtime behaviour (§VII).

Covers the dispersion → threshold → ballot-re-screening loop that the
A1 ablation exercises at scale, on a deterministic micro-setup.
"""

import numpy as np

from repro.bartercast.protocol import BarterCastService
from repro.core.experience import AdaptiveThresholdExperience
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import Vote, VoteEntry
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS
from repro.sim.units import MB
from tests.reference_runtime import receive_votes


def make_world(peers=("honest", "core", "colluder")):
    reg = OnlineRegistry()
    for p in peers:
        reg.set_online(p)
    bc = BarterCastService(OraclePSS(reg, np.random.default_rng(0)))
    exp = AdaptiveThresholdExperience(bc, d_max=0.5, step=5 * MB)
    return bc, exp


def rescreen(node, exp):
    """What ProtocolRuntime._adaptive_tick does after an update."""
    before = exp.threshold_for(node.peer_id)
    after = exp.update(node.peer_id, node.ballot_box)
    if after > before:
        for voter in node.ballot_box.voters():
            if not exp.is_experienced(node.peer_id, voter):
                node.ballot_box.remove_voter(voter)
    return after


def test_unanimous_spam_is_invisible_to_dispersion():
    """A purely positive spam wave creates no per-moderator
    disagreement, so the adaptive controller (correctly, per its
    design) does not fire — a limitation the A1 bench documents."""
    bc, exp = make_world()
    node = VoteSamplingNode("honest", NodeConfig(), np.random.default_rng(0))
    for i in range(6):
        receive_votes(node,
            f"c{i}", [VoteEntry("M0", Vote.POSITIVE, 0.0)], 1.0, experienced=True
        )
    assert rescreen(node, exp) == 0.0
    assert node.ballot_box.num_unique_users() == 6


def test_contested_moderator_triggers_rescreen():
    """Slander (colluders −M1, core +M1) creates dispersion; the
    threshold rises and voters without real contribution are purged."""
    bc, exp = make_world()
    # core really uploaded to honest; colluder did not
    bc.local_transfer("core", "honest", 10 * MB, now=0.0)
    node = VoteSamplingNode("honest", NodeConfig(), np.random.default_rng(0))
    receive_votes(node, "core", [VoteEntry("M1", Vote.POSITIVE, 0.0)], 1.0, True)
    receive_votes(node, "colluder", [VoteEntry("M1", Vote.NEGATIVE, 0.0)], 1.0, True)
    assert node.ballot_box.num_unique_users() == 2

    t = rescreen(node, exp)
    assert t == 5 * MB
    # colluder (no contribution) purged; core (10 MB ≥ T) kept
    assert node.ballot_box.voters() == ["core"]


def test_threshold_relaxes_after_calm_returns():
    bc, exp = make_world()
    bc.local_transfer("core", "honest", 10 * MB, now=0.0)
    node = VoteSamplingNode("honest", NodeConfig(), np.random.default_rng(0))
    receive_votes(node, "core", [VoteEntry("M1", Vote.POSITIVE, 0.0)], 1.0, True)
    receive_votes(node, "colluder", [VoteEntry("M1", Vote.NEGATIVE, 0.0)], 1.0, True)
    rescreen(node, exp)
    assert exp.threshold_for("honest") == 5 * MB
    # after the purge the remaining box is unanimous → T decays
    rescreen(node, exp)
    assert exp.threshold_for("honest") == 0.0


def test_rescreen_only_on_increase():
    """A decaying threshold must not purge anybody."""
    bc, exp = make_world()
    node = VoteSamplingNode("honest", NodeConfig(), np.random.default_rng(0))
    receive_votes(node, "v", [VoteEntry("M1", Vote.POSITIVE, 0.0)], 1.0, True)
    exp._thresholds["honest"] = 5 * MB  # as if previously raised
    t = rescreen(node, exp)  # calm box → decay to 0
    assert t == 0.0
    assert node.ballot_box.voters() == ["v"]
