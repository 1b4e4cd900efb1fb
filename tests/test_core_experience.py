"""Tests for the experience functions."""

import numpy as np
import pytest

from repro.bartercast.protocol import BarterCastService
from repro.core.ballotbox import BallotBox
from repro.core.experience import (
    AdaptiveThresholdExperience,
    AlwaysExperienced,
    ThresholdExperience,
)
from repro.core.votes import Vote, VoteEntry
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS
from repro.sim.units import MB


def make_bartercast(peers=("a", "b", "c")):
    reg = OnlineRegistry()
    for p in peers:
        reg.set_online(p)
    return BarterCastService(OraclePSS(reg, np.random.default_rng(0)))


class TestThresholdExperience:
    def test_below_threshold_inexperienced(self):
        bc = make_bartercast()
        e = ThresholdExperience(bc, threshold=5 * MB)
        bc.local_transfer("b", "a", 4 * MB, now=0.0)
        assert not e.is_experienced("a", "b")

    def test_at_threshold_experienced(self):
        bc = make_bartercast()
        e = ThresholdExperience(bc, threshold=5 * MB)
        bc.local_transfer("b", "a", 5 * MB, now=0.0)
        assert e.is_experienced("a", "b")

    def test_asymmetric(self):
        """E_a(b) can hold while E_b(a) does not — E is non-symmetric."""
        bc = make_bartercast()
        e = ThresholdExperience(bc, threshold=5 * MB)
        bc.local_transfer("b", "a", 10 * MB, now=0.0)
        assert e.is_experienced("a", "b")
        assert not e.is_experienced("b", "a")

    def test_self_never_experienced(self):
        bc = make_bartercast()
        e = ThresholdExperience(bc, threshold=0.0)
        assert not e.is_experienced("a", "a")

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            ThresholdExperience(make_bartercast(), threshold=-1.0)

    def test_two_hop_credit_counts(self):
        """b gains experience with a through an intermediary c."""
        bc = make_bartercast()
        e = ThresholdExperience(bc, threshold=5 * MB)
        bc.local_transfer("b", "c", 10 * MB, now=0.0)
        bc.local_transfer("c", "a", 10 * MB, now=1.0)
        # a's subjective graph must learn b→c via gossip
        for t in range(40):
            for p in ("a", "b", "c"):
                bc.gossip_tick(p, float(t))
        assert e.is_experienced("a", "b")


class TestAlwaysExperienced:
    def test_everyone_but_self(self):
        e = AlwaysExperienced()
        assert e.is_experienced("a", "b")
        assert not e.is_experienced("a", "a")


class TestAdaptive:
    def box(self, votes):
        bb = BallotBox(b_max=100)
        for t, (voter, mod, vote) in enumerate(votes):
            bb.merge(voter, [VoteEntry(mod, vote, float(t))], now=float(t))
        return bb

    def test_validation(self):
        bc = make_bartercast()
        with pytest.raises(ValueError):
            AdaptiveThresholdExperience(bc, d_max=2.0)
        with pytest.raises(ValueError):
            AdaptiveThresholdExperience(bc, step=0.0)

    def test_dispersion_zero_on_agreement(self):
        bb = self.box([("v1", "m", Vote.POSITIVE), ("v2", "m", Vote.POSITIVE)])
        assert AdaptiveThresholdExperience.dispersion(bb) == 0.0

    def test_dispersion_max_on_split(self):
        bb = self.box([("v1", "m", Vote.POSITIVE), ("v2", "m", Vote.NEGATIVE)])
        assert AdaptiveThresholdExperience.dispersion(bb) == pytest.approx(1.0)

    def test_dispersion_ignores_single_vote_moderators(self):
        bb = self.box([("v1", "m", Vote.POSITIVE)])
        assert AdaptiveThresholdExperience.dispersion(bb) == 0.0

    def test_dispersion_is_worst_case_over_moderators(self):
        """Unanimous spam on other names must not dilute the signal of
        one contested moderator."""
        bb = self.box(
            [
                ("v1", "spam", Vote.POSITIVE),
                ("v2", "spam", Vote.POSITIVE),
                ("v3", "spam", Vote.POSITIVE),
                ("v4", "contested", Vote.POSITIVE),
                ("v5", "contested", Vote.NEGATIVE),
            ]
        )
        assert AdaptiveThresholdExperience.dispersion(bb) == pytest.approx(1.0)

    def test_threshold_starts_at_zero_and_everyone_experienced(self):
        e = AdaptiveThresholdExperience(make_bartercast())
        assert e.threshold_for("a") == 0.0
        assert e.is_experienced("a", "b")

    def test_high_dispersion_raises_threshold(self):
        bc = make_bartercast()
        e = AdaptiveThresholdExperience(bc, d_max=0.5, step=1 * MB)
        split = self.box([("v1", "m", Vote.POSITIVE), ("v2", "m", Vote.NEGATIVE)])
        t1 = e.update("a", split)
        assert t1 == 1 * MB
        t2 = e.update("a", split)
        assert t2 == 2 * MB

    def test_low_dispersion_lowers_threshold_to_floor(self):
        bc = make_bartercast()
        e = AdaptiveThresholdExperience(bc, d_max=0.5, step=1 * MB)
        split = self.box([("v1", "m", Vote.POSITIVE), ("v2", "m", Vote.NEGATIVE)])
        calm = self.box([("v1", "m", Vote.POSITIVE), ("v2", "m", Vote.POSITIVE)])
        e.update("a", split)
        e.update("a", calm)
        assert e.threshold_for("a") == 0.0
        e.update("a", calm)
        assert e.threshold_for("a") == 0.0  # floored

    def test_threshold_capped_at_t_max(self):
        bc = make_bartercast()
        e = AdaptiveThresholdExperience(bc, d_max=0.1, step=10 * MB, t_max=15 * MB)
        split = self.box([("v1", "m", Vote.POSITIVE), ("v2", "m", Vote.NEGATIVE)])
        e.update("a", split)
        e.update("a", split)
        assert e.threshold_for("a") == 15 * MB

    def test_raised_threshold_gates_inexperienced(self):
        bc = make_bartercast()
        e = AdaptiveThresholdExperience(bc, d_max=0.5, step=5 * MB)
        split = self.box([("v1", "m", Vote.POSITIVE), ("v2", "m", Vote.NEGATIVE)])
        e.update("a", split)
        assert not e.is_experienced("a", "stranger")
        bc.local_transfer("contributor", "a", 6 * MB, now=0.0)
        assert e.is_experienced("a", "contributor")

    def test_per_node_thresholds_independent(self):
        bc = make_bartercast()
        e = AdaptiveThresholdExperience(bc, d_max=0.5, step=1 * MB)
        split = self.box([("v1", "m", Vote.POSITIVE), ("v2", "m", Vote.NEGATIVE)])
        e.update("a", split)
        assert e.threshold_for("a") == 1 * MB
        assert e.threshold_for("b") == 0.0
