"""Tests for the analysis package (sampling accuracy, convergence)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.convergence import time_to_fraction
from repro.analysis.sampling import (
    ballot_share_estimate,
    binomial_error_bound,
    mean_estimation_error,
)
from repro.core.ballotbox import BallotBox
from repro.core.votes import Vote, VoteEntry
from repro.metrics.timeseries import TimeSeries


class TestEstimate:
    def test_estimate_matches_counts(self):
        bb = BallotBox(b_max=10)
        bb.merge("v1", [VoteEntry("m", Vote.POSITIVE, 0.0)], 0.0)
        bb.merge("v2", [VoteEntry("m", Vote.NEGATIVE, 0.0)], 0.0)
        assert ballot_share_estimate(bb, "m") == 0.5

    def test_no_sample_is_none(self):
        assert ballot_share_estimate(BallotBox(b_max=10), "m") is None

    def test_mean_error_perfect_sample(self):
        bb = BallotBox(b_max=10)
        bb.merge("v1", [VoteEntry("m", Vote.POSITIVE, 0.0)], 0.0)
        bb.merge("v2", [VoteEntry("m", Vote.NEGATIVE, 0.0)], 0.0)
        assert mean_estimation_error([bb], {"m": 0.5}) == 0.0

    def test_mean_error_skips_unsampled(self):
        bb = BallotBox(b_max=10)
        assert mean_estimation_error([bb], {"m": 0.5}) == 0.0


class TestBound:
    def test_bound_formula(self):
        assert binomial_error_bound(100) == pytest.approx(0.05)
        assert binomial_error_bound(25) == pytest.approx(0.1)

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            binomial_error_bound(0)

    def test_monte_carlo_error_shrinks_with_sample_size(self):
        """Random sampling into ballot boxes: error ~ 1/sqrt(B_max)."""
        rng = np.random.default_rng(0)
        p_true = 0.7
        n_pop = 2000
        votes = [
            Vote.POSITIVE if rng.random() < p_true else Vote.NEGATIVE
            for _ in range(n_pop)
        ]

        def run(b_max, n_nodes=30):
            boxes = []
            for _ in range(n_nodes):
                bb = BallotBox(b_max=b_max)
                picks = rng.choice(n_pop, size=b_max, replace=False)
                for i in picks:
                    bb.merge(f"v{i}", [VoteEntry("m", votes[i], 0.0)], 0.0)
                boxes.append(bb)
            return mean_estimation_error(boxes, {"m": p_true})

        err_small = run(b_max=10)
        err_large = run(b_max=250)
        assert err_large < err_small
        # within ~3x of the binomial prediction
        assert err_large < 3 * binomial_error_bound(250)


def series(points):
    s = TimeSeries("x")
    for t, v in points:
        s.append(t, v)
    return s


class TestConvergence:
    def test_time_to_fraction(self):
        s = series([(0, 0.0), (10, 0.4), (20, 0.9)])
        assert time_to_fraction(s, 0.5) == 20.0
        assert time_to_fraction(s, 0.3) == 10.0
        assert time_to_fraction(s, 0.95) is None

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=100),
                st.floats(min_value=0, max_value=1),
            ),
            min_size=1,
            max_size=20,
        )
    )
    @settings(deadline=None)
    def test_property_time_to_fraction_is_a_sample_time(self, raw):
        # Deduplicate timestamps (recorders sample at distinct times;
        # value_at is only well-defined then), keeping the last value.
        dedup = {t: v for t, v in sorted(raw, key=lambda tv: tv[0])}
        s = series(sorted(dedup.items()))
        t = time_to_fraction(s, 0.5)
        if t is not None:
            assert t in set(s.times)
            assert s.value_at(t) >= 0.5
