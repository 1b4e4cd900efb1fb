"""Tests for the push-sum aggregation baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.aggregation import PushSumAggregation


def make(values, seed=0, liars=(), lie_value=100.0):
    return PushSumAggregation(
        values, np.random.default_rng(seed), liars=liars, lie_value=lie_value
    )


def test_empty_population_rejected():
    with pytest.raises(ValueError):
        make({})


def test_unknown_liar_rejected():
    with pytest.raises(ValueError):
        make({"a": 1.0}, liars=["ghost"])


def test_single_node_estimate_is_its_value():
    agg = make({"a": 0.7})
    assert agg.nodes["a"].estimate == pytest.approx(0.7)


def test_honest_convergence_to_average():
    values = {f"n{i}": (1.0 if i % 3 else -1.0) for i in range(60)}
    agg = make(values, seed=1)
    agg.run(40)
    assert agg.mean_absolute_error() < 0.02


def test_convergence_is_fast():
    """'Faster and more accurate' — error collapses within tens of
    rounds, far quicker than BallotBox needs to fill a 100-peer sample."""
    values = {f"n{i}": float(i % 2) for i in range(100)}
    agg = make(values, seed=2)
    agg.run(10)
    err10 = agg.mean_absolute_error()
    agg.run(30)
    assert agg.mean_absolute_error() < err10
    assert agg.mean_absolute_error() < 0.05


def test_mass_conservation_without_liars():
    values = {f"n{i}": float(i) for i in range(20)}
    agg = make(values, seed=3)
    agg.run(25)
    total_sum = sum(n.sum for n in agg.nodes.values())
    total_weight = sum(n.weight for n in agg.nodes.values())
    assert total_sum == pytest.approx(sum(values.values()))
    assert total_weight == pytest.approx(len(values))


def test_single_liar_corrupts_everyone():
    """The §V-A vulnerability: one liar shifts every node's estimate."""
    values = {f"n{i}": 0.0 for i in range(50)}
    values["liar"] = 0.0
    agg = make(values, seed=4, liars=["liar"], lie_value=1000.0)
    agg.run(40)
    # truth is 0.0, but fabricated mass pushed estimates far away
    assert agg.mean_absolute_error() > 1.0


def test_more_lying_more_damage():
    values = {f"n{i}": (1.0 if i % 2 else -1.0) for i in range(50)}
    small = make(values, seed=5, liars=["n0"], lie_value=10.0)
    big = make(values, seed=5, liars=["n0"], lie_value=10_000.0)
    small.run(30)
    big.run(30)
    assert big.mean_absolute_error() > small.mean_absolute_error()


@given(st.integers(2, 40), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_property_honest_estimates_bounded_by_value_range(n, seed):
    rng = np.random.default_rng(seed)
    values = {f"n{i}": float(rng.uniform(-1, 1)) for i in range(n)}
    agg = PushSumAggregation(values, rng)
    agg.run(15)
    lo, hi = min(values.values()), max(values.values())
    for est in agg.estimates().values():
        assert lo - 1e-6 <= est <= hi + 1e-6


# ----------------------------------------------------------------------
# Regression: ground truth must exclude liars' fabricated values
# ----------------------------------------------------------------------
def test_true_average_excludes_liars():
    """mean_absolute_error promises the *honest* average; pre-fix,
    true_average averaged over all declared values, liars included, so
    a liar whose declared value differs from the honest mean silently
    shifted the yardstick."""
    values = {f"n{i}": 0.0 for i in range(20)}
    values["liar"] = 50.0  # the liar's declared value is itself a lie
    agg = make(values, seed=6, liars=["liar"], lie_value=1000.0)
    assert agg.true_average == pytest.approx(0.0)  # pre-fix: 50/21


def test_mae_under_attack_was_understated():
    """Pre-fix the liar's declared value dragged true_average toward
    the fabrication, so every honest node's measured error shrank —
    MAE against the honest truth must exceed MAE against the old
    liar-included average."""
    values = {f"n{i}": 0.0 for i in range(20)}
    values["liar"] = 50.0
    fixed = make(values, seed=7, liars=["liar"], lie_value=1000.0)
    legacy = PushSumAggregation(
        values,
        np.random.default_rng(7),
        liars=["liar"],
        lie_value=1000.0,
        include_liars=True,
    )
    fixed.run(30)
    legacy.run(30)
    # identical dynamics, different yardstick
    assert fixed.estimates() == legacy.estimates()
    assert legacy.true_average == pytest.approx(50 / 21)
    assert fixed.mean_absolute_error() > legacy.mean_absolute_error()


def test_all_liar_population_requires_escape_hatch():
    with pytest.raises(ValueError, match="include_liars"):
        make({"a": 1.0}, liars=["a"])
    agg = PushSumAggregation(
        {"a": 1.0}, np.random.default_rng(0), liars=["a"], include_liars=True
    )
    assert agg.true_average == pytest.approx(1.0)
