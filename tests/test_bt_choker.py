"""Tests for the tit-for-tat choker."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bittorrent.choker import Choker, ChokerConfig


def make(seed=0, **cfg):
    return Choker(ChokerConfig(**cfg), np.random.default_rng(seed))


def test_config_validation():
    with pytest.raises(ValueError):
        ChokerConfig(regular_slots=-1)
    with pytest.raises(ValueError):
        ChokerConfig(regular_slots=0, optimistic_slots=0)
    with pytest.raises(ValueError):
        ChokerConfig(optimistic_rounds=0)


def test_no_interested_no_unchoke():
    choker = make()
    assert choker.select([], {}, seeding=False) == []


def test_few_interested_all_unchoked():
    choker = make(regular_slots=3, optimistic_slots=1)
    assert choker.select(["a", "b"], {}, seeding=False) == ["a", "b"]


def test_tit_for_tat_prefers_fast_uploaders():
    choker = make(regular_slots=2, optimistic_slots=0)
    interested = ["a", "b", "c", "d"]
    received = {"a": 100.0, "b": 500.0, "c": 50.0, "d": 400.0}
    assert set(choker.select(interested, received, seeding=False)) == {"b", "d"}


def test_optimistic_slot_gives_slow_peer_a_chance():
    """Over many rotations every non-regular peer gets optimistically
    unchoked at some point."""
    choker = make(seed=2, regular_slots=1, optimistic_slots=1, optimistic_rounds=1)
    interested = ["fast", "slow1", "slow2", "slow3"]
    received = {"fast": 1000.0}
    seen = set()
    for _ in range(60):
        picked = choker.select(interested, received, seeding=False)
        assert picked[0] == "fast"
        seen.update(picked[1:])
    assert seen == {"slow1", "slow2", "slow3"}


def test_optimistic_pick_stable_between_rotations():
    choker = make(seed=3, regular_slots=1, optimistic_slots=1, optimistic_rounds=5)
    interested = ["fast", "s1", "s2", "s3", "s4"]
    received = {"fast": 1000.0}
    picks = [choker.select(interested, received, seeding=False)[1] for _ in range(5)]
    assert len(set(picks)) == 1  # held for optimistic_rounds rounds


def test_seed_round_robin_covers_everyone():
    choker = make(regular_slots=2, optimistic_slots=0)
    interested = ["a", "b", "c", "d", "e"]
    seen = []
    for _ in range(5):
        seen.extend(choker.select(interested, {}, seeding=True))
    assert set(seen) == set(interested)


def test_seed_ignores_reciprocity():
    choker = make(regular_slots=1, optimistic_slots=0)
    interested = ["a", "b", "c"]
    received = {"c": 9999.0}
    picks = set()
    for _ in range(3):
        picks.update(choker.select(interested, received, seeding=True))
    assert picks == {"a", "b", "c"}  # round-robin, not rate-ranked


def test_deterministic_tie_break_on_peer_id():
    choker = make(regular_slots=2, optimistic_slots=0)
    interested = ["z", "a", "m", "b"]
    picked = choker.select(interested, {}, seeding=False)
    assert picked == ["a", "b"]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.one_of(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=2**31 + 5),
        st.integers(min_value=2**32 - 2, max_value=2**33),
    ),
    st.integers(min_value=0, max_value=3),
)
def test_one_slot_pick_equals_choice_value_and_state(seed, pool, warmup):
    """The optimistic slot's one-of-``pool`` draw is ``integers(0,
    pool)``, standing in for ``choice(pool, size=1, replace=False)``:
    same value, and the generator left in the same state — buffered
    half-word included (``warmup`` 32-bit draws leave one behind) — so
    every later draw of the swarm stream is unchanged."""
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    for rng in (fast, slow):
        rng.integers(0, 1000, size=warmup)
    value = fast.integers(0, pool)
    assert value == slow.choice(pool, size=1, replace=False)[0]
    assert fast.bit_generator.state == slow.bit_generator.state


def test_optimistic_pick_draws_as_choice_did():
    """The choker's one-slot rotation moves its stream exactly as a
    one-element ``choice`` would."""
    choker = make(seed=5, regular_slots=1, optimistic_slots=1)
    ref = np.random.default_rng(5)
    pool = ["b", "c", "d", "e"]
    picked = choker.select(["a"] + pool, {"a": 9.0}, seeding=False)
    expected = pool[int(ref.choice(len(pool), size=1, replace=False)[0])]
    assert picked == ["a", expected]
    assert choker._rng.bit_generator.state == ref.bit_generator.state
