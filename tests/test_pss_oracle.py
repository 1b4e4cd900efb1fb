"""Tests for OraclePSS."""

import random

import numpy as np
import pytest

from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS


def make(n=10, seed=0):
    reg = OnlineRegistry()
    for i in range(n):
        reg.set_online(f"p{i}")
    return reg, OraclePSS(reg, np.random.default_rng(seed))


def test_never_returns_requester():
    _, pss = make(5)
    for _ in range(200):
        assert pss.sample("p0") != "p0"


def test_only_returns_online_peers():
    reg, pss = make(5)
    reg.set_offline("p3")
    for _ in range(200):
        assert pss.sample("p0") != "p3"


def test_returns_none_when_alone():
    reg = OnlineRegistry()
    reg.set_online("solo")
    pss = OraclePSS(reg, np.random.default_rng(0))
    assert pss.sample("solo") is None


def test_returns_none_when_empty():
    reg = OnlineRegistry()
    pss = OraclePSS(reg, np.random.default_rng(0))
    assert pss.sample("anyone") is None


def test_offline_requester_can_still_sample_others():
    reg, pss = make(3)
    reg.set_offline("p0")
    got = {pss.sample("p0") for _ in range(50)}
    assert got <= {"p1", "p2"}
    assert got


def test_sampling_is_roughly_uniform():
    _, pss = make(6, seed=42)
    counts = {f"p{i}": 0 for i in range(6)}
    n = 6000
    for _ in range(n):
        counts[pss.sample("p0")] += 1
    assert counts["p0"] == 0
    expected = n / 5
    for pid in ["p1", "p2", "p3", "p4", "p5"]:
        assert abs(counts[pid] - expected) < 0.15 * expected


def test_deterministic_given_same_rng_seed():
    _, pss1 = make(10, seed=7)
    _, pss2 = make(10, seed=7)
    seq1 = [pss1.sample("p0") for _ in range(20)]
    seq2 = [pss2.sample("p0") for _ in range(20)]
    assert seq1 == seq2


# ----------------------------------------------------------------------
# sample_batch: the scalar loop's results *and* generator state
# ----------------------------------------------------------------------
class _CountingRng:
    """A Generator proxy that records the size of every draw."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.sizes = []

    def integers(self, low, high, size=None):
        self.sizes.append(1 if size is None else size)
        return self._rng.integers(low, high, size=size)


def _assert_batch_is_scalar_loop(n, seed, requesters, offline=()):
    pair = []
    for _ in range(2):
        reg = OnlineRegistry()
        for i in range(n):
            reg.set_online(f"p{i}")
        for pid in offline:
            reg.set_offline(pid)
        rng = _CountingRng(seed)
        pair.append((OraclePSS(reg, rng), rng))
    (batch_pss, batch_rng), (scalar_pss, scalar_rng) = pair
    # Two calls in a row: the second starts from whatever state (and
    # buffered half-word) the first left behind.
    for reqs in (requesters, requesters[::-1]):
        assert batch_pss.sample_batch(reqs) == [scalar_pss.sample(r) for r in reqs]
        assert batch_rng.bit_generator.state == scalar_rng.bit_generator.state
    return batch_rng.sizes, scalar_rng.sizes


@pytest.mark.parametrize("n", [2, 3, 5, 50, 2000])
def test_sample_batch_matches_scalar_loop_and_generator_state(n):
    rnd = random.Random(n)
    sizes = [2, 3, 17, 400] + ([5000] if n in (2, 2000) else [])
    for trial, m in enumerate(sizes * 3):
        # a due batch as the engine builds it (distinct online peers in
        # some order), then repeated and offline requesters mixed in
        online = [f"p{i}" for i in range(n)]
        offline = rnd.sample(online, min(2, n - 2))
        reqs = [online[i % n] for i in rnd.sample(range(max(n, m)), m)]
        for _ in range(m // 5):
            reqs[rnd.randrange(m)] = rnd.choice(reqs)
            reqs[rnd.randrange(m)] = f"ghost{rnd.randrange(3)}"
        batch_sizes, scalar_sizes = _assert_batch_is_scalar_loop(
            n, 1000 * n + trial, reqs, offline
        )
        assert sum(batch_sizes) == sum(scalar_sizes)
        if m >= 17:
            assert len(batch_sizes) < len(scalar_sizes)  # it did batch


def test_sample_batch_self_draw_on_last_element_draws_exactly_one_more():
    """Only the last requester can draw itself (the others are not
    online, so no index is theirs): when it does, the stream is spent
    with one requester left and the repair may draw exactly one value
    at a time, never a second batch."""
    m = 40
    reqs = ["ghost"] * (m - 1) + ["p0"]
    repaired = 0
    for seed in range(40):
        reg = OnlineRegistry()
        reg.set_online("p0")
        reg.set_online("p1")
        rng = _CountingRng(seed)
        scalar_rng = np.random.default_rng(seed)
        scalar = OraclePSS(reg, scalar_rng)
        assert OraclePSS(reg, rng).sample_batch(reqs) == [scalar.sample(r) for r in reqs]
        assert rng.bit_generator.state == scalar_rng.bit_generator.state
        assert rng.sizes[0] == m and set(rng.sizes[1:]) <= {1}
        repaired += len(rng.sizes) > 1
    assert 5 < repaired < 35  # a fair coin per seed


class _StuckRng:
    """Keeps returning one index; counts the values handed out."""

    def __init__(self, value):
        self.value = value
        self.drawn = 0

    def integers(self, low, high, size=None):
        if size is None:
            self.drawn += 1
            return self.value
        self.drawn += size
        return np.full(size, self.value, dtype=np.int64)


def test_sample_batch_gives_none_after_64_self_draws_like_sample():
    reg, _ = make(3)
    stuck = reg.indices_of(["p1"])[0]
    scalar_rng, batch_rng = _StuckRng(stuck), _StuckRng(stuck)
    reqs = ["p1", "p0", "p1", "p1"]
    expected = [OraclePSS(reg, scalar_rng).sample(r) for r in reqs]
    assert expected == [None, "p1", None, None]
    assert OraclePSS(reg, batch_rng).sample_batch(reqs) == expected
    assert batch_rng.drawn == scalar_rng.drawn == 3 * 64 + 1
