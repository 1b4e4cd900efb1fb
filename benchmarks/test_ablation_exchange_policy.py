"""A2 — vote-exchange selection policies (§V-A).

The paper keeps 50 votes per exchange chosen by a recency+random mix.
With only three moderators in the Fig 6 workload every policy sends
everything (the list fits the budget), so this ablation also runs a
*many-moderator* stress variant where the budget binds: nodes vote on
dozens of moderators and the policy decides which votes propagate.
"""

import numpy as np
import pytest
from conftest import run_once, scaled_duration, scaled_trace

from repro.core.columnar import ColumnarStateStore
from repro.core.votes import LocalVoteList, Vote
from repro.experiments.ablations import ablation_exchange_policy
from repro.experiments.vote_sampling import VoteSamplingConfig
from tests.reference_runtime import select_for_exchange


def vote_list():
    """A list on row ``me`` of a store of its own, as a node holds it."""
    store = ColumnarStateStore()
    return LocalVoteList(store, store.ensure_row("me"))


@pytest.fixture(scope="module")
def a2_results():
    duration = scaled_duration(full_days=7, quick_hours=30)
    cfg = VoteSamplingConfig(
        seed=6,
        duration=duration,
        sample_interval=3 * 3600.0,
        trace=scaled_trace(duration, quick_peers=50, quick_swarms=6),
    )
    return ablation_exchange_policy(cfg)


def test_a2_regenerate(benchmark, a2_results):
    def report():
        print("\nA2 — exchange policies on the Fig 6 workload")
        for label, r in a2_results.items():
            s = r.get("correct_fraction")
            print(f"  {label:<15} final={s.final():.3f} mean={s.values.mean():.3f}")
        return a2_results

    results = run_once(benchmark, report)
    assert set(results) == {"recency_random", "recency", "random"}


def test_a2_all_policies_converge(a2_results):
    """With a tiny moderator set the cap never binds, so every policy
    should reach comparable correctness — the paper's point is that the
    combined policy is *safe*, not that the others fail here."""
    for label, r in a2_results.items():
        assert r.get("correct_fraction").final() >= 0.3, label


def test_a2_policies_differ_when_budget_binds():
    """Stress: 200 moderators, budget 10.  Pure recency starves old
    votes; pure random starves fresh ones; the mix sends both."""
    rng = np.random.default_rng(0)
    vl = vote_list()
    for i in range(200):
        vl.cast(f"m{i:03d}", Vote.POSITIVE, float(i))
    newest = {f"m{i:03d}" for i in range(195, 200)}
    oldest = {f"m{i:03d}" for i in range(0, 100)}

    recency = {e.moderator_id for e in select_for_exchange(vl, 10, rng, "recency")}
    assert newest <= recency
    assert not (recency & oldest)

    trials = [
        {e.moderator_id for e in select_for_exchange(vl, 10, np.random.default_rng(s), "random")}
        for s in range(20)
    ]
    assert any(t & oldest for t in trials)

    mixed = {e.moderator_id for e in select_for_exchange(vl, 10, rng, "recency_random")}
    assert len(mixed & newest) >= 5  # the recency half
