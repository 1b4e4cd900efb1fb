"""Golden pollution curve of a small Fig 8 run.

A 40-peer / 6-hour flash-crowd attack through
:class:`SpamAttackExperiment`: an experienced core of 10, a registered
crowd of 20 ``SpamColluderNode``\\ s on a duty cycle, and the default
``ThresholdExperience`` gate at T = 5 MB.  The ``polluted_fraction``
series, the final core / newcomer pollution and ``run_summary()``
(minus the scheduler's own ``population`` section) are pinned per
seed, so a change to how registered nodes tick, to the gate or to the
VoxPopuli channel fails here in about a second.

The hashes were recorded on the commit *before* the runtime lost its
per-peer ``PeriodicProcess`` scheduler and dict ballot boxes; they are
that change's "Fig 8 prints the same curve" claim.  To re-record after
an intended behaviour change, run this file with ``-s`` and copy the
printed values.

The summary hashes leave out BarterCast's cache counters (performance
state, which ``ServiceShard.identity_state`` drops too); they were
re-recorded without them on a commit whose output still matched the
earlier, counter-bearing hashes, so they carry the same claim.
"""

import hashlib
import json

import pytest

from repro.experiments.spam_attack import SpamAttackConfig, SpamAttackExperiment
from repro.sim.units import HOUR, MB
from repro.traces.generator import TraceGeneratorConfig
from tests.reference_runtime import ReferenceRuntime

GOLDEN = {
    7: {
        "series": "29042358a1cb633e",
        "final_core_pollution": 0.0,
        "final_newcomer_pollution": 0.3,
        "summary": "d617d37857d19693",
    },
    11: {
        "series": "7b1b49497796c3f1",
        "final_core_pollution": 0.0,
        "final_newcomer_pollution": 0.5333333333333333,
        "summary": "4ebc178da7365f48",
    },
}


def _sha(part) -> str:
    return hashlib.sha256(
        json.dumps(part, sort_keys=True, default=float).encode()
    ).hexdigest()[:16]


class _KeepStack(SpamAttackExperiment):
    def _install_experience(self, stack) -> None:
        self.stack = stack


def fig8_curve(seed: int) -> dict:
    duration = 6.0 * HOUR
    cfg = SpamAttackConfig(
        seed=seed,
        duration=duration,
        core_size=10,
        crowd_size=20,
        experience_threshold=5 * MB,
        trace=TraceGeneratorConfig(n_peers=40, n_swarms=4, duration=duration),
    )
    experiment = _KeepStack(cfg)
    result = experiment.run()
    series = result.get("polluted_fraction")
    summary = experiment.stack.runtime.run_summary()
    summary.pop("population")  # describes the scheduler, not the protocol
    # cache counters are performance state, as in ServiceShard.identity_state
    summary["bartercast"] = {"exchanges": summary["bartercast"]["exchanges"]}
    return {
        "series": _sha(
            [[float(t) for t in series.times], [float(v) for v in series.values]]
        ),
        "final_core_pollution": result.metadata["final_core_pollution"],
        "final_newcomer_pollution": result.metadata["final_newcomer_pollution"],
        "summary": _sha(summary),
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_fig8_curve_is_pinned(seed):
    state = fig8_curve(seed)
    print(f"\n    {seed}: {json.dumps(state, indent=8)},")
    assert state == GOLDEN[seed]


def test_fig8_curve_is_pinned_on_the_reference_runtime(monkeypatch):
    """The pin was recorded on per-peer processes and dict ballot
    boxes; the test-side reference must still print it."""
    import repro.experiments.common as common

    monkeypatch.setattr(common, "ProtocolRuntime", ReferenceRuntime)
    assert fig8_curve(7) == GOLDEN[7]
