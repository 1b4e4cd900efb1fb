"""Golden outputs of small A3 / A9 ablations and a slandering Fig 8 crowd.

Three shapes that used to leave the batched gossip tick for the scalar
one, pinned per seed as hashes of their series and ``run_summary()``
(minus the scheduler's own ``population`` section):

* A3 — the Fig 6 workload on the oracle PSS and on Newscast;
* A9 — the Fig 6 workload at vote fan-outs 1, 2 and 4;
* Fig 8 with ``crowd_slanders_honest=True``, so every crowd member's
  vote list carries a decoy negative besides ``+M0``, under the fixed
  threshold and under the adaptive one (ablation A1).

The hashes were recorded on the commit *before* every gossip tick went
through the batch handler; they are that change's "the ablations print
the same numbers" claim.  To re-record after an intended behaviour
change, run this file with ``-s`` and copy the printed values.
"""

import hashlib
import json

import pytest

from repro.experiments.ablations import (
    _AdaptiveSpamExperiment,
    ablation_pss,
    ablation_vote_fanout,
)
from repro.experiments.spam_attack import SpamAttackConfig, SpamAttackExperiment
from repro.experiments.vote_sampling import VoteSamplingConfig
from repro.sim.units import HOUR, MB
from repro.traces.generator import TraceGeneratorConfig

GOLDEN = {
    "a3": {
        7: {"newscast": "325328888ad84fcb", "oracle": "44f5dbd67cbb2344"},
        11: {"newscast": "72401e2d4627513e", "oracle": "d5d9c221458d9c07"},
    },
    "a9": {
        7: {
            "fanout=1": "44f5dbd67cbb2344",
            "fanout=2": "4053acebe72fb46c",
            "fanout=4": "f42b571574580f0d",
        },
        11: {
            "fanout=1": "d5d9c221458d9c07",
            "fanout=2": "4147917b5ef66953",
            "fanout=4": "1220715dfb901bed",
        },
    },
    "fig8_decoys": {
        7: {"fixed": "a9a5e187fc36aac4", "adaptive": "d424e049bf58b96a"},
        11: {"fixed": "0698f9925e6167a1", "adaptive": "30c56fcdd93b7b24"},
    },
}


def _sha(part) -> str:
    return hashlib.sha256(
        json.dumps(part, sort_keys=True, default=float).encode()
    ).hexdigest()[:16]


def _fingerprint(result) -> str:
    """One hash over every series and the protocol part of the run
    summary."""
    summary = dict(result.metadata["run_summary"])
    summary.pop("population")  # describes the scheduler, not the protocol
    series = {
        key: [[float(t) for t in s.times], [float(v) for v in s.values]]
        for key, s in sorted(result.series.items())
    }
    return _sha({"series": series, "summary": summary})


def _fig6_base(seed: int) -> VoteSamplingConfig:
    duration = 6.0 * HOUR
    return VoteSamplingConfig(
        seed=seed,
        duration=duration,
        trace=TraceGeneratorConfig(n_peers=30, n_swarms=4, duration=duration),
    )


class _KeepSummary:
    """Fig 8 experiments keep no run summary; record it like Fig 6."""

    def _install_experience(self, stack) -> None:
        super()._install_experience(stack)
        self.stack = stack

    def run(self, replica=None):
        result = super().run(replica)
        result.metadata["run_summary"] = self.stack.runtime.run_summary()
        return result


class _Fixed(_KeepSummary, SpamAttackExperiment):
    pass


class _Adaptive(_KeepSummary, _AdaptiveSpamExperiment):
    pass


def a3(seed: int) -> dict:
    out = ablation_pss(_fig6_base(seed), jobs=1)
    return {key: _fingerprint(result) for key, result in sorted(out.items())}


def a9(seed: int) -> dict:
    out = ablation_vote_fanout(_fig6_base(seed), jobs=1)
    return {key: _fingerprint(result) for key, result in sorted(out.items())}


def fig8_decoys(seed: int) -> dict:
    duration = 6.0 * HOUR
    cfg = SpamAttackConfig(
        seed=seed,
        duration=duration,
        core_size=10,
        crowd_size=20,
        experience_threshold=5 * MB,
        crowd_slanders_honest=True,
        trace=TraceGeneratorConfig(n_peers=40, n_swarms=4, duration=duration),
    )
    return {
        "fixed": _fingerprint(_Fixed(cfg).run()),
        "adaptive": _fingerprint(_Adaptive(cfg).run()),
    }


SHAPES = {"a3": a3, "a9": a9, "fig8_decoys": fig8_decoys}


@pytest.mark.parametrize("seed", [7, 11])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_ablation_outputs_are_pinned(shape, seed):
    state = SHAPES[shape](seed)
    print(f"\n    {shape} {seed}: {json.dumps(state)},")
    assert state == GOLDEN[shape][seed]
