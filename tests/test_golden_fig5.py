"""Golden CEV curves of a small Fig 5 run.

The 30-peer / 10-hour shape of ``tests/test_golden_fig6.py`` run
through :class:`ExperienceFormationExperiment`: trace, piece-level
swarms, BarterCast gossip, and one :class:`FlowMatrixCache` sampled
every hour.  Every CEV series (all five thresholds) and the cache's
recomputed / reused row split are pinned per seed, so a change to the
flow kernel, to which rows the cache considers stale, or to the order
observations reach the subjective graphs fails here in about a second.

The hashes were recorded on the commit *before* the flow-row
executors, the chunked sparse kernel and their options were deleted;
they are that change's "Fig 5 prints the same curves" claim.  To
re-record after an intended behaviour change, run this file with
``-s`` and copy the printed values.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from repro.experiments.experience_formation import (
    ExperienceFormationConfig,
    ExperienceFormationExperiment,
)
from repro.sim.units import HOUR

GOLDEN = {
    7: {
        "cev": "4ad41f1a3e9724f1",
        "flow_rows_recomputed": 176,
        "flow_rows_reused": 154,
    },
    11: {
        "cev": "0e975c706e327a8b",
        "flow_rows_recomputed": 206,
        "flow_rows_reused": 124,
    },
}


def fig5_curves(seed: int) -> dict:
    cfg = ExperienceFormationConfig(seed=seed, duration=10.0 * HOUR)
    cfg.trace = replace(cfg.trace, n_peers=30, duration=cfg.duration)
    result = ExperienceFormationExperiment(cfg).run()
    series = {
        name: [[float(t) for t in ts.times], [float(v) for v in ts.values]]
        for name, ts in sorted(result.series.items())
    }
    assert len(series) == len(cfg.thresholds)
    return {
        "cev": hashlib.sha256(
            json.dumps(series, sort_keys=True).encode()
        ).hexdigest()[:16],
        "flow_rows_recomputed": result.metadata["flow_rows_recomputed"],
        "flow_rows_reused": result.metadata["flow_rows_reused"],
    }


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_fig5_curves_are_pinned(seed):
    state = fig5_curves(seed)
    print(f"\n    {seed}: {json.dumps(state, indent=8)},")
    assert state == GOLDEN[seed]
