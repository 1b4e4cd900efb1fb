"""The parallel replica engine.

The load-bearing property is **bit-identical determinism**: farming
replicas over worker processes must produce exactly the floats the
sequential loop produces, because each replica derives all randomness
from ``seed + 1000·replica`` and shares no state.
"""

import os

import numpy as np
import pytest

from repro.experiments.common import ExperimentResult
from repro.experiments.vote_sampling import (
    VoteSamplingConfig,
    VoteSamplingExperiment,
)
from repro.sim.parallel import ReplicaPool, _run_task
from repro.sim.units import HOUR
from repro.traces.generator import TraceGeneratorConfig


def tiny_config(seed: int = 7) -> VoteSamplingConfig:
    duration = 6 * HOUR
    return VoteSamplingConfig(
        seed=seed,
        duration=duration,
        sample_interval=1800.0,
        trace=TraceGeneratorConfig(n_peers=20, n_swarms=3, duration=duration),
    )


class TestResolveJobs:
    def test_auto_caps_at_cpu_count_and_tasks(self, monkeypatch):
        """The auto cap is what this process may use: its affinity
        mask where the platform has one (a CPU-pinned container sees
        the host's cores in ``cpu_count``), ``cpu_count`` otherwise."""
        pool = ReplicaPool()
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False
        )
        assert pool.resolve_jobs(1) == 1
        assert pool.resolve_jobs(1000) == 3
        assert pool.resolve_jobs(0) == 1
        monkeypatch.delattr(os, "sched_getaffinity")
        assert pool.resolve_jobs(1000) == 64

    def test_explicit_jobs_cap(self):
        assert ReplicaPool(jobs=3).resolve_jobs(10) == 3
        assert ReplicaPool(jobs=3).resolve_jobs(2) == 2
        assert ReplicaPool(jobs=1).resolve_jobs(10) == 1

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            ReplicaPool(jobs=0)


class TestWorkerEntrypoint:
    def test_run_task_packs(self):
        """The worker returns the ExperimentResult itself: plain data
        that survives the pool's pickle round-trip float for float."""
        import pickle

        result = _run_task((VoteSamplingExperiment(tiny_config()), 0))
        assert isinstance(result, ExperimentResult)
        assert "correct_fraction" in result.series
        back = pickle.loads(pickle.dumps(result))
        np.testing.assert_array_equal(
            back.get("correct_fraction").as_array(),
            result.get("correct_fraction").as_array(),
        )
        assert back.metadata == result.metadata


class TestBitIdenticalParallelism:
    def test_run_many_parallel_matches_sequential(self):
        """run_many(jobs=4) == run_many(jobs=1), float for float."""
        seq = VoteSamplingExperiment(tiny_config()).run_many(4, jobs=1)
        par = VoteSamplingExperiment(tiny_config()).run_many(4, jobs=4)
        assert seq.keys() == par.keys()
        for key in seq.keys():
            np.testing.assert_array_equal(
                seq.get(key).as_array(),
                par.get(key).as_array(),
                err_msg=f"series {key!r} diverged between jobs=1 and jobs=4",
            )
        assert seq.metadata["n_runs"] == par.metadata["n_runs"] == 4
        assert par.metadata["jobs"] == 4
        assert seq.metadata["jobs"] == 1

    def test_run_many_emits_std_series(self):
        result = VoteSamplingExperiment(tiny_config()).run_many(2, jobs=1)
        assert "std" in result.series
        run0 = result.get("run0").values
        run1 = result.get("run1").values
        n = min(len(run0), len(run1))
        expect = np.stack([run0[:n], run1[:n]]).std(axis=0)
        np.testing.assert_allclose(result.get("std").values[:n], expect)

    def test_run_tasks_preserves_order(self):
        exp = VoteSamplingExperiment(tiny_config())
        results = ReplicaPool(jobs=2).run_tasks([(exp, 1), (exp, 0)])
        assert [r.name for r in results] == [
            "fig6-vote-sampling-r1",
            "fig6-vote-sampling-r0",
        ]

    def test_run_tasks_empty(self):
        assert ReplicaPool().run_tasks([]) == []

    def test_unreimportable_main_falls_back_to_sequential(self, monkeypatch):
        """A parent whose __main__ spawn children cannot re-execute
        (e.g. a stdin-fed script) must degrade to sequential, not hang
        in a worker respawn loop."""
        import sys

        main = sys.modules["__main__"]
        monkeypatch.setattr(main, "__spec__", None, raising=False)
        monkeypatch.setattr(main, "__file__", "<stdin>", raising=False)
        exp = VoteSamplingExperiment(tiny_config())
        with pytest.warns(RuntimeWarning, match="sequentially"):
            results = ReplicaPool(jobs=2).run_tasks([(exp, 0), (exp, 1)])
        assert [r.name for r in results] == [
            "fig6-vote-sampling-r0",
            "fig6-vote-sampling-r1",
        ]
