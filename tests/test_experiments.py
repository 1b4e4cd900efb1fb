"""Tests for the experiment drivers (scaled-down workloads).

The full-scale shape assertions live in ``benchmarks/``; here we check
the drivers are wired correctly, deterministic, and show the right
*qualitative* behaviour on small fast configurations.
"""

import pytest

from repro.experiments.common import (
    ExperimentResult,
    SimulationStack,
    ascii_chart,
    average_series,
)
from repro.experiments.experience_formation import (
    ExperienceFormationConfig,
    ExperienceFormationExperiment,
)
from repro.experiments.spam_attack import SpamAttackConfig, SpamAttackExperiment
from repro.experiments.vote_sampling import VoteSamplingConfig, VoteSamplingExperiment
from repro.metrics.timeseries import TimeSeries
from repro.sim.units import DAY, HOUR, MB
from repro.traces.generator import TraceGeneratorConfig


def small_trace(duration, n_peers=30, n_swarms=4):
    return TraceGeneratorConfig(n_peers=n_peers, n_swarms=n_swarms, duration=duration)


@pytest.fixture(scope="module")
def fig5_result():
    cfg = ExperienceFormationConfig(
        seed=7,
        duration=12 * HOUR,
        sample_interval=2 * 3600.0,
        thresholds=(2 * MB, 5 * MB, 20 * MB),
        trace=small_trace(12 * HOUR),
    )
    return ExperienceFormationExperiment(cfg).run()


class TestFig5:
    def test_produces_one_series_per_threshold(self, fig5_result):
        assert set(fig5_result.keys()) == {
            "cev:T=2MB",
            "cev:T=5MB",
            "cev:T=20MB",
        }

    def test_cev_monotone_in_threshold(self, fig5_result):
        final = {k: fig5_result.get(k).final() for k in fig5_result.keys()}
        assert final["cev:T=2MB"] >= final["cev:T=5MB"] >= final["cev:T=20MB"]

    def test_cev_grows_over_time(self, fig5_result):
        s = fig5_result.get("cev:T=2MB")
        assert s.values[0] == 0.0
        assert s.final() > 0.05

    def test_cev_stays_below_one(self, fig5_result):
        for k in fig5_result.keys():
            assert fig5_result.get(k).values.max() < 1.0

    def test_determinism(self):
        cfg = ExperienceFormationConfig(
            seed=3,
            duration=6 * HOUR,
            thresholds=(5 * MB,),
            trace=small_trace(6 * HOUR, n_peers=20),
        )
        r1 = ExperienceFormationExperiment(cfg).run()
        r2 = ExperienceFormationExperiment(cfg).run()
        assert list(r1.get("cev:T=5MB").values) == list(r2.get("cev:T=5MB").values)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperienceFormationConfig(thresholds=())
        with pytest.raises(ValueError):
            ExperienceFormationConfig(duration=-1.0)


@pytest.fixture(scope="module")
def fig6_result():
    cfg = VoteSamplingConfig(
        seed=11,
        duration=1.5 * DAY,
        sample_interval=2 * 3600.0,
        trace=small_trace(1.5 * DAY, n_peers=40),
    )
    return VoteSamplingExperiment(cfg).run()


class TestFig6:
    def test_correct_fraction_rises(self, fig6_result):
        s = fig6_result.get("correct_fraction")
        assert s.values[0] == 0.0
        assert s.final() > 0.3

    def test_votes_were_cast(self, fig6_result):
        assert fig6_result.metadata["votes_cast"] >= 4

    def test_moderators_are_first_arrivals(self, fig6_result):
        assert len(fig6_result.metadata["moderators"]) == 3

    def test_fraction_bounded(self, fig6_result):
        s = fig6_result.get("correct_fraction")
        assert 0.0 <= s.values.min() and s.values.max() <= 1.0

    def test_run_many_averages(self):
        cfg = VoteSamplingConfig(
            seed=5,
            duration=12 * HOUR,
            sample_interval=3 * 3600.0,
            trace=small_trace(12 * HOUR, n_peers=20),
        )
        result = VoteSamplingExperiment(cfg).run_many(2)
        assert "average" in result.series
        assert "run0" in result.series and "run1" in result.series
        avg = result.get("average")
        r0, r1 = result.get("run0"), result.get("run1")
        n = len(avg)
        for i in range(n):
            assert avg.values[i] == pytest.approx(
                (r0.values[i] + r1.values[i]) / 2
            )

    def test_voter_fraction_validation(self):
        with pytest.raises(ValueError):
            VoteSamplingConfig(positive_fraction=0.6, negative_fraction=0.6)


class TestFig8:
    @pytest.fixture(scope="class")
    def results(self):
        out = {}
        for crowd in (8, 24):
            cfg = SpamAttackConfig(
                seed=13,
                duration=18 * HOUR,
                sample_interval=2 * 3600.0,
                core_size=8,
                crowd_size=crowd,
                trace=small_trace(18 * HOUR, n_peers=30),
            )
            out[crowd] = SpamAttackExperiment(cfg).run()
        return out

    def test_larger_crowd_pollutes_more(self, results):
        # Compare time-integrated pollution: peaks can both saturate on
        # a small population, but the larger crowd holds nodes polluted
        # for longer.
        mean_small = results[8].get("polluted_fraction").values.mean()
        mean_large = results[24].get("polluted_fraction").values.mean()
        assert mean_large > mean_small

    def test_pollution_recovers(self, results):
        s = results[24].get("polluted_fraction")
        assert s.final() < s.values.max()

    def test_core_is_never_polluted_metric_excludes_it(self, results):
        core = results[24].metadata["core"]
        assert len(core) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            SpamAttackConfig(core_size=0)
        with pytest.raises(ValueError):
            SpamAttackConfig(crowd_duty_cycle=0.0)


class TestCommon:
    def test_average_series_requires_input(self):
        with pytest.raises(ValueError):
            average_series([])

    def test_ascii_chart_renders(self):
        s = TimeSeries("x")
        for i in range(10):
            s.append(i * 3600.0, i / 10)
        chart = ascii_chart({"x": s})
        assert "hours" in chart
        assert "o=x" in chart

    def test_ascii_chart_empty(self):
        assert ascii_chart({}) == "(no data)"

    def test_result_summary_rows(self):
        r = ExperimentResult(name="t")
        s = TimeSeries("a")
        s.append(0.0, 0.5)
        r.series["a"] = s
        rows = r.summary_rows()
        assert len(rows) == 1 and "final=0.500" in rows[0]

    def test_stack_build_and_run(self):
        from repro.traces.generator import TraceGenerator

        trace = TraceGenerator(small_trace(6 * HOUR, n_peers=10), seed=1).generate()
        stack = SimulationStack.build(trace, seed=1)
        stack.recorder.add_probe(
            "online", lambda: float(stack.session.registry.online_count())
        )
        stack.run()
        assert stack.engine.now == trace.duration
        assert len(stack.recorder.get("online")) > 0


class TestCLI:
    def test_main_quick_fig5(self, capsys):
        from repro.experiments.__main__ import main

        rc = main(["fig5", "--quick", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "fig5" in out and "cev" in out

    @pytest.mark.parametrize(
        "flag",
        [
            ["--flow-jobs", "2"],
            ["--flow-executor", "process"],
            ["--sparse-kernel", "csr"],
            ["--graph-backend", "sparse"],
        ],
    )
    def test_removed_tier_flags_are_rejected(self, flag, capsys):
        """The flow-row executors, the kernel choice and the backend
        override are gone; a stale script must fail loudly (argparse
        exit 2), not run serial in silence."""
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["fig5", "--quick", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("engine_kind", ["object", "soa", "auto"])
    def test_population_engine_flag_is_rejected(self, engine_kind, capsys):
        """Every run ticks through the one production scheduler; the
        flag that chose between schedulers is gone, even its old
        default spelling."""
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["fig6", "--quick", "--population-engine", engine_kind])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
