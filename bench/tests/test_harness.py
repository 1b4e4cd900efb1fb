"""Harness self-tests.  Not part of tier-1: run with
``python -m pytest bench/tests`` from the repo root."""

from __future__ import annotations

import copy
import json
import time

import pytest

from bench.compare import compare
from bench.run import contract_result, load_spec, measure
from bench.trace import SELF_TIME_METRICS
from bench.workloads import OUT_DIR, WORKLOADS

NAMES = sorted(WORKLOADS)


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def untraced():
    """One tiny unit per workload (a zero-second window holds one),
    with how long the whole call took."""
    out = {}
    for name in NAMES:
        start = time.perf_counter()
        out[name] = measure(name, seed=7, seconds=0, traced=False, size="tiny")
        out[name]["took_s"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def traced():
    return {n: measure(n, seed=7, seconds=0, traced=True, size="tiny") for n in NAMES}


def test_spec_lists_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", NAMES)
def test_tiny_unit_is_quick_and_correct(untraced, name):
    result = untraced[name]
    assert result["took_s"] < 5.0
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["checks"]
    assert result["simulated"]["votes_merged"] > 0
    assert all(v > 0 for v in result["end_to_end"].values())


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_same_digest_other_seed_other_digest(untraced, name):
    again = measure(name, seed=7, seconds=0, traced=False, size="tiny")
    other = measure(name, seed=8, seconds=0, traced=False, size="tiny")
    assert again["sim_digest"] == untraced[name]["sim_digest"]
    assert again["simulated"] == untraced[name]["simulated"]
    assert other["sim_digest"] != untraced[name]["sim_digest"]


def test_repeated_units_are_checked_against_each_other():
    result = measure("steady_vote", seed=7, seconds=0.2, traced=False, size="tiny")
    assert result["units"] > 1
    assert result["checks"]["same_seed_same_end_state"] == {
        "attempted": result["units"] - 1, "failed": 0,
    }


@pytest.mark.parametrize("name", NAMES)
def test_self_times_sum_to_the_traced_wall(traced, name):
    layers = traced[name]["per_layer"]
    total = sum(layers[m] for m in SELF_TIME_METRICS) + layers["other_s"]
    assert total == pytest.approx(layers["trace.wall_s"], rel=0.01)
    assert layers["trace.wall_s"] == pytest.approx(
        traced[name]["end_to_end"]["wall_s"], rel=1e-9
    )


@pytest.mark.parametrize("name", NAMES)
def test_tracing_does_not_change_the_simulation(untraced, traced, name):
    assert traced[name]["sim_digest"] == untraced[name]["sim_digest"]


def test_each_workload_loads_the_layers_it_was_chosen_for(traced):
    fig6 = traced["paper_fig6"]["per_layer"]
    assert fig6["bittorrent.run_round_s"] == max(fig6[m] for m in SELF_TIME_METRICS)
    assert fig6["population.run_due_calls"] == 0
    steady = traced["steady_vote"]["per_layer"]
    assert steady["runtime.vote_tick_s"] == max(steady[m] for m in SELF_TIME_METRICS)
    assert steady["bittorrent.rounds"] == 0
    churn = traced["churn_population"]["per_layer"]
    assert churn["population.mean_batch_size"] < steady["population.mean_batch_size"] / 10
    assert churn["runtime.churn_calls"] > 0
    service = traced["service_cluster"]["per_layer"]
    assert service["service.checkpoints"] == 12  # 3 boundaries x 4 shards
    assert service["service.restores"] == 4
    assert service["service.checkpoint_s"] > 0 and service["service.restore_s"] > 0
    assert service["aggregation.remote_votes_merged"] > 0 and service["dht.lookups"] > 0


def test_spans_are_written_with_parents(traced):
    lines = (OUT_DIR / "service_cluster.spans.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["workload"] == "service_cluster"
    spans = [json.loads(line) for line in lines[1:]]
    ids = {s["id"] for s in spans}
    checkpoints = [s for s in spans if s["name"] == "service.checkpoint"]
    assert len(checkpoints) == 12 * header["units"]
    assert all(s["parent"] in ids and s["end"] > s["start"] for s in checkpoints)


def test_contract_lines_carry_exactly_the_spec_metrics(spec, untraced, traced):
    produced = set()
    for name in NAMES:
        line = contract_result(untraced[name], spec)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == {m["name"] for m in spec["end_to_end"]}
        layers = contract_result(traced[name], spec)["metrics"]
        assert set(layers) == {m["name"] for m in spec["per_layer"]}
        # nothing the harness measures is missing from the spec
        assert set(traced[name]["per_layer"]) <= set(layers)
        produced |= {k for k, v in layers.items() if v["value"]}
    # and every metric the spec lists is moved by some workload, except
    # the failure counters, which stay 0 on workloads where nothing fails
    idle = {m["name"] for m in spec["per_layer"]} - produced
    assert idle <= {"ballot.votes_truncated", "dht.timeouts", "runtime.other_tick_s",
                    "metrics.correct_fraction_final", "metrics.t90_sim_h"}


def _suite_entry(result, spec):
    """What ``run_suite`` would record for three identical repeats."""
    def summary(value, m):
        return {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "median": value, "min": value, "max": value, "n": 3, "runs": [value] * 3}

    return {
        "end_to_end": {
            m["name"]: summary(result["end_to_end"][m["name"]], m) for m in spec["end_to_end"]
        },
        "simulated": {**result["simulated"], "sim_digest_ok": 1},
        "checks": {"attempted": result["attempted"], "failed": 0,
                   "checks_failed_share": 0.0, "failures": []},
    }


def test_compare_flags_slower_wall_and_changed_statistic(spec, untraced):
    parent = {
        "meta": {"seed": 7},
        "workloads": {n: _suite_entry(untraced[n], spec) for n in NAMES},
    }
    assert not [r for r in compare(parent, copy.deepcopy(parent), spec) if r[4] != "ok"]

    # wall_s may worsen by 25 %: +30 % is a regression
    change = copy.deepcopy(parent)
    wall = change["workloads"]["paper_fig6"]["end_to_end"]["wall_s"]
    for key in ("median", "min", "max"):
        wall[key] *= 1.3
    wall["runs"] = [v * 1.3 for v in wall["runs"]]
    change["workloads"]["service_cluster"]["simulated"]["rank_distance"] = 0.25
    flagged = {(r[0], r[1]) for r in compare(parent, change, spec) if r[4] == "regression"}
    assert flagged == {("paper_fig6", "wall_s"), ("service_cluster", "rank_distance")}

    noisy = copy.deepcopy(parent)
    wall = noisy["workloads"]["paper_fig6"]["end_to_end"]["wall_s"]
    wall["max"] = wall["median"] * 1.4
    wall["runs"][2] = wall["max"]
    verdicts = {(r[0], r[1]): r[4] for r in compare(parent, noisy, spec)}
    assert verdicts[("paper_fig6", "wall_s")] == "unresolved"
