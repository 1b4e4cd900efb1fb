"""Service mode: crash-safe shard checkpoints and the supervisor.

The crash contract under test: a shard restored from its last
checkpoint replays **bit-identically** to the same shard never having
been interrupted — same node states (including RNG positions), same
summaries, same schedule — for every engine/state-backing combination,
and through a real ``SIGKILL`` + supervisor restart.
"""

import json
import time

import numpy as np
import pytest

from repro.core.node import NodeConfig
from repro.sim.service import (
    _COUNTER_COLS,
    CHECKPOINT_FORMAT,
    ServiceConfig,
    ServiceShard,
    ServiceSupervisor,
    ShardConfig,
    _checkpoint_boundaries,
)


def _small_config(**overrides):
    defaults = dict(
        shard_id=0,
        peers=12,
        seed=11,
        moderation_interval=150.0,
        vote_interval=150.0,
        bartercast_interval=600.0,
        node=NodeConfig(b_max=20),
    )
    defaults.update(overrides)
    return ShardConfig(**defaults)


# ----------------------------------------------------------------------
# Checkpoint boundaries
# ----------------------------------------------------------------------
def test_checkpoint_boundaries_from_zero():
    assert _checkpoint_boundaries(0.0, 10.0, 3.0) == [3.0, 6.0, 9.0, 10.0]
    assert _checkpoint_boundaries(0.0, 9.0, 3.0) == [3.0, 6.0, 9.0]


def test_checkpoint_boundaries_resume_mid_run():
    # A shard restored at t=3 must see the same remaining boundaries
    # the uninterrupted run had left.
    assert _checkpoint_boundaries(3.0, 10.0, 3.0) == [6.0, 9.0, 10.0]
    assert _checkpoint_boundaries(4.5, 10.0, 3.0) == [6.0, 9.0, 10.0]


def test_checkpoint_boundaries_degenerate():
    assert _checkpoint_boundaries(10.0, 10.0, 3.0) == []
    with pytest.raises(ValueError, match="interval"):
        _checkpoint_boundaries(0.0, 10.0, 0.0)


# ----------------------------------------------------------------------
# Shard build determinism
# ----------------------------------------------------------------------
def test_peer_ids_sorted_order_is_creation_order():
    config = _small_config(peers=100)
    ids = config.peer_ids()
    assert ids == sorted(ids)
    assert len(set(ids)) == 100


def test_registry_seeds_differ_per_shard():
    seeds = {ShardConfig(shard_id=i, seed=7).registry_seed() for i in range(8)}
    assert len(seeds) == 8


# ----------------------------------------------------------------------
# Checkpoint → restore bit-identity, all engine/backing combinations
# ----------------------------------------------------------------------
@pytest.mark.parametrize("columnar", ["off", "on"])
@pytest.mark.parametrize("engine_kind", ["object", "soa"])
def test_restore_replays_bit_identically(engine_kind, columnar, tmp_path):
    config = _small_config(
        population_engine=engine_kind, columnar_state=columnar
    )
    until, interval = 1800.0, 900.0

    reference = ServiceShard(config)
    reference.start()
    reference.run_service(until, interval)  # uninterrupted, same slices

    shard = ServiceShard(config)
    shard.start()
    shard.run_service(interval, interval, directory=tmp_path)
    resumed = ServiceShard.restore_from(config, tmp_path)
    resumed.run_service(until, interval)

    ref_state = reference.identity_state()
    res_state = resumed.identity_state()
    assert res_state == ref_state
    # The run must be non-trivial for the comparison to mean anything.
    assert ref_state["summary"]["nodes"]["votes_merged"] > 0
    assert ref_state["events_fired"] > 100
    assert resumed.ops["restores"] == 1


def test_checkpoint_state_round_trips_through_json(tmp_path):
    config = _small_config(population_engine="soa", columnar_state="on")
    shard = ServiceShard(config)
    shard.start()
    shard.run_until(600.0)
    state = shard.checkpoint_state()
    assert state["format"] == CHECKPOINT_FORMAT
    rebuilt = ServiceShard.restore(config, json.loads(json.dumps(state)))
    rebuilt_state = rebuilt.checkpoint_state()
    # ops is operational (not identity) state: the restore itself bumps
    # the restore counter.
    assert rebuilt_state.pop("ops")["restores"] == 1
    expected = json.loads(json.dumps(state))
    expected.pop("ops")
    assert rebuilt_state == expected


# ----------------------------------------------------------------------
# Restore error cases
# ----------------------------------------------------------------------
def _checkpointed_state(config):
    shard = ServiceShard(config)
    shard.start()
    shard.run_until(300.0)
    return shard.checkpoint_state()


def test_restore_rejects_unknown_format():
    config = _small_config()
    state = _checkpointed_state(config)
    state["format"] = 99
    with pytest.raises(ValueError, match="checkpoint format"):
        ServiceShard.restore(config, state)


def test_restore_rejects_wrong_shard():
    config = _small_config()
    state = _checkpointed_state(config)
    with pytest.raises(ValueError, match="shard"):
        ServiceShard.restore(ShardConfig(shard_id=3, peers=12), state)


def test_restore_rejects_engine_mismatch():
    soa = _small_config(population_engine="soa")
    state = _checkpointed_state(soa)
    with pytest.raises(ValueError, match="soa engine"):
        ServiceShard.restore(_small_config(population_engine="object"), state)
    obj_state = _checkpointed_state(_small_config(population_engine="object"))
    with pytest.raises(ValueError, match="object engine"):
        ServiceShard.restore(soa, obj_state)


def test_checkpoint_requires_started_shard():
    shard = ServiceShard(_small_config())
    with pytest.raises(RuntimeError, match="start"):
        shard.checkpoint_state()


# ----------------------------------------------------------------------
# Operational counters
# ----------------------------------------------------------------------
def test_run_summary_has_service_section(tmp_path):
    shard = ServiceShard(_small_config())
    shard.start()
    shard.run_service(900.0, 450.0, directory=tmp_path)
    summary = shard.run_summary()
    service = summary["service"]
    assert service["shard_id"] == 0
    assert service["sim_now"] == 900.0
    assert 0.0 <= service["eviction_pressure"] <= 1.0
    ops = service["ops"]
    assert ops["checkpoints"] == 2
    # Two checkpoints were written; state grows, so total exceeds the
    # last one but not necessarily twice it.
    assert ops["checkpoint_bytes_total"] > ops["checkpoint_bytes_last"] > 0
    assert ops["checkpoint_wall_total"] >= ops["checkpoint_wall_last"] > 0.0


def test_supervisor_rejects_empty_service(tmp_path):
    with pytest.raises(ValueError, match="shard"):
        ServiceSupervisor(ServiceConfig(shards=0), tmp_path)


def test_status_rates_each_read_their_own_counter(tmp_path):
    """Regression: ``votes_per_sec`` repeated ``merges_per_sec`` (both
    differenced ``votes_merged``).  Move every counter by a different
    amount between two snapshots: no two rates may then agree."""
    supervisor = ServiceSupervisor(ServiceConfig(shards=1), tmp_path)
    supervisor._view = np.zeros((1, len(_COUNTER_COLS)))
    supervisor.status()
    time.sleep(0.01)
    supervisor._view[0] = np.arange(1, len(_COUNTER_COLS) + 1) * 1000.0
    row = supervisor.status().shards[0]
    rates = [value for key, value in row.items() if key.endswith("_per_sec")]
    assert len(rates) >= 4 and min(rates) > 0.0
    assert len(set(rates)) == len(rates), row


# ----------------------------------------------------------------------
# Real SIGKILL through the supervisor
# ----------------------------------------------------------------------
def _wait(predicate, timeout, supervisor=None):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if supervisor is not None:
            supervisor.poll()
        if predicate():
            return True
        time.sleep(0.05)
    return False


def test_sigkilled_shard_restores_bit_identically(tmp_path):
    """kill -9 on a shard worker, supervisor restart from the last
    checkpoint, and the finished run is indistinguishable from one that
    was never interrupted."""
    shard_cfg = _small_config(peers=16, seed=23)
    interval = 900.0
    until = 5400.0

    # Phase 1: run one checkpoint slice to completion so a restartable
    # checkpoint exists on disk.
    phase1 = ServiceConfig(
        shards=1, until=interval, checkpoint_interval=interval, shard=shard_cfg
    )
    with ServiceSupervisor(phase1, tmp_path) as supervisor:
        supervisor.start()
        assert _wait(supervisor.done, timeout=120.0, supervisor=supervisor)
        assert supervisor._restarts == [0]
    checkpoint_path = tmp_path / "shard-00" / "checkpoint.json"
    assert checkpoint_path.exists()

    # Phase 2: resume toward the horizon and SIGKILL the worker
    # mid-run; the supervisor must restart it from the checkpoint and
    # the restarted worker must finish the run.
    phase2 = ServiceConfig(
        shards=1, until=until, checkpoint_interval=interval, shard=shard_cfg
    )
    with ServiceSupervisor(phase2, tmp_path, resume=True) as supervisor:
        supervisor.start()
        time.sleep(0.2)
        supervisor.kill_shard(0)
        supervisor.poll()
        assert supervisor._restarts == [1]
        assert _wait(supervisor.done, timeout=120.0, supervisor=supervisor)
        status = supervisor.status()
        assert status.totals["restarts"] == 1
        assert status.totals["alive"] == 0
        assert status.totals["sim_now_max"] == until
        assert status.shards[0]["checkpoints"] >= 1
        summary = supervisor.shard_summary(0)
    assert summary is not None
    assert summary["service"]["sim_now"] == until

    # Reference: the same shard run in-process, never interrupted, in
    # the same checkpoint-boundary slices.
    reference = ServiceShard(shard_cfg)
    reference.start()
    reference.run_service(until, interval)

    survivor = ServiceShard.restore_from(shard_cfg, tmp_path / "shard-00")
    assert survivor.identity_state() == reference.identity_state()
    assert reference.identity_state()["summary"]["nodes"]["votes_merged"] > 0


# ----------------------------------------------------------------------
# Checkpointing while the SoA scheduler's tick window is open
# ----------------------------------------------------------------------
@pytest.mark.parametrize("columnar", ["off", "on"])
def test_checkpoint_with_open_window_replays_bit_identically(columnar, tmp_path):
    """A checkpoint can land at any instant between two engine events,
    including one where the scheduler's window holds both executed
    (unflushed) and pending entries: it closes the window, and the
    restored shard finishes like one that never checkpointed."""
    config = _small_config(population_engine="soa", columnar_state=columnar)
    until = 1800.0

    reference = ServiceShard(config)
    reference.start()
    reference.run_until(until)  # never checkpointed, one slice

    shard = ServiceShard(config)
    shard.start()
    shard.run_until(400.0)
    population = shard.runtime.materialize_population()
    window = population._win
    shard.run_until(window.t[(window.k + window.n) // 2])  # mid-window
    assert population._win is window and 0 < window.fired and window.k < window.n
    before = population.schedule_state()  # closes the window ...
    assert population._win is None
    assert population.schedule_state() == before  # ... and is then stable
    shard.write_checkpoint(tmp_path)

    resumed = ServiceShard.restore_from(config, tmp_path)
    assert resumed.runtime.materialize_population().schedule_state() == before
    resumed.run_until(until)
    shard.run_until(until)
    assert shard.identity_state() == reference.identity_state()
    assert resumed.identity_state() == reference.identity_state()
    assert reference.identity_state()["summary"]["nodes"]["votes_merged"] > 0
