"""Service mode: crash-safe shard checkpoints and the supervisor.

The crash contract under test: a shard restored from its last
checkpoint replays **bit-identically** to the same shard never having
been interrupted — same node states (including RNG positions), same
summaries, same schedule — through a real ``SIGKILL`` + supervisor
restart, and a damaged checkpoint file fails loudly instead.
"""

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.core.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    read_sections,
    write_sections,
)
from repro.core.moderation import Moderation
from repro.core.node import NodeConfig
from repro.sim import serve_cli
from repro.sim import service as service_module
from repro.sim.serve_cli import shard_failures
from repro.sim.service import (
    CHECKPOINT_FILE,
    STATUS_FILE,
    ServiceConfig,
    ServiceShard,
    ServiceSupervisor,
    ShardConfig,
    _checkpoint_boundaries,
    _shard_worker_main,
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
# Checkpoint → restore bit-identity
# ----------------------------------------------------------------------
def test_shard_config_accepts_only_the_production_path():
    _small_config(population_engine="soa", columnar_state="on")
    for engine_kind in ("object", "auto"):
        with pytest.raises(ValueError, match="service shard"):
            _small_config(population_engine=engine_kind)
    for columnar in ("off", "auto"):
        with pytest.raises(ValueError, match="service shard"):
            _small_config(columnar_state=columnar)


def test_service_config_rejects_bad_values():
    for bad in (
        dict(shards=0),
        dict(until=-1.0),
        dict(checkpoint_interval=0.0),
        dict(max_restarts=-1),
    ):
        with pytest.raises(ValueError):
            ServiceConfig(**bad)


def test_shard_config_rejects_bad_values():
    for bad in (
        dict(peers=0),
        dict(peers=3, moderators=4),
        dict(moderators=-1),
        dict(vote_probability=1.5),
        dict(negative_fraction=-0.1),
        dict(vote_interval=0.0),
        dict(message_loss=1.0),
    ):
        with pytest.raises(ValueError):
            _small_config(**bad)
    assert _small_config().runtime_config().vote_interval == 150.0


@pytest.mark.parametrize(
    "flag,value",
    [("--checkpoint-interval", "0"), ("--shards", "0"), ("--peers", "0")],
)
def test_serve_refuses_bad_input_before_any_worker(
    flag, value, tmp_path, monkeypatch, capsys
):
    def no_supervisor(*args, **kwargs):
        raise AssertionError("a supervisor was built from invalid input")

    monkeypatch.setattr(serve_cli, "ServiceSupervisor", no_supervisor)
    with pytest.raises(SystemExit) as exited:
        serve_cli.main(["--dir", str(tmp_path), flag, value])
    assert exited.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("engine_kind,columnar", [("soa", "on")])
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


def _assert_same_sections(path_a, path_b, skip=("ops",)):
    state_a, components_a = read_sections(path_a)
    state_b, components_b = read_sections(path_b)
    for key in skip:
        state_a.pop(key), state_b.pop(key)
    assert state_a == state_b
    assert components_a.keys() == components_b.keys()
    for prefix, component in components_a.items():
        assert component.keys() == components_b[prefix].keys()
        for key, value in component.items():
            other = components_b[prefix][key]
            if isinstance(value, np.ndarray):
                assert value.dtype == other.dtype, (prefix, key)
                value, other = value.tobytes(), other.tobytes()
            assert value == other, (prefix, key)


def test_checkpoint_round_trips_through_file(tmp_path):
    """write → restore → write gives the same header and the same
    bytes in every section: nothing is re-derived, reordered or lost."""
    config = _small_config()
    shard = ServiceShard(config)
    shard.start()
    shard.run_until(600.0)
    shard.write_checkpoint(tmp_path / "a")
    rebuilt = ServiceShard.restore_from(config, tmp_path / "a")
    # ops is operational (not identity) state: the restore itself bumps
    # the restore counter.
    assert rebuilt.ops["restores"] == 1
    rebuilt.write_checkpoint(tmp_path / "b")
    _assert_same_sections(
        tmp_path / "a" / CHECKPOINT_FILE, tmp_path / "b" / CHECKPOINT_FILE
    )


def test_moderation_recency_survives_shard_checkpoint(tmp_path):
    """Regression: a version refresh moves a moderation to the front of
    the recency order without moving it in storage order; the shard
    checkpoint carries the recency stamps and the mutation counter."""
    config = _small_config()
    shard = ServiceShard(config)
    shard.start()
    node = shard.runtime.nodes[config.peer_ids()[-1]]
    before = len(node.store)
    node.receive_moderations([Moderation("a", "t", "v1", version=1)], 1.0)
    node.receive_moderations([Moderation("b", "t", "only")], 2.0)
    node.receive_moderations([Moderation("a", "t", "v2", version=2)], 3.0)
    shard.write_checkpoint(tmp_path)
    twin = ServiceShard.restore_from(config, tmp_path).runtime.nodes[node.peer_id]
    assert [m.title for m in twin.store.recency_order()[:2]] == ["v2", "only"]
    assert twin.store.recency_order() == node.store.recency_order()
    assert twin.store.all_items() == node.store.all_items()
    assert twin.store.mutation_count == node.store.mutation_count == before + 3
    for store in (node.store, twin.store):
        store.capacity = len(store) - 1
        store.enforce_capacity()
    assert twin.store.recency_order() == node.store.recency_order()
    assert twin.store.get("b", "t") is None  # the oldest stamp went


# ----------------------------------------------------------------------
# Damaged checkpoints fail loudly
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def checkpoint_bytes(tmp_path_factory):
    config = _small_config()
    shard = ServiceShard(config)
    shard.start()
    shard.run_until(300.0)
    directory = tmp_path_factory.mktemp("ckpt")
    shard.write_checkpoint(directory)
    return config, (directory / CHECKPOINT_FILE).read_bytes()


def _restore_bytes(config, data, directory):
    (directory / CHECKPOINT_FILE).write_bytes(data)
    return ServiceShard.restore_from(config, directory)


def _section_spans(path_bytes, tmp_path):
    """``[(name, start, end)]`` of the preamble, the header and every
    array section of a checkpoint file."""
    header_len = int.from_bytes(path_bytes[8:12], "little")
    spans = [("preamble", 0, 16), ("header", 16, 16 + header_len)]
    probe = tmp_path / "probe"
    probe.write_bytes(path_bytes)
    offset = 16 + header_len
    for prefix, component in read_sections(probe)[1].items():
        for key, value in component.items():
            if isinstance(value, np.ndarray):
                spans.append((f"{prefix}.{key}", offset, offset + value.nbytes))
                offset += value.nbytes
    assert offset == len(path_bytes)
    return spans


def test_truncated_checkpoint_names_the_section(checkpoint_bytes, tmp_path):
    config, data = checkpoint_bytes
    spans = _section_spans(data, tmp_path)
    last = [name for name, start, end in spans if end > start][-1]
    cuts = {0: "preamble", 9: "preamble", len(data) - 1: last}
    cuts[(spans[1][1] + spans[1][2]) // 2] = "header"  # mid-header
    for name, start, end in spans[2:]:
        if end - start >= 2:
            cuts[(start + end) // 2] = name  # mid-array
    assert len(cuts) >= 8
    for cut, section in cuts.items():
        with pytest.raises(CheckpointError) as err:
            _restore_bytes(config, data[:cut], tmp_path)
        assert CHECKPOINT_FILE in str(err.value)
        assert repr(section) in str(err.value), (cut, str(err.value))
    with pytest.raises(CheckpointError, match="trailing"):
        _restore_bytes(config, data + b"\0", tmp_path)


def test_flipped_byte_in_any_section_is_caught(checkpoint_bytes, tmp_path):
    config, data = checkpoint_bytes
    for name, start, end in _section_spans(data, tmp_path):
        if end == start:
            continue
        damaged = bytearray(data)
        damaged[(start + end) // 2] ^= 0x40
        with pytest.raises(CheckpointError) as err:
            _restore_bytes(config, bytes(damaged), tmp_path)
        assert CHECKPOINT_FILE in str(err.value), name
        # a flip inside the preamble's length/checksum words surfaces
        # as a header failure
        expected = ("preamble", "header") if name == "preamble" else (name,)
        assert any(repr(s) in str(err.value) for s in expected), (name, str(err.value))


def test_restore_rejects_unknown_format(checkpoint_bytes, tmp_path):
    config, data = checkpoint_bytes
    with pytest.raises(CheckpointError, match="format"):
        _restore_bytes(config, data[:7] + bytes([99]) + data[8:], tmp_path)


def test_restore_rejects_a_format_3_checkpoint(checkpoint_bytes, tmp_path):
    """Format 3 stored a payload slab per box; format 4 stores one
    pool.  There is no converter: an old file fails loudly, by name."""
    config, data = checkpoint_bytes
    assert data[7] == CHECKPOINT_FORMAT == 4
    with pytest.raises(CheckpointError, match="not a format-4 checkpoint"):
        _restore_bytes(config, data[:7] + bytes([3]) + data[8:], tmp_path)


def test_restore_rejects_wrong_shard(checkpoint_bytes, tmp_path):
    config, data = checkpoint_bytes
    with pytest.raises(CheckpointError, match="shard 0"):
        _restore_bytes(ShardConfig(shard_id=3, peers=12), data, tmp_path)


def test_restore_rejects_arrays_that_do_not_fit_the_header(
    checkpoint_bytes, tmp_path
):
    """Checksums valid, contents inconsistent: each array is checked
    against the counts the header (or its sibling arrays) declare."""
    config, data = checkpoint_bytes
    path = tmp_path / CHECKPOINT_FILE
    path.write_bytes(data)
    state, components = read_sections(path)

    def rewrite(prefix, key, value):
        changed = dict(components, **{prefix: dict(components[prefix])})
        if value is None:
            del changed[prefix][key]
        else:
            changed[prefix][key] = value
        write_sections(path, state, changed)

    for prefix, key in (
        ("store", "bb_voter"), ("sched", "next"), ("nodes", "mod_at"), ("rng", "jitter")
    ):
        rewrite(prefix, key, components[prefix][key][..., :-1])
        with pytest.raises(CheckpointError, match=repr(key)):
            ServiceShard.restore_from(config, tmp_path)
    rewrite("store", "pay_tail", None)
    with pytest.raises(CheckpointError, match="pay_tail"):
        ServiceShard.restore_from(config, tmp_path)
    rewrite("store", "pay_tail", components["store"]["pay_size"] + 1)
    with pytest.raises(CheckpointError, match="pay_tail"):
        ServiceShard.restore_from(config, tmp_path)
    rewrite("store", "n_ids", components["store"]["n_ids"] + 1)
    with pytest.raises(CheckpointError, match="row_ids"):
        ServiceShard.restore_from(config, tmp_path)


def test_kill_mid_write_keeps_previous_checkpoint(tmp_path, monkeypatch):
    """A write that dies after a prefix of the new file leaves the
    previous checkpoint in place, readable, and no temp litter."""
    import builtins

    config = _small_config()
    shard = ServiceShard(config)
    shard.start()
    shard.run_service(900.0, 900.0, directory=tmp_path)
    before = (tmp_path / CHECKPOINT_FILE).read_bytes()
    shard.run_until(1200.0)

    real_open = builtins.open

    def torn_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return fh

        class TornFile:
            def write(self, data):
                fh.write(data[: len(data) // 2])
                fh.flush()
                raise OSError("killed mid-write")

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                fh.close()
                return False

        return TornFile()

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "open", torn_open)
        with pytest.raises(OSError, match="killed mid-write"):
            shard.write_checkpoint(tmp_path)

    assert (tmp_path / CHECKPOINT_FILE).read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [CHECKPOINT_FILE]
    assert ServiceShard.restore_from(config, tmp_path).engine.now == 900.0


def test_checkpoint_requires_started_shard(tmp_path):
    shard = ServiceShard(_small_config())
    with pytest.raises(RuntimeError, match="start"):
        shard.write_checkpoint(tmp_path)


def test_checkpoint_refuses_a_shard_with_crowd_rows(tmp_path):
    """Behaviour codes are not in the checkpoint format: a shard
    holding a flash crowd fails loudly, naming the rows, and writes
    nothing."""
    from repro.attacks.spam import FlashCrowd

    shard = ServiceShard(_small_config())
    shard.start()
    crowd = FlashCrowd(shard.runtime, size=2)
    crowd.arrive(shard.engine.now)
    shard.run_until(600.0)
    rows = [shard.runtime.nodes[pid].row for pid in crowd.members]
    with pytest.raises(CheckpointError, match="behaviour code") as err:
        shard.write_checkpoint(tmp_path)
    for row, pid in zip(rows, crowd.members):
        assert f"{row} ({pid})" in str(err.value)
    assert list(tmp_path.iterdir()) == []


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


def _status_doc(scale):
    """A shard status document whose every counter is a distinct
    multiple of ``scale``."""
    return {
        "traffic": {
            "ballotbox": {"exchanges": 1 * scale},
            "moderationcast": {"exchanges": 2 * scale},
        },
        "nodes": {"votes_merged": 4 * scale, "moderations_received": 5 * scale},
        "service": {
            "sim_now": 6 * scale,
            "events_fired": 7 * scale,
            "ops": {"checkpoints": 8 * scale},
            "aggregation": {
                "digests_published": 9 * scale,
                "digests_pulled": 10 * scale,
                "dht_messages": 11 * scale,
            },
        },
    }


def test_status_rates_each_read_their_own_counter(tmp_path):
    """Regression: ``votes_per_sec`` repeated ``merges_per_sec`` (both
    differenced ``votes_merged``).  Move every counter by a different
    amount between two snapshots: no two rates may then agree."""
    supervisor = ServiceSupervisor(ServiceConfig(shards=1), tmp_path)
    status_path = supervisor.shard_dir(0) / STATUS_FILE
    status_path.parent.mkdir(parents=True)
    status_path.write_text(json.dumps(_status_doc(0)))
    supervisor.status()
    time.sleep(0.01)
    status_path.write_text(json.dumps(_status_doc(1000)))
    row = supervisor.status().shards[0]
    rates = [value for key, value in row.items() if key.endswith("_per_sec")]
    assert len(rates) >= 4 and min(rates) > 0.0
    assert len(set(rates)) == len(rates), row


def test_worker_publishes_its_status_after_every_slice(tmp_path, monkeypatch):
    """The worker's status document lands after the build and after
    every slice, and the supervisor reads it while the worker runs."""
    config = ServiceConfig(
        shards=1, until=1800.0, checkpoint_interval=450.0, shard=_small_config()
    )
    supervisor = ServiceSupervisor(config, tmp_path)
    status_path = supervisor.shard_dir(0) / STATUS_FILE
    seen = []
    write = service_module.atomic_write_text

    def spy(path, text):
        write(path, text)
        if path == status_path:
            seen.append(supervisor.shard_summary(0))

    monkeypatch.setattr(service_module, "atomic_write_text", spy)
    previous = signal.getsignal(signal.SIGTERM)
    try:
        _shard_worker_main(
            config.shard_config(0),
            str(supervisor.shard_dir(0)),
            config.until,
            config.checkpoint_interval,
            False,
        )
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert [doc["service"]["sim_now"] for doc in seen] == [
        0.0, 450.0, 900.0, 1350.0, 1800.0
    ]
    assert [doc["service"]["ops"]["checkpoints"] for doc in seen] == [0, 1, 2, 3, 4]
    for doc in seen:
        assert doc["service"]["pid"] == os.getpid()
        assert doc["service"]["heartbeat"] > 0.0
        assert doc["service"]["worker_wall_seconds"] >= 0.0
        assert "ballot_pool" in doc["population"]
    row = supervisor.status().shards[0]
    assert row["sim_now"] == 1800.0 and row["checkpoints"] == 4
    assert shard_failures(supervisor.status()) == []


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


def _kill_shard(supervisor, shard_id):
    """SIGKILL a shard worker; the supervisor's next ``poll`` restarts
    it from its last checkpoint."""
    proc = supervisor._procs[shard_id]
    if proc is not None and proc.is_alive():
        os.kill(proc.pid, signal.SIGKILL)
        proc.join()


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
    assert (tmp_path / "shard-00" / CHECKPOINT_FILE).exists()

    # Phase 2: resume toward the horizon and SIGKILL the worker
    # mid-run; the supervisor must restart it from the checkpoint and
    # the restarted worker must finish the run.
    phase2 = ServiceConfig(
        shards=1, until=until, checkpoint_interval=interval, shard=shard_cfg
    )
    with ServiceSupervisor(phase2, tmp_path, resume=True) as supervisor:
        supervisor.start()
        time.sleep(0.2)
        _kill_shard(supervisor, 0)
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


def test_serve_fails_loudly_when_it_gives_up_on_a_shard(tmp_path):
    """A shard abandoned after its restarts ran out is a failure: the
    helper ``serve`` picks its exit status from names it."""
    config = ServiceConfig(
        shards=2,
        until=900.0,
        checkpoint_interval=450.0,
        shard=_small_config(),
        max_restarts=0,
    )
    with ServiceSupervisor(config, tmp_path) as supervisor:
        supervisor.start()
        _kill_shard(supervisor, 0)
        assert _wait(supervisor.done, timeout=120.0, supervisor=supervisor)
        failures = shard_failures(supervisor.status())
    assert len(failures) == 1
    assert failures[0].startswith("shard 0 gave up")


# ----------------------------------------------------------------------
# Checkpointing while the SoA scheduler's tick window is open
# ----------------------------------------------------------------------
def _same_schedule(a, b):
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, b[key], equal_nan=value.dtype.kind == "f"), key
        else:
            assert value == b[key], key


def test_checkpoint_with_open_window_replays_bit_identically(tmp_path):
    """A checkpoint can land at any instant between two engine events,
    including one where the scheduler's window holds both executed
    (unflushed) and pending entries: it closes the window, and the
    restored shard finishes like one that never checkpointed."""
    config = _small_config()
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
    _same_schedule(population.schedule_state(), before)  # ... and is then stable
    shard.write_checkpoint(tmp_path)

    resumed = ServiceShard.restore_from(config, tmp_path)
    _same_schedule(resumed.runtime.materialize_population().schedule_state(), before)
    resumed.run_until(until)
    shard.run_until(until)
    assert shard.identity_state() == reference.identity_state()
    assert resumed.identity_state() == reference.identity_state()
    assert reference.identity_state()["summary"]["nodes"]["votes_merged"] > 0
