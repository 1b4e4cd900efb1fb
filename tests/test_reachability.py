"""The reachability hook and gate (``scripts/reachability.py``).

The hook must see code that runs only in spawned workers: a
``ReplicaPool`` with two jobs runs each task in a worker process and
ends the workers with SIGTERM, so a record that only dumped at exit
would miss them.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _reachability():
    path = REPO / "scripts" / "reachability.py"
    spec = importlib.util.spec_from_file_location("reachability", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Probe:
    """A replica task: with ``jobs=2`` its ``run`` runs only in workers."""

    def run(self, replica=None):
        return replica


def test_hook_records_replica_pool_workers(tmp_path):
    reach = _reachability()
    log = tmp_path / "probe.log"
    code = (
        "from repro.sim.parallel import ReplicaPool\n"
        "from tests.test_reachability import Probe\n"
        "assert ReplicaPool(jobs=2).run_tasks([(Probe(), 0), (Probe(), 1)]) == [0, 1]\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], cwd=REPO, env=reach.hook_env(str(tmp_path), log),
        check=True, timeout=120,
    )
    lines = log.read_text(encoding="utf-8").splitlines()
    assert f"{Path(__file__).resolve()}\t{Probe.run.__code__.co_firstlineno}\trun" in lines
    assert "repro.sim.parallel:_run_task" in reach.entered(log)


def test_gate_flags_unentered_stale_and_stale_record():
    reach = _reachability()
    record = {name: ["somewhere"] for name in reach.definitions()}
    record["repro.sim.engine:Engine.run_until"] = [reach.TIMED]  # timed, not used
    record["repro.sim.engine:Engine.schedule_at"] = []
    del record["repro.sim.engine:Engine.schedule"]
    record["repro.sim.engine:Engine.gone"] = ["somewhere"]
    failures = reach.gate(record)
    assert sorted(u.split(": ")[1] for u in failures["unlisted"]) == [
        "repro.sim.engine:Engine.run_until",
        "repro.sim.engine:Engine.schedule_at",
    ]
    assert failures["stale"] == list(reach.ALLOWLIST)  # all entered now
    assert failures["missing"] == ["repro.sim.engine:Engine.schedule"]
    assert failures["gone"] == ["repro.sim.engine:Engine.gone"]
