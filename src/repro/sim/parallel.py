"""Parallel replica engine.

The paper's figures are averages over independent simulation replicas
(e.g. "average of 10 trace runs" for Fig 6).  Replicas share no state —
each builds its own trace, engine, RNG registry and protocol runtime
from ``seed + 1000·replica`` — so they are embarrassingly parallel.
:class:`ReplicaPool` farms them over a :mod:`multiprocessing` pool and
returns results in replica order, making ``run_many(jobs=N)``
**bit-identical** to the sequential path: the per-replica computation
is untouched, only *where* it runs changes.

Spawn-safety
------------
The pool uses the ``spawn`` start method (fork can silently copy a
half-initialised interpreter under threads, and spawn is the only
portable choice).  That imposes two constraints honoured here:

* the worker entrypoint (:func:`_run_task`) is a module-level function,
  so children resolve it by import rather than by pickling code;
* everything crossing the process boundary is picklable: experiments
  are shipped as they are (they hold plain configuration, no run
  artefacts), and each worker returns its
  :class:`~repro.experiments.common.ExperimentResult` itself — named
  series of plain float lists plus a metadata dict.  A replica's
  series are a few kilobytes, so they ride the pool's own pickle
  stream.

``jobs=1`` (or a single task) short-circuits to plain in-process calls:
no pool, no pickling, byte-for-byte today's sequential behaviour.

The service supervisor (``repro.sim.service``) reuses this module's
spawn-safety plumbing (:func:`ensure_child_importable`,
:func:`spawn_main_is_reimportable`) for its shard workers.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import warnings
from typing import List, Optional, Sequence, Tuple


def resolve_worker_count(n_tasks: int, jobs: Optional[int]) -> int:
    """Effective worker count for ``n_tasks`` under a ``jobs`` cap.

    ``jobs=None`` auto-sizes to the CPUs this process may run on (its
    affinity mask where the platform exposes one — inside a CPU-pinned
    container ``os.cpu_count()`` reports the host's cores); the result
    is always in ``[1, n_tasks]``.
    """
    if n_tasks <= 0:
        return 1
    if jobs is not None:
        cap = jobs
    elif hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    return max(1, min(n_tasks, cap))


def _run_task(task):
    """Worker entrypoint: run one ``(experiment, replica)`` task.

    Module-level so spawn children can import it; the returned
    :class:`~repro.experiments.common.ExperimentResult` is plain data
    and travels back by pickle.
    """
    experiment, replica = task
    return experiment.run(replica=replica)


def ensure_child_importable() -> None:
    """Make sure spawn children can ``import repro``.

    Spawn starts a fresh interpreter that only inherits environment
    variables — a parent whose ``sys.path`` was extended
    programmatically (pytest, an IDE) would otherwise produce children
    that cannot import this package.  Prepend the package root to
    ``PYTHONPATH`` before the pool forks off.
    """
    root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    existing = os.environ.get("PYTHONPATH", "")
    parts = existing.split(os.pathsep) if existing else []
    if root not in parts:
        os.environ["PYTHONPATH"] = (
            os.pathsep.join([root] + parts) if parts else root
        )


def spawn_main_is_reimportable() -> bool:
    """Whether spawn children can safely re-prepare ``__main__``.

    Spawn re-executes the parent's main module in every child (that is
    what makes the ``__main__`` guard mandatory).  When the parent was
    fed a script on stdin or an equally unreal path, that re-execution
    raises in the child and the pool respawns workers forever; detect
    the case up front so callers degrade to sequential instead of
    hanging.  A REPL (no ``__file__``) and ``python -m pkg`` (spec
    name) are both fine — multiprocessing handles them explicitly.
    """
    main = sys.modules.get("__main__")
    if main is None:
        return True
    if getattr(getattr(main, "__spec__", None), "name", None):
        return True
    path = getattr(main, "__file__", None)
    if path is None:
        return True
    return os.path.exists(path)


class ReplicaPool:
    """Farms independent replica runs over spawned worker processes.

    ``jobs=None`` resolves per call to ``min(n_tasks, available
    CPUs)``; ``jobs=1`` runs sequentially in-process (no pool is
    created), which keeps single-job behaviour byte-identical to the
    pre-parallel code and keeps the pool usable on single-core
    machines.
    """

    def __init__(self, jobs: Optional[int] = None):
        if jobs is not None and jobs < 1:
            raise ValueError("jobs must be >= 1 (or None for auto)")
        self.jobs = jobs

    def resolve_jobs(self, n_tasks: int) -> int:
        """Worker count for ``n_tasks`` tasks under this pool's cap."""
        return resolve_worker_count(n_tasks, self.jobs)

    # ------------------------------------------------------------------
    def run_replicas(self, experiment, replicas: Sequence[int]) -> List:
        """Run ``experiment.run(replica=r)`` for each replica, in replica
        order, returning live :class:`ExperimentResult` objects."""
        return self.run_tasks([(experiment, r) for r in replicas])

    def run_tasks(self, tasks: Sequence[Tuple[object, Optional[int]]]) -> List:
        """Run arbitrary ``(experiment, replica)`` tasks.

        Results come back in task order regardless of completion order
        (``Pool.map`` preserves ordering), so parallel output is
        positionally identical to sequential output.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        jobs = self.resolve_jobs(len(tasks))
        if jobs > 1 and not spawn_main_is_reimportable():
            warnings.warn(
                "spawn workers cannot re-import this __main__ "
                "(script fed via stdin?); running replicas "
                "sequentially instead",
                RuntimeWarning,
                stacklevel=2,
            )
            jobs = 1
        if jobs <= 1:
            # In-process: run the caller's own experiment objects (no
            # pickle round-trip), byte-identical to the pre-parallel
            # code path.
            return [
                experiment.run(replica=replica)
                for experiment, replica in tasks
            ]
        ensure_child_importable()
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=jobs) as pool:
            return pool.map(_run_task, tasks)
