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
  are shipped after :func:`_strip` clears unpicklable run artefacts
  (e.g. a cached :class:`~repro.experiments.common.SimulationStack`),
  and results come back as :class:`PackedResult` — plain ``(n, 2)``
  numpy arrays plus a metadata dict — rather than live objects.  A
  replica's series are a few kilobytes, so they ride the pool's own
  pickle stream.

``jobs=1`` (or a single task) short-circuits to plain in-process calls:
no pool, no pickling, byte-for-byte today's sequential behaviour.

Shared-memory segments
----------------------
:func:`create_segment` / :class:`AttachedSegment` pack numpy arrays
into one ``multiprocessing.shared_memory`` block described by a
picklable :class:`SegmentSpec`.  Their one caller is the service
supervisor (``repro.sim.service``), whose shard workers write their
status counters into a block the parent reads without a round trip.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import secrets
import sys
import warnings
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np


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


# ----------------------------------------------------------------------
# Shared-memory segment packing
# ----------------------------------------------------------------------

#: Every segment this module creates is named with this prefix, so
#: leak checks (tests, ops) can enumerate ``/dev/shm/reproshm_*``.
SHM_PREFIX = "reproshm"

#: Array offsets inside a segment are aligned to this many bytes so
#: mapped views are always well-aligned for float64/int64 access.
_SHM_ALIGN = 64


def _unique_segment_name() -> str:
    return f"{SHM_PREFIX}_{os.getpid()}_{secrets.token_hex(8)}"


@dataclass(frozen=True)
class SegmentSpec:
    """Picklable header describing arrays packed into one segment.

    ``entries`` holds ``(key, offset, dtype, shape)`` per array — the
    only thing that travels by pickle; the floats themselves stay in
    the named shared-memory block.
    """

    name: str
    entries: Tuple[Tuple[str, int, str, Tuple[int, ...]], ...]


def _pack_layout(
    arrays: Sequence[Tuple[str, np.ndarray]]
) -> Tuple[Tuple[Tuple[str, int, str, Tuple[int, ...]], ...], int]:
    """Assign an aligned offset to each array; returns (entries, total)."""
    entries = []
    offset = 0
    for key, arr in arrays:
        offset = (offset + _SHM_ALIGN - 1) & ~(_SHM_ALIGN - 1)
        entries.append((key, offset, arr.dtype.str, tuple(arr.shape)))
        offset += arr.nbytes
    # Trailing pad so zero-size arrays at the end still map cleanly.
    return tuple(entries), offset + _SHM_ALIGN


def create_segment(
    arrays: Dict[str, np.ndarray]
) -> Tuple[shared_memory.SharedMemory, SegmentSpec]:
    """Create one segment holding copies of ``arrays``.

    The caller owns the returned handle (close it when done writing;
    whoever *consumes* the data unlinks).  Array bytes are copied
    verbatim, so rehydrated views are bit-identical."""
    items = [(k, np.ascontiguousarray(v)) for k, v in arrays.items()]
    entries, total = _pack_layout(items)
    shm = shared_memory.SharedMemory(
        create=True, size=total, name=_unique_segment_name()
    )
    for (key, off, dtype, shape), (_k, arr) in zip(entries, items):
        if arr.size:
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
            view[...] = arr
            del view
    return shm, SegmentSpec(name=shm.name, entries=entries)


class AttachedSegment:
    """A consumer-side mapping of a :class:`SegmentSpec`.

    ``arrays`` maps each key to a read-only numpy view into the shared
    block — zero copies.  Call :meth:`close` (after dropping any views
    you still hold) to release the mapping; ``unlink=True`` also
    removes the segment from the system."""

    def __init__(self, spec: SegmentSpec, writable: bool = False):
        self._shm = shared_memory.SharedMemory(name=spec.name)
        self.arrays: Dict[str, np.ndarray] = {}
        for key, off, dtype, shape in spec.entries:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=self._shm.buf, offset=off
            )
            if not writable:
                view.setflags(write=False)
            self.arrays[key] = view

    def close(self, unlink: bool = False) -> None:
        self.arrays = {}
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        try:
            self._shm.close()
        except BufferError:  # pragma: no cover - a view outlived us
            # A still-referenced view pins the mapping; the segment is
            # already unlinked above, so nothing leaks system-wide.
            pass


@dataclass
class PackedResult:
    """A picklable snapshot of an :class:`ExperimentResult`.

    ``series`` maps each series name to its ``(n, 2)`` ``[t, value]``
    array — the exact floats the live :class:`TimeSeries` held, so
    packing/unpacking round-trips bit-identically.
    """

    name: str
    series: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)


def pack_result(result) -> PackedResult:
    """Flatten an :class:`ExperimentResult` into picklable arrays."""
    return PackedResult(
        name=result.name,
        series={k: s.as_array() for k, s in result.series.items()},
        metadata=dict(result.metadata),
    )


def unpack_result(packed: PackedResult):
    """Rebuild a live :class:`ExperimentResult` from a pack."""
    from repro.experiments.common import ExperimentResult
    from repro.metrics.timeseries import TimeSeries

    result = ExperimentResult(name=packed.name)
    for key, arr in packed.series.items():
        s = TimeSeries(key)
        for t, v in arr:
            s.append(float(t), float(v))
        result.series[key] = s
    result.metadata = dict(packed.metadata)
    return result


def _strip(experiment):
    """A shallow copy of ``experiment`` safe to ship to a worker.

    Experiments may cache live run artefacts (``last_stack`` holds the
    fully wired engine/runtime of the previous run) that are neither
    picklable nor meaningful in a child; clear them on the copy.
    """
    clone = copy.copy(experiment)
    if hasattr(clone, "last_stack"):
        clone.last_stack = None
    return clone


def _run_task(task) -> PackedResult:
    """Worker entrypoint: run one ``(experiment, replica)`` task.

    Module-level so spawn children can import it; returns a
    :class:`PackedResult` so nothing unpicklable travels back.
    """
    experiment, replica = task
    result = experiment.run(replica=replica)
    return pack_result(result)


def _ensure_child_importable() -> None:
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


#: Public aliases: the long-lived service mode (``repro.sim.service``)
#: reuses this module's spawn-safety plumbing for its shard workers.
ensure_child_importable = _ensure_child_importable


def _spawn_main_is_reimportable() -> bool:
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


#: Public alias for the service supervisor's spawn-capability probe.
spawn_main_is_reimportable = _spawn_main_is_reimportable


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
        if jobs > 1 and not _spawn_main_is_reimportable():
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
            # pack/unpack round-trip) so side artefacts such as
            # ``last_stack`` stay observable and single-job behaviour
            # is byte-identical to the pre-parallel code path.
            return [
                experiment.run(replica=replica)
                for experiment, replica in tasks
            ]
        _ensure_child_importable()
        shipped = [(_strip(experiment), replica) for experiment, replica in tasks]
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=jobs) as pool:
            packed = pool.map(_run_task, shipped)
        return [unpack_result(p) for p in packed]
