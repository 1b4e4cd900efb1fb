"""Collective Experience Value (§VI-A).

::

    CEV = (1/N) · Σ_i Σ_{j≠i} e_i(j) / (N − 1)

where ``e_i(j) = 1`` iff ``E_i(j)`` — a directed graph-density measure
of how much experience exists between ordered node pairs.  The paper
computes it with global knowledge over *all* peers in the trace (not
just the online ones); so do we.

The hot path is vectorised: BarterCast's deployed 2-hop maxflow has the
closed form ``f(j→i) = W[j,i] + Σ_k min(W[j,k], W[k,i])`` per observer
``i`` over the observer's subjective weight matrix ``W``, which numpy
evaluates as one ``minimum`` + ``sum`` per observer.  Computing flows
for *all* sources at once also lets one simulation run yield the CEV
for every threshold ``T`` simultaneously (Fig 5 plots several).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bartercast.protocol import BarterCastService


def flows_to_observer(
    bartercast: BarterCastService, observer: str, peers: Sequence[str]
) -> np.ndarray:
    """``f_{j→observer}`` for every ``j`` in ``peers`` (2-hop bound).

    Routed through the service's vectorised batch-contribution oracle
    (:meth:`BarterCastService.contributions_to_observer`), which
    evaluates the closed form afresh on every call; to skip idle
    observers across samples, use :class:`FlowMatrixCache`.
    Intermediate hops range over every node the observer's graph knows,
    matching ``two_hop_flow`` exactly.
    """
    return bartercast.contributions_to_observer(observer, list(peers))


class FlowMatrixCache:
    """Incrementally maintained flow matrix over a fixed population.

    Holds ``F[i, j] = f_{j→i}`` across metric samples and, on each
    :meth:`matrix` call, recomputes **only the rows whose observer's
    subjective graph changed** since the previous sample — row ``i``
    depends solely on observer ``i``'s graph, whose monotone
    ``version`` counter is an exact validity key.  Unchanged rows are
    reused verbatim, so the result is bit-identical to a full
    recompute.  ``rows_recomputed`` / ``rows_reused`` expose the split
    for telemetry and tests.
    """

    def __init__(self, bartercast: BarterCastService, peers: Sequence[str]):
        self.bartercast = bartercast
        self.peers: List[str] = list(peers)
        n = len(self.peers)
        self._versions: List[Optional[int]] = [None] * n
        self._F = np.zeros((n, n))
        self.rows_recomputed = 0
        self.rows_reused = 0

    def matrix(self) -> np.ndarray:
        """The up-to-date flow matrix (a live internal array — callers
        must treat it as read-only; :func:`flow_matrix` hands out
        copies)."""
        for row, observer in enumerate(self.peers):
            version = self.bartercast.graph_of(observer).version
            if self._versions[row] == version:
                self.rows_reused += 1
                continue
            self._F[row, :] = flows_to_observer(self.bartercast, observer, self.peers)
            self._versions[row] = version
            self.rows_recomputed += 1
        return self._F


def flow_matrix(
    bartercast: BarterCastService,
    peers: Sequence[str],
    cache: Optional[FlowMatrixCache] = None,
) -> np.ndarray:
    """``F[i, j] = f_{j→i}``: what observer ``i`` credits source ``j``.

    With ``cache`` (a :class:`FlowMatrixCache` built over the same
    peer list) only changed-observer rows are recomputed; the returned
    array is always the caller's to mutate."""
    ids = list(peers)
    if cache is not None:
        if cache.peers != ids:
            raise ValueError("cache was built over a different peer list")
        return cache.matrix().copy()
    F = np.zeros((len(ids), len(ids)))
    for row, observer in enumerate(ids):
        F[row, :] = flows_to_observer(bartercast, observer, ids)
    return F


def collective_experience_value(
    bartercast: BarterCastService,
    peers: Sequence[str],
    thresholds: Sequence[float],
    cache: Optional[FlowMatrixCache] = None,
) -> Dict[float, float]:
    """CEV for each threshold ``T`` — one pass over the flow matrix.

    Returns ``{T: CEV}``.  ``peers`` is the *total* trace population.
    Passing a :class:`FlowMatrixCache` makes successive samples
    incremental (only changed-observer rows are recomputed).
    """
    ids = list(peers)
    n = len(ids)
    if n < 2:
        return {float(t): 0.0 for t in thresholds}
    if cache is not None:
        if cache.peers != ids:
            raise ValueError("cache was built over a different peer list")
        F = cache.matrix()
    else:
        F = flow_matrix(bartercast, ids)
    out: Dict[float, float] = {}
    denom = n * (n - 1)
    for t in thresholds:
        # diagonal is zero flow, so with t > 0 it never counts; guard
        # t == 0 by masking the diagonal explicitly.
        hits = F >= float(t)
        if t <= 0:
            np.fill_diagonal(hits, False)
        out[float(t)] = float(hits.sum()) / denom
    return out
