"""Sampling accuracy of the BallotBox "opinion poll".

Ground truth is the population's vote share: for moderator *m*, the
true positive share is ``p_m = (#peers voting +m) / (#peers voting on
m)``.  A node's ballot box estimates ``p_m`` from at most ``B_max``
sampled voters; if the PSS is uniform the estimate is a without-
replacement binomial sample, so its standard error is bounded by
``1 / (2 · sqrt(n))`` — the classic opinion-poll bound the paper's
analogy invokes.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional

from repro.core.ballotbox import BallotBox


def ballot_share_estimate(
    ballot_box: BallotBox, moderator_id: str
) -> Optional[float]:
    """The node's estimate of a moderator's positive share, or ``None``
    if its sample holds no votes on that moderator."""
    p, n = ballot_box.counts(moderator_id)
    if p + n == 0:
        return None
    return p / (p + n)


def mean_estimation_error(
    ballot_boxes: Iterable[BallotBox],
    truth: Mapping[str, float],
) -> float:
    """Mean absolute error of per-node share estimates vs ground truth,
    averaged over (node, moderator) pairs where the node has a sample.

    Nodes with no sample for any moderator contribute nothing — the
    metric measures *accuracy of estimates*, not coverage.
    """
    total_err = 0.0
    count = 0
    for bb in ballot_boxes:
        for m, p_true in truth.items():
            est = ballot_share_estimate(bb, m)
            if est is None:
                continue
            total_err += abs(est - p_true)
            count += 1
    return total_err / count if count else 0.0


def binomial_error_bound(sample_size: int) -> float:
    """Worst-case standard error of a share estimate from ``n``
    independent samples: ``1 / (2·sqrt(n))`` (maximised at p = 1/2)."""
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    return 1.0 / (2.0 * math.sqrt(sample_size))
