"""Epidemic (push-sum) vote aggregation — the §V-A road not taken.

The paper: "Faster and more accurate epidemic-style aggregation
protocols have been proposed but they are highly vulnerable to lying
behaviour [Jelasity et al. 2005]."  BallotBox trades speed for the
one-node-one-vote guarantee.  This module implements the rejected
alternative so the trade-off can be measured:

**Push-sum** estimates the population average of a per-node value: each
node holds ``(sum, weight)``, initialised to ``(value, 1)``; every
round it keeps half of each and sends the other half to a random peer;
``sum/weight`` converges to the true average exponentially fast.

Honest runs confirm the "faster and more accurate" half of the claim.
A single liar, however, can *re-inject* fabricated mass every round —
resetting its state to ``(lie_value, 1)`` before emitting — and drag
every node's estimate toward an arbitrary value.  Mass conservation,
the invariant push-sum's correctness rests on, is unverifiable by the
receivers; that is the vulnerability that motivated direct sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np


@dataclass
class PushSumNode:
    """One node's push-sum state for a single aggregate."""

    node_id: str
    value: float
    sum: float = 0.0
    weight: float = 1.0
    #: liars reset their state to (lie_value, 1) before every emit,
    #: re-injecting fabricated mass each round.  ``None`` = honest.
    lie_value: Optional[float] = None

    def __post_init__(self) -> None:
        self.sum = self.value

    @property
    def estimate(self) -> float:
        return self.sum / self.weight if self.weight > 0 else 0.0

    def emit(self) -> tuple:
        """Split state in half and return the outgoing share.

        Honest nodes conserve mass exactly; a liar re-seeds fabricated
        mass first (receivers cannot audit conservation)."""
        if self.lie_value is not None:
            self.sum = self.lie_value
            self.weight = 1.0
        self.sum /= 2.0
        self.weight /= 2.0
        return (self.sum, self.weight)

    def absorb(self, s: float, w: float) -> None:
        self.sum += s
        self.weight += w


class PushSumAggregation:
    """Round-based push-sum over a population.

    ``values[node] = ±1`` votes (or any number); liars (if any) always
    report inflated sums.
    """

    def __init__(
        self,
        values: Dict[str, float],
        rng: np.random.Generator,
        liars: Sequence[str] = (),
        lie_value: float = 100.0,
        include_liars: bool = False,
    ):
        if not values:
            raise ValueError("population must be non-empty")
        liar_set = set(liars)
        unknown = liar_set - set(values)
        if unknown:
            raise ValueError(f"liars not in population: {unknown}")
        self.rng = rng
        self.nodes: Dict[str, PushSumNode] = {
            nid: PushSumNode(
                nid, v, lie_value=lie_value if nid in liar_set else None
            )
            for nid, v in values.items()
        }
        # Ground truth is the *honest* average — mean_absolute_error
        # promises liars' fabrications are excluded.
        # ``include_liars=True`` keeps the old all-values average for
        # experiments that depend on it.
        if include_liars:
            truth_pool = list(values.values())
        else:
            truth_pool = [v for nid, v in values.items() if nid not in liar_set]
            if not truth_pool:
                raise ValueError(
                    "every node lies: no honest ground truth "
                    "(pass include_liars=True for the all-values average)"
                )
        self.true_average = float(np.mean(truth_pool))
        self.rounds_run = 0

    def run_round(self) -> None:
        """One synchronous push-sum round (random partner each)."""
        ids = list(self.nodes)
        order = self.rng.permutation(len(ids))
        outgoing: List[tuple] = []
        for i in order:
            sender = self.nodes[ids[int(i)]]
            target = ids[int(self.rng.integers(0, len(ids)))]
            outgoing.append((target, *sender.emit()))
        for target, s, w in outgoing:
            self.nodes[target].absorb(s, w)
        self.rounds_run += 1

    def run(self, rounds: int) -> None:
        for _ in range(rounds):
            self.run_round()

    # ------------------------------------------------------------------
    def estimates(self) -> Dict[str, float]:
        return {nid: n.estimate for nid, n in self.nodes.items()}

    def mean_absolute_error(self) -> float:
        """Population-mean error of per-node estimates vs ground truth
        (the *honest* average, liars' fabrications excluded)."""
        errs = [abs(n.estimate - self.true_average) for n in self.nodes.values()]
        return float(np.mean(errs))
