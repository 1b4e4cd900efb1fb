"""The experience function E (§V-B) and the adaptive-T extension (§VII).

``E_i(j)`` decides whether node *i* accepts votes from node *j*.  The
paper's implementation: *j* is experienced to *i* iff the BarterCast
contribution ``f_{j→i}`` (maxflow from j to i in i's subjective graph)
reaches a threshold ``T`` (5 MB in the evaluation).

The Discussion sketches an adaptive variant: start at ``T = 0`` and
raise ``T`` when the *dispersion* of incoming votes exceeds ``D_max``
(disagreement suggests an attack), lower it when opinion re-converges.
:class:`AdaptiveThresholdExperience` implements that controller.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence

from repro.sim.units import MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.bartercast.protocol import BarterCastService
    from repro.core.ballotbox import BallotBox
    from repro.core.columnar import ColumnarStateStore


class ExperienceFunction(ABC):
    """Binary experience predicate ``E_i(j)``."""

    @abstractmethod
    def is_experienced(self, observer: str, subject: str) -> bool:
        """``True`` iff ``observer`` considers ``subject`` experienced."""

    def experienced_many(
        self, observer: str, subjects: Sequence[str]
    ) -> Dict[str, bool]:
        """Evaluate ``E_observer`` over many subjects at once.

        Semantically equivalent to calling :meth:`is_experienced` per
        subject; BarterCast-backed implementations override this to use
        the vectorised batch-contribution oracle instead of one flow
        evaluation per pair."""
        return {s: self.is_experienced(observer, s) for s in subjects}

    def threshold_for(self, observer: str) -> float:
        """The observer's current threshold in bytes (diagnostics)."""
        return 0.0


class AlwaysExperienced(ExperienceFunction):
    """Degenerate E ≡ true — the no-defence baseline used in ablations
    to show what Sybil voting does without the experience gate."""

    def is_experienced(self, observer: str, subject: str) -> bool:
        return observer != subject


@dataclass
class ThresholdExperience(ExperienceFunction):
    """The paper's E: ``f_{j→i} ≥ T`` over BarterCast maxflow."""

    bartercast: "BarterCastService"
    threshold: float = 5 * MB

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ValueError("threshold must be non-negative")

    def is_experienced(self, observer: str, subject: str) -> bool:
        if observer == subject:
            return False
        if self.threshold <= 0.0:
            # Flows are non-negative, so T <= 0 accepts everyone —
            # skip the contribution evaluation entirely (the same
            # fast path the adaptive controller takes at T = 0).
            return True
        return self.bartercast.contribution(observer, subject) >= self.threshold

    def experienced_many(
        self, observer: str, subjects: Sequence[str]
    ) -> Dict[str, bool]:
        subjects = list(subjects)
        if self.threshold <= 0.0:
            return {s: s != observer for s in subjects}
        if len(subjects) == 1:
            # A batch of one must take the scalar path: the scalar
            # ``two_hop_flow`` sums in out-row order and the batch in
            # ascending node-id order, so the two may differ in the
            # last ulp — enough to flip a verdict at exactly T.  The
            # vote tick's default fanout hits this path on every
            # exchange.
            return {subjects[0]: self.is_experienced(observer, subjects[0])}
        flows = self.bartercast.contributions_to_observer(observer, subjects)
        return {
            s: (s != observer and f >= self.threshold)
            for s, f in zip(subjects, flows)
        }

    def threshold_for(self, observer: str) -> float:
        return self.threshold


class AdaptiveThresholdExperience(ExperienceFunction):
    """Per-node dispersion-driven threshold (§VII, future work).

    Each node starts at ``T = 0``.  Periodically the runtime calls
    :meth:`update` with the node's current ballot box; the controller
    measures *vote dispersion* — for every moderator with at least two
    votes, ``4·p·(1−p)`` where ``p`` is the positive fraction (0 when
    everyone agrees, 1 at a 50/50 split) — taking the **maximum** over
    moderators: one sharply contested moderator is the attack signal,
    and averaging would let unanimous spam on other names dilute it.
    Dispersion above ``d_max`` raises ``T`` by ``step`` (capped at
    ``t_max``); dispersion at or below ``d_max`` lowers it by ``step``
    (floored at 0).  "Peers look to shield themselves from the votes of
    newcomers and place their trust in more experienced members."
    """

    def __init__(
        self,
        bartercast: "BarterCastService",
        d_max: float = 0.5,
        step: float = 1 * MB,
        t_max: float = 50 * MB,
    ):
        if not (0.0 <= d_max <= 1.0):
            raise ValueError("d_max must be in [0, 1]")
        if step <= 0 or t_max <= 0:
            raise ValueError("step and t_max must be positive")
        self.bartercast = bartercast
        self.d_max = d_max
        self.step = step
        self.t_max = t_max
        self._thresholds: Dict[str, float] = {}
        self._store: "ColumnarStateStore | None" = None

    def bind_store(self, store: "ColumnarStateStore") -> None:
        """Mirror per-node thresholds into the store's
        ``exp_threshold`` column.  The dict stays authoritative for
        scalar reads; the column lets batched paths gate a whole due
        batch with one slice compare (``exp_threshold[rows] <= 0``)."""
        self._store = store
        for observer, t in self._thresholds.items():
            store.exp_threshold[store.ensure_row(observer)] = t

    # ------------------------------------------------------------------
    @staticmethod
    def dispersion(ballot_box: "BallotBox") -> float:
        """Worst-case per-moderator vote disagreement in ``[0, 1]``.

        Delegates to :meth:`~repro.core.ballotbox.BallotBox.dispersion`:
        one vectorised ``np.bincount`` scan of the box's row over
        interned moderator ids, no Python-dict walking on the adaptive
        tick."""
        return ballot_box.dispersion()

    def update(self, observer: str, ballot_box: "BallotBox") -> float:
        """Adapt the observer's T from its current ballot box; returns
        the new threshold."""
        t = self._thresholds.get(observer, 0.0)
        if self.dispersion(ballot_box) > self.d_max:
            t = min(t + self.step, self.t_max)
        else:
            t = max(t - self.step, 0.0)
        self._thresholds[observer] = t
        if self._store is not None:
            self._store.exp_threshold[self._store.ensure_row(observer)] = t
        return t

    def is_experienced(self, observer: str, subject: str) -> bool:
        if observer == subject:
            return False
        t = self._thresholds.get(observer, 0.0)
        if t <= 0.0:
            return True
        return self.bartercast.contribution(observer, subject) >= t

    def experienced_many(
        self, observer: str, subjects: Sequence[str]
    ) -> Dict[str, bool]:
        subjects = list(subjects)
        t = self._thresholds.get(observer, 0.0)
        if t <= 0.0:
            return {s: s != observer for s in subjects}
        if len(subjects) == 1:
            # Scalar path for a batch of one, as in ThresholdExperience:
            # the batch's sorted-order sum may differ from the scalar
            # out-row-order sum in the last ulp (a flipped verdict at
            # exactly T).
            return {subjects[0]: self.is_experienced(observer, subjects[0])}
        flows = self.bartercast.contributions_to_observer(observer, subjects)
        return {s: (s != observer and f >= t) for s, f in zip(subjects, flows)}

    def threshold_for(self, observer: str) -> float:
        return self._thresholds.get(observer, 0.0)
