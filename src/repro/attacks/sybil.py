"""Sybil attack: one operator, many cheap identities (§V-B).

Operationally a Sybil attack on this system *is* a flash crowd — the
identities are all crowd rows (:class:`~repro.attacks.spam.FlashCrowd`)
— but modelling the operator separately makes the paper's cost argument
measurable: identities are free to mint, yet each one must still upload
``T`` bytes of real data *per victim neighbourhood* before its votes
count, so the attack cost scales with the experienced core.
"""

from __future__ import annotations

from typing import List, Optional

from repro.attacks.spam import FlashCrowd
from repro.core.runtime import ProtocolRuntime
from repro.identity.authority import IdentityAuthority, PeerIdentity


class SybilAttacker:
    """An operator minting identities and deploying them as a crowd."""

    def __init__(
        self,
        runtime: ProtocolRuntime,
        authority: IdentityAuthority,
        spam_moderator: str = "M0",
        id_prefix: str = "sybil",
    ):
        self.runtime = runtime
        self.authority = authority
        self.spam_moderator = spam_moderator
        self.id_prefix = id_prefix
        self.identities: List[PeerIdentity] = []
        self.crowd: Optional[FlashCrowd] = None

    def mint_identities(self, count: int) -> List[PeerIdentity]:
        """Create ``count`` fresh identities.  Cheap by design — the
        system's defence is the experience gate, not identity cost."""
        start = len(self.identities)
        fresh = [
            self.authority.create_identity(f"{self.id_prefix}{start + i:03d}")
            for i in range(count)
        ]
        self.identities.extend(fresh)
        return fresh

    def deploy(self, now: float) -> FlashCrowd:
        """Register every minted identity as a colluder and flash them
        online."""
        if not self.identities:
            raise RuntimeError("mint identities before deploying")
        if self.crowd is not None:
            raise RuntimeError("already deployed")
        self.crowd = FlashCrowd(
            self.runtime,
            size=len(self.identities),
            spam_moderator=self.spam_moderator,
            id_prefix=self.id_prefix,
        )
        self.crowd.arrive(now)
        return self.crowd

    # ------------------------------------------------------------------
    def upload_cost_to_influence(self, victims: List[str], threshold: float) -> float:
        """Lower bound on the *real upload* the operator still owes for
        its identities' votes to be accepted by ``victims``: every
        identity needs ``f ≥ threshold`` into every victim, and flow is
        conserved, so the operator must genuinely push at least
        ``threshold`` bytes per (identity, victim) pair into the honest
        neighbourhood."""
        return float(len(self.identities) * len(victims) * threshold)
