"""Attack models (§V-B, §VI-C, §VII).

* :mod:`repro.attacks.spam` — collusive flash crowds promoting a spam
  moderator (the Fig 8 attack), including the malicious VoxPopuli
  responder behaviour;
* :mod:`repro.attacks.sybil` — a single attacker minting many cheap
  identities (operationally a flash crowd; the identity ledger makes
  the "cheap identities" point measurable);
* :mod:`repro.attacks.collusion` — the BarterCast front-peer / fake
  experience attack: colluders fabricate mutual transfer statements.
"""

from repro.attacks.collusion import FakeExperienceColluders
from repro.attacks.spam import FlashCrowd
from repro.attacks.sybil import SybilAttacker

__all__ = [
    "FlashCrowd",
    "SybilAttacker",
    "FakeExperienceColluders",
]
