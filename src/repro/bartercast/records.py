"""BarterCast transfer records.

A record is one node's statement about its *own* transfer totals with
one partner.  Receivers enforce the BarterCast acceptance rule: a
record is only accepted if the reporter is one of its two endpoints —
nodes may lie about their own edges (collusion) but cannot inject
arbitrary third-party edges into other nodes' subjective graphs.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TransferRecord:
    """Reporter's cumulative transfer totals with one partner.

    Attributes
    ----------
    reporter:
        The node making the statement.
    partner:
        The other endpoint.
    up:
        Bytes the reporter uploaded to the partner (edge
        ``reporter → partner``).
    down:
        Bytes the reporter downloaded from the partner (edge
        ``partner → reporter``).
    timestamp:
        When the reporter last updated these totals.
    """

    reporter: str
    partner: str
    up: float
    down: float
    timestamp: float

    def __post_init__(self) -> None:
        if self.reporter == self.partner:
            raise ValueError("a record must involve two distinct peers")
        if self.up < 0 or self.down < 0:
            raise ValueError("transfer totals cannot be negative")
