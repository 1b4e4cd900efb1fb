"""BarterCast — distributed sharing-ratio / contribution estimation.

BarterCast [Meulpolder et al., PDS-2008-002], as deployed in Tribler,
lets any node *i* estimate the contribution of any node *j* without a
central authority:

1. nodes record their **own** BitTorrent transfer statistics;
2. nodes gossip those direct records to peers they meet (via the PSS);
3. each node assembles a *subjective graph* whose directed edges carry
   "MBs transferred from u to v";
4. the contribution of *j* as seen by *i*, ``f_{j→i}``, is the maximum
   flow from *j* to *i* in *i*'s subjective graph (deployed BarterCast
   bounds augmenting paths to 2 hops).

The maxflow aggregation is what makes faking experience expensive: a
colluder can invent edges among its accomplices, but every unit of
flow that reaches *i* must cross an edge *into i's own neighbourhood*,
which honest nodes only report when real upload happened.

Modules: :mod:`records` (transfer records), :mod:`graph` (subjective
graph), :mod:`maxflow` (the exact 2-hop closed form),
:mod:`protocol` (the gossip service).
"""

from repro.bartercast.graph import SubjectiveGraph
from repro.bartercast.maxflow import two_hop_flow
from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.bartercast.records import TransferRecord

__all__ = [
    "SubjectiveGraph",
    "two_hop_flow",
    "BarterCastConfig",
    "BarterCastService",
    "TransferRecord",
]
