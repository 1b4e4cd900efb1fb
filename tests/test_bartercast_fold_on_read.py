"""Direct observations folded on read against folding at every transfer.

``BarterCastService.local_transfers`` only updates the direct tables and
notes the edges; the subjective graphs catch up the next time one is
read or written.  The reference here is the behaviour that replaced:
``SubjectiveGraph.observe_direct`` called on both endpoints' graphs at
every single transfer.  Under random interleavings of every operation
that reads or writes a graph — single transfers and whole rounds, on
dense traffic (any two peers trade) and sparse traffic (each peer
trades with its two ring neighbours only) — the two must agree on
everything observable: edges and their insertion order, node order,
matrices, every returned value and the records-cache counters.  (Graph
*version numbers* differ by design — folding once bumps them less often
— and only their equality between two reads is ever used.)
"""

import numpy as np
import pytest

from repro.attacks.collusion import FakeExperienceColluders
from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.bartercast.records import TransferRecord
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS
from tests import reference_bartercast as ref

PEERS = [f"p{i:02d}" for i in range(12)]
#: third parties that only ever appear in injected hearsay
STRANGERS = [f"x{i}" for i in range(10)]


class EagerService(BarterCastService):
    """Every transfer reaches both endpoints' graphs at once."""

    def local_transfers(self, transfers, now):
        for uploader, downloader, nbytes in transfers:
            super().local_transfers([(uploader, downloader, nbytes)], now)
            if nbytes <= 0:
                continue
            for owner, partner, column in (
                (uploader, downloader, 0),
                (downloader, uploader, 1),
            ):
                state = self._nodes[owner]
                state.pending.clear()
                state._graph.observe_direct(
                    uploader, downloader, state.direct[partner][column]
                )


def make(cls, seed, **cfg):
    registry = OnlineRegistry()
    for pid in PEERS:
        registry.set_online(pid)
    pss = OraclePSS(registry, np.random.default_rng(seed))
    return cls(pss, BarterCastConfig(**cfg))


def trading_pair(rng, traffic):
    """An (uploader, downloader) pair: any two peers under dense
    traffic, a peer and one of its ring neighbours under sparse."""
    if traffic == "dense":
        return tuple(str(p) for p in rng.choice(PEERS, 2, replace=False))
    i = int(rng.integers(len(PEERS)))
    j = (i + (1 if rng.random() < 0.5 else -1)) % len(PEERS)
    return PEERS[i], PEERS[j]


def random_ops(rng, n_ops, traffic):
    kinds = rng.choice(
        ["transfer", "round", "gossip", "inject", "contribution", "batch", "records", "collude"],
        size=n_ops,
        p=[0.52, 0.10, 0.10, 0.06, 0.12, 0.04, 0.05, 0.01],
    )
    now = 0.0
    for kind in kinds:
        now += float(rng.integers(1, 30))
        a, b = (str(p) for p in rng.choice(PEERS, 2, replace=False))
        if kind == "transfer":
            u, d = trading_pair(rng, traffic)
            yield "local_transfer", (u, d, float(rng.integers(1, 2000)), now)
        elif kind == "round":
            links = [trading_pair(rng, traffic) for _ in range(int(rng.integers(1, 6)))]
            yield "local_transfers", (
                [(u, d, float(rng.integers(0, 2000))) for u, d in links],
                now,
            )
        elif kind == "gossip":
            yield "gossip_tick", (a, now)
        elif kind == "inject":
            reporter, partner = (str(p) for p in rng.choice(STRANGERS + PEERS, 2, replace=False))
            record = TransferRecord(
                reporter=reporter,
                partner=partner,
                up=float(rng.integers(0, 500)),
                down=float(rng.integers(0, 500)),
                timestamp=now,
            )
            yield "inject_record", (a, record)
        elif kind == "contribution":
            yield "contribution", (a, b)
        elif kind == "batch":
            yield "contributions_to_observer", (a, PEERS + STRANGERS[:3])
        elif kind == "records":
            yield "records_of", (a,)
        else:
            yield "collude", (a, b, now)


def apply(service, op, args):
    if op == "collude":
        a, b, now = args
        FakeExperienceColluders(service, [a, b], claimed_bytes=5000.0).seed_own_tables(now)
        return None
    out = getattr(service, op)(*args)
    return out.tolist() if isinstance(out, np.ndarray) else out


def snapshot(service):
    graphs = {}
    for pid in PEERS + STRANGERS:
        graph = service.graph_of(pid)
        ids, mat = graph.dense()
        graphs[pid] = (ref.edges(graph), ids, mat.tolist(), graph.records_folded)
    return graphs, service.cache_stats(), sorted(service._nodes)


@pytest.mark.parametrize("traffic", ["dense", "sparse"])
@pytest.mark.parametrize("seed", range(6))
def test_fold_on_read_matches_fold_at_every_transfer(seed, traffic):
    lazy = make(BarterCastService, seed)
    eager = make(EagerService, seed)
    rng = np.random.default_rng(1000 + seed)
    ops = list(random_ops(rng, 600, traffic))
    # full-state comparisons force a fold everywhere, so make them rare
    checkpoints = set(rng.choice(len(ops), 3, replace=False).tolist())
    for step, (op, args) in enumerate(ops):
        assert apply(lazy, op, args) == apply(eager, op, args), (step, op, args)
        if step in checkpoints:
            assert snapshot(lazy) == snapshot(eager), step
    assert snapshot(lazy) == snapshot(eager)

    assert lazy.cache_stats()["records_hits"]


def test_transfers_reach_the_graph_once_at_the_latest_total():
    service = make(BarterCastService, 0)
    for k in range(1, 6):
        service.local_transfer("p00", "p01", 10.0, now=float(k))
    state = service._nodes["p00"]
    assert list(state.pending) == [("p00", "p01")]
    assert state._graph.version == 0  # nothing folded yet
    graph = service.graph_of("p00")
    assert ref.weight(graph, "p00", "p01") == 50.0
    assert graph.version == 1  # one fold, not five
    assert not state.pending


def test_pending_edges_fold_in_first_touched_order():
    service = make(BarterCastService, 0)
    service.local_transfer("p03", "p00", 1.0, now=1.0)
    service.local_transfer("p00", "p02", 1.0, now=2.0)
    service.local_transfer("p03", "p00", 1.0, now=3.0)  # re-touch: keeps its place
    service.local_transfer("p00", "p01", 1.0, now=4.0)
    graph = service.graph_of("p00")
    assert ref.edges(graph) == [
        ("p03", "p00", 2.0),
        ("p00", "p02", 1.0),
        ("p00", "p01", 1.0),
    ]
    assert graph.dense()[0] == ["p03", "p00", "p02", "p01"]
