"""Direct observations folded on read against folding at every transfer.

``BarterCastService.local_transfer`` only updates the direct tables and
notes the edge; the subjective graphs catch up the next time one is
read or written.  The reference here is the behaviour that replaced:
``SubjectiveGraph.observe_direct`` called on both endpoints' graphs at
every single transfer.  Under random interleavings of every operation
that reads or writes a graph — with a node bound small enough that
eviction fires, and on both matrix backends — the two must agree on
everything observable: edges and their insertion order, mirror slot
order, matrices, eviction counts, every returned value and every cache
counter.  (Graph *version numbers* differ by design — folding once
bumps them less often — and only their equality between two reads is
ever used, which the cache counters pin.)
"""

import numpy as np
import pytest

from repro.attacks.collusion import FakeExperienceColluders
from repro.bartercast.protocol import BarterCastConfig, BarterCastService
from repro.bartercast.records import TransferRecord
from repro.pss.base import OnlineRegistry
from repro.pss.ideal import OraclePSS

PEERS = [f"p{i:02d}" for i in range(12)]
#: third parties that only ever appear in injected hearsay — the
#: strangers a node bound evicts
STRANGERS = [f"x{i}" for i in range(10)]


#: Force one graph mirror through the conversion threshold: 0 goes
#: sparse at the first edge, one above every graph here never does.
MIRROR_THRESHOLD = {"dense": len(PEERS) + len(STRANGERS) + 1, "sparse": 0}


class EagerService(BarterCastService):
    """Every transfer reaches both endpoints' graphs at once."""

    def local_transfer(self, uploader, downloader, nbytes, now):
        super().local_transfer(uploader, downloader, nbytes, now)
        if nbytes <= 0:
            return
        for owner, partner, column in ((uploader, downloader, 0), (downloader, uploader, 1)):
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


def random_ops(rng, n_ops):
    kinds = rng.choice(
        ["transfer", "gossip", "inject", "contribution", "batch", "records", "collude"],
        size=n_ops,
        p=[0.62, 0.10, 0.06, 0.12, 0.04, 0.05, 0.01],
    )
    now = 0.0
    for kind in kinds:
        now += float(rng.integers(1, 30))
        a, b = (str(p) for p in rng.choice(PEERS, 2, replace=False))
        if kind == "transfer":
            yield "local_transfer", (a, b, float(rng.integers(1, 2000)), now)
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
            # twice: the second is a cache hit unless folding broke
            # version equality between two reads
            yield "contribution", (a, b)
            yield "contribution", (a, b)
        elif kind == "batch":
            yield "contributions_to_observer", (a, PEERS + STRANGERS[:3])
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
        order = sorted(graph.nodes())
        graphs[pid] = (
            graph.edges(),
            graph.dense()[0],
            graph.to_matrix(order).tolist(),
            graph.evicted,
            graph.records_folded,
            graph.matrix_backend,
        )
    return graphs, service.cache_stats(), service.exchanges, sorted(service._nodes)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
@pytest.mark.parametrize("max_graph_nodes", [0, 6])
@pytest.mark.parametrize("seed", range(6))
def test_fold_on_read_matches_fold_at_every_transfer(seed, max_graph_nodes, backend):
    cfg = dict(
        max_graph_nodes=max_graph_nodes,
        sparse_graph_threshold=MIRROR_THRESHOLD[backend],
    )
    lazy = make(BarterCastService, seed, **cfg)
    eager = make(EagerService, seed, **cfg)
    rng = np.random.default_rng(1000 + seed)
    ops = list(random_ops(rng, 600))
    # full-state comparisons force a fold everywhere, so make them rare
    checkpoints = set(rng.choice(len(ops), 3, replace=False).tolist())
    for step, (op, args) in enumerate(ops):
        assert apply(lazy, op, args) == apply(eager, op, args), (step, op, args)
        if step in checkpoints:
            assert snapshot(lazy) == snapshot(eager), step
    assert snapshot(lazy) == snapshot(eager)

    stats = lazy.cache_stats()
    assert stats["contribution_hits"] and stats["contribution_invalidations"]
    assert stats["records_hits"] and stats["batch_hits"]
    if max_graph_nodes:
        assert sum(lazy.graph_of(pid).evicted for pid in PEERS) > 0


def test_transfers_reach_the_graph_once_at_the_latest_total():
    service = make(BarterCastService, 0)
    for k in range(1, 6):
        service.local_transfer("p00", "p01", 10.0, now=float(k))
    state = service._nodes["p00"]
    assert list(state.pending) == [("p00", "p01")]
    assert state._graph.version == 0  # nothing folded yet
    graph = service.graph_of("p00")
    assert graph.weight("p00", "p01") == 50.0
    assert graph.version == 1  # one fold, not five
    assert not state.pending


def test_pending_edges_fold_in_first_touched_order():
    service = make(
        BarterCastService, 0, sparse_graph_threshold=MIRROR_THRESHOLD["dense"]
    )
    service.local_transfer("p03", "p00", 1.0, now=1.0)
    service.local_transfer("p00", "p02", 1.0, now=2.0)
    service.local_transfer("p03", "p00", 1.0, now=3.0)  # re-touch: keeps its place
    service.local_transfer("p00", "p01", 1.0, now=4.0)
    graph = service.graph_of("p00")
    assert graph.edges() == [
        ("p03", "p00", 2.0),
        ("p00", "p02", 1.0),
        ("p00", "p01", 1.0),
    ]
    assert graph.dense()[0] == ["p03", "p00", "p02", "p01"]
