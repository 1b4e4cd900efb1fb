"""DHT-routed vote aggregation between service shards.

Service mode (PR 9) runs N checkpointed shards as independent
populations, so each shard systematically under-samples: the paper's
deployment is **one** overlay where sampled ballots gossip between all
peers.  This module closes that gap with the first cross-shard data
path in the codebase, following the Kademlia-aggregation line of work
(PAPERS.md) for DHT-keyed digests and LOCKSS for rate-limiting the
merge path so aggregation cannot become a vote-stuffing amplifier:

* every checkpoint interval each shard serializes a **ballot digest**
  — per-moderator distinct-voter vote lists, exported from its ballot
  boxes (dict or columnar backing, byte-identical either way) — and
  publishes it onto a shared :class:`DigestBoard`, paying real
  :class:`~repro.dht.chord.ChordRing` lookup costs per moderator key
  (``chord_id("ballot:" + moderator_id)``) plus a store message;
* each shard **pulls** digests published by the other shards (cursor
  per publisher, epoch index key per publish), again paying per-key
  lookup costs, fetch messages, and timeout/retry-with-backoff costs
  when an owner is dead or a fetch fails;
* pulled digests are staged as **pending** work and merged through the
  existing dedup-correct ``BallotBox.merge``/``bb_merge`` path at the
  *start* of the next interval, under ``max_votes_per_interval`` — the
  LOCKSS-style rate limit.  Each merge offers a voter exactly one
  entry, so remote mass can never exceed ``votes_per_exchange``
  semantics, and the backlog it cannot yet merge is the **merge lag**.

Crash contract: the aggregation cursor, pending digests, backoff
state, and operational counters ride in the shard checkpoint's JSON
header (:meth:`ShardAggregator.state_dict`), and the per-shard private
ring is rebuilt deterministically on
restore, so kill -9 + restore replays bit-identically when shards are
driven in lockstep (:class:`ShardCluster`, the in-process N-shard
driver that ``tests/test_aggregation.py`` and the repo benchmark's
``service_cluster`` workload run).

RNG: merge-target sampling draws from the registry's ``aggregation``
stream, which the shard checkpoint already persists — no extra
plumbing, restored shards continue the same draw sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.persistence import atomic_write_text
from repro.core.votes import Vote, VoteEntry
from repro.dht.chord import ChordConfig, ChordRing
from repro.sim.rng import RngRegistry


# ----------------------------------------------------------------------
# Configuration & keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregationConfig:
    """Knobs for the inter-shard aggregation path."""

    #: number of shards on the ring (every shard knows the roster)
    shards: int = 2
    chord_bits: int = 16
    #: LOCKSS-style rate limit: remote votes *offered* to local ballot
    #: boxes per shard per interval; the rest stays pending (merge lag)
    max_votes_per_interval: int = 200
    #: how many local nodes each pulled digest is merged into
    merge_fanout: int = 2
    #: fetch attempts per epoch before the publisher goes into backoff
    max_retries: int = 3
    #: backoff ceiling, in intervals skipped after repeated failures
    max_backoff_intervals: int = 8

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.max_votes_per_interval < 1:
            raise ValueError("max_votes_per_interval must be >= 1")
        if self.merge_fanout < 1:
            raise ValueError("merge_fanout must be >= 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be >= 1")
        if self.max_backoff_intervals < 1:
            raise ValueError("max_backoff_intervals must be >= 1")
        # chord_bits is validated by ChordConfig at ring build time.


def shard_ring_name(shard_id: int) -> str:
    """The shard's stable name on the aggregation ring."""
    return f"shard-{shard_id:02d}"


def ballot_key(moderator_id: str) -> str:
    """DHT key owning a moderator's digest entries."""
    return f"ballot:{moderator_id}"


def epoch_key(publisher: str, epoch: int) -> str:
    """DHT key announcing one publisher's epoch index entry."""
    return f"digest:{publisher}:{epoch}"


# ----------------------------------------------------------------------
# Digest construction
# ----------------------------------------------------------------------
def build_shard_digest(nodes: Dict[str, Any]) -> Dict[str, List[List[Any]]]:
    """Union of every node's ballot-box sample as one compact digest:
    ``{moderator_id: [[voter, vote], ...]}``, voters distinct and
    sorted per moderator.

    When two boxes disagree on a ``(moderator, voter)`` pair the entry
    with the latest ``received_at`` wins (vote value breaks exact
    ties), so the result is independent of node iteration order and of
    the dict/columnar slot order — equal box contents produce
    byte-identical digests on both backings."""
    best: Dict[Tuple[str, str], Tuple[float, int]] = {}
    for node in nodes.values():
        for voter, moderator, vote, received_at in node.ballot_box.export_digest():
            key = (moderator, voter)
            candidate = (received_at, vote)
            prev = best.get(key)
            if prev is None or candidate > prev:
                best[key] = candidate
    digest: Dict[str, List[List[Any]]] = {}
    for (moderator, voter), (_at, vote) in sorted(best.items()):
        digest.setdefault(moderator, []).append([voter, vote])
    return digest


# ----------------------------------------------------------------------
# Digest boards (the storage side of the DHT)
# ----------------------------------------------------------------------
class InMemoryDigestBoard:
    """Shared digest storage for in-process shard clusters.

    The board plays the *storage* role of the DHT; routing costs are
    paid against each shard's :class:`~repro.dht.chord.ChordRing`.  It
    survives any single shard's crash, exactly like the overlay would.
    """

    def __init__(self) -> None:
        self._digests: Dict[Tuple[str, int], Dict[str, List[List[Any]]]] = {}
        self._epochs: Dict[str, List[int]] = {}

    def publish(
        self, publisher: str, epoch: int, digest: Dict[str, List[List[Any]]]
    ) -> None:
        key = (publisher, epoch)
        if key not in self._digests:
            self._epochs.setdefault(publisher, []).append(epoch)
        self._digests[key] = digest

    def epochs(self, publisher: str) -> List[int]:
        return sorted(self._epochs.get(publisher, []))

    def fetch(
        self, publisher: str, epoch: int
    ) -> Optional[Dict[str, List[List[Any]]]]:
        return self._digests.get((publisher, epoch))


class DirectoryDigestBoard:
    """Digest storage backed by a shared directory (supervisor mode).

    One atomically-written JSON file per ``(publisher, epoch)`` —
    concurrent shard workers never observe torn digests, and a
    restarted worker finds everything it had published still there.
    """

    def __init__(self, directory: Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, publisher: str, epoch: int) -> Path:
        return self.directory / f"{publisher}-e{epoch:06d}.json"

    def publish(
        self, publisher: str, epoch: int, digest: Dict[str, List[List[Any]]]
    ) -> None:
        payload = json.dumps(digest, separators=(",", ":"))
        atomic_write_text(self._path(publisher, epoch), payload)

    def epochs(self, publisher: str) -> List[int]:
        prefix = f"{publisher}-e"
        out = []
        for path in self.directory.glob(f"{prefix}*.json"):
            tail = path.name[len(prefix) : -len(".json")]
            if tail.isdigit():
                out.append(int(tail))
        return sorted(out)

    def fetch(
        self, publisher: str, epoch: int
    ) -> Optional[Dict[str, List[List[Any]]]]:
        path = self._path(publisher, epoch)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None


# ----------------------------------------------------------------------
# Per-shard aggregator
# ----------------------------------------------------------------------
class ShardAggregator:
    """One shard's view of the aggregation overlay.

    Owns a private :class:`ChordRing` over the shard roster (rebuilt
    deterministically on restore — same joins, same stabilisation, so
    lookup costs replay exactly), the publish epoch counter, per-
    publisher pull cursors and backoff state, and the FIFO of pending
    digests the rate limit has not yet admitted.
    """

    def __init__(
        self, config: AggregationConfig, shard_id: int, rng: RngRegistry
    ) -> None:
        if not (0 <= shard_id < config.shards):
            raise ValueError(
                f"shard_id {shard_id} outside the ring roster "
                f"(shards={config.shards})"
            )
        self.config = config
        self.name = shard_ring_name(shard_id)
        self.peers = [shard_ring_name(i) for i in range(config.shards)]
        self.ring = ChordRing(ChordConfig(bits=config.chord_bits))
        for peer in self.peers:
            self.ring.join(peer)
        self.ring.stabilize_all()
        self._rng = rng.stream("aggregation")
        self.epoch = 0
        self.cursors: Dict[str, int] = {
            peer: 0 for peer in self.peers if peer != self.name
        }
        self.backoff: Dict[str, int] = {peer: 0 for peer in self.cursors}
        self.fail_streak: Dict[str, int] = {peer: 0 for peer in self.cursors}
        #: publishers currently considered dead (left the private ring)
        self.dead: List[str] = []
        #: staged remote digests: {"publisher","epoch","moderator","votes"}
        self.pending: List[Dict[str, Any]] = []
        self.ops: Dict[str, float] = {
            "digests_published": 0,
            "digests_pulled": 0,
            "dht_messages": 0,
            "remote_votes_offered": 0,
            "remote_votes_merged": 0,
            "fetch_retries": 0,
            "pull_failures": 0,
            "timeouts": 0,
            "pending_votes": 0,
        }

    # -- ring cost accounting ------------------------------------------
    def _ring_messages(self) -> int:
        """Everything the private ring has charged so far (lookup hops
        including timeout penalties, plus membership maintenance)."""
        return self.ring.total_maintenance_messages() + self.ring.lookup_messages

    def _mark_dead(self, publisher: str) -> None:
        if publisher not in self.dead:
            self.ring.leave(publisher, graceful=False)
            self.dead.append(publisher)

    def _mark_alive(self, publisher: str) -> None:
        if publisher in self.dead:
            self.ring.join(publisher)
            self.ring.stabilize_all()
            self.dead.remove(publisher)

    # -- publish --------------------------------------------------------
    def publish(self, shard: Any, board: Any) -> int:
        """Serialize the shard's ballot sample and publish it as the
        next epoch.  Returns the DHT messages paid: one routed lookup
        plus a store per moderator key, plus the epoch index entry."""
        digest = build_shard_digest(shard.runtime.nodes)
        self.epoch += 1
        base_timeouts = self.ring.timeouts
        messages = 0
        for moderator in digest:
            hops, _ok = self.ring.lookup(self.name, ballot_key(moderator))
            messages += hops + 1  # + store at the owner
        hops, _ok = self.ring.lookup(self.name, epoch_key(self.name, self.epoch))
        messages += hops + 1  # + index store
        board.publish(self.name, self.epoch, digest)
        exchanges = len(digest) + 1
        self.ops["digests_published"] += len(digest)
        self.ops["dht_messages"] += messages
        self.ops["timeouts"] += self.ring.timeouts - base_timeouts
        shard.runtime.traffic.dht_exchange_many(exchanges, messages)
        return messages

    # -- pull -----------------------------------------------------------
    def pull(self, shard: Any, board: Any) -> int:
        """Fetch digests published by the other shards since each pull
        cursor, staging them as pending merges.  Pays lookup + fetch
        per key, timeout retries on failed fetches, and failure
        detection/repair when an owner is declared dead.  Returns the
        DHT messages paid."""
        base_ring = self._ring_messages()
        base_timeouts = self.ring.timeouts
        extra = 0  # store/fetch/retry messages the ring does not count
        exchanges = 0
        for publisher in self.cursors:
            if self.backoff[publisher] > 0:
                self.backoff[publisher] -= 1
                continue
            for epoch in board.epochs(publisher):
                if epoch <= self.cursors[publisher]:
                    continue
                _hops, _ok = self.ring.lookup(
                    self.name, epoch_key(publisher, epoch)
                )
                extra += 1  # the index fetch itself
                exchanges += 1
                digest = None
                for attempt in range(self.config.max_retries):
                    digest = board.fetch(publisher, epoch)
                    if digest is not None:
                        break
                    extra += 1  # timed-out fetch, retried
                    self.ops["fetch_retries"] += 1
                if digest is None:
                    self.ops["pull_failures"] += 1
                    self.fail_streak[publisher] += 1
                    self.backoff[publisher] = min(
                        2 ** (self.fail_streak[publisher] - 1),
                        self.config.max_backoff_intervals,
                    )
                    self._mark_dead(publisher)
                    break
                self.fail_streak[publisher] = 0
                self._mark_alive(publisher)
                for moderator in sorted(digest):
                    _hops, _ok = self.ring.lookup(
                        self.name, ballot_key(moderator)
                    )
                    extra += 1  # the digest-entry fetch
                    exchanges += 1
                    self._stage(publisher, epoch, moderator, digest[moderator])
                    self.ops["digests_pulled"] += 1
                self.cursors[publisher] = epoch
        messages = (self._ring_messages() - base_ring) + extra
        self.ops["dht_messages"] += messages
        self.ops["timeouts"] += self.ring.timeouts - base_timeouts
        self.ops["pending_votes"] = self._pending_votes()
        if exchanges:
            shard.runtime.traffic.dht_exchange_many(exchanges, messages)
        return messages

    def _stage(
        self,
        publisher: str,
        epoch: int,
        moderator: str,
        votes: List[List[Any]],
    ) -> None:
        """Queue one pulled digest entry, superseding any older pending
        entry for the same (publisher, moderator): digests are whole-
        sample exports, so the newest epoch subsumes older ones — that
        bounds the backlog at publishers × moderators entries."""
        self.pending = [
            item
            for item in self.pending
            if not (
                item["publisher"] == publisher and item["moderator"] == moderator
            )
        ]
        self.pending.append(
            {
                "publisher": publisher,
                "epoch": epoch,
                "moderator": moderator,
                "votes": [[str(voter), int(vote)] for voter, vote in votes],
            }
        )

    # -- merge ----------------------------------------------------------
    def _pending_votes(self) -> int:
        return sum(len(item["votes"]) for item in self.pending)

    def merge_pending(self, shard: Any) -> int:
        """Admit up to ``max_votes_per_interval`` staged remote votes
        into local ballot boxes, oldest digest first.

        Each admitted ``(voter, vote)`` is offered to ``merge_fanout``
        RNG-sampled local nodes as a single-entry vote list through
        ``BallotBox.merge`` — the same dedup/eviction/self-vote rules
        as native exchanges, and never more than one entry per voter
        per merge, so ``votes_per_exchange`` semantics hold by
        construction.  Returns distinct-moderator stores credited."""
        merged = 0
        offered = 0
        budget = self.config.max_votes_per_interval
        now = shard.engine.now
        peer_ids = shard.config.peer_ids()
        fanout = min(self.config.merge_fanout, len(peer_ids))
        while self.pending and budget > 0:
            item = self.pending[0]
            votes = item["votes"]
            take = votes[:budget]
            moderator = item["moderator"]
            picks = self._rng.choice(len(peer_ids), size=fanout, replace=False)
            for row in sorted(int(p) for p in picks):
                node = shard.runtime.nodes[peer_ids[row]]
                for voter, vote in take:
                    entry = VoteEntry(
                        moderator_id=moderator, vote=Vote(int(vote)), cast_at=now
                    )
                    merged += node.ballot_box.merge(voter, [entry], now)
            budget -= len(take)
            offered += len(take)
            if len(take) < len(votes):
                item["votes"] = votes[len(take) :]
                break
            self.pending.pop(0)
        self.ops["remote_votes_offered"] += offered
        self.ops["remote_votes_merged"] += merged
        self.ops["pending_votes"] = self._pending_votes()
        if offered:
            shard.runtime.traffic.aggregation_exchange_many(1, offered)
        return merged

    # -- checkpoint state -----------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """JSON-clean aggregation state for the shard checkpoint's
        header (and the identity-comparison surface)."""
        return {
            "epoch": self.epoch,
            "cursors": dict(self.cursors),
            "backoff": dict(self.backoff),
            "fail_streak": dict(self.fail_streak),
            "dead": list(self.dead),
            "pending": [
                {
                    "publisher": item["publisher"],
                    "epoch": item["epoch"],
                    "moderator": item["moderator"],
                    "votes": [list(v) for v in item["votes"]],
                }
                for item in self.pending
            ],
            "ops": dict(self.ops),
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        self.epoch = int(state["epoch"])
        for peer in self.cursors:
            self.cursors[peer] = int(state["cursors"][peer])
            self.backoff[peer] = int(state["backoff"][peer])
            self.fail_streak[peer] = int(state["fail_streak"][peer])
        # Replay deaths so the rebuilt ring's structure (and therefore
        # every future lookup's cost) matches the checkpointed one.
        self.dead = []
        for publisher in state["dead"]:
            self._mark_dead(publisher)
        self.pending = [
            {
                "publisher": item["publisher"],
                "epoch": int(item["epoch"]),
                "moderator": item["moderator"],
                "votes": [[str(v), int(x)] for v, x in item["votes"]],
            }
            for item in state["pending"]
        ]
        self.ops.update(state["ops"])


# ----------------------------------------------------------------------
# Convergence metrics
# ----------------------------------------------------------------------
def shard_top_k(shard: Any, k: int) -> List[str]:
    """The shard's population-wide moderator ranking: summation score
    (positives − negatives) accumulated over every node's ballot box,
    ties broken by id."""
    totals: Dict[str, int] = {}
    for node in shard.runtime.nodes.values():
        for moderator, (pos, neg) in node.ballot_box.all_counts().items():
            totals[moderator] = totals.get(moderator, 0) + pos - neg
    ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
    return [moderator for moderator, _score in ranked[:k]]


def rank_distance(a: List[str], b: List[str]) -> float:
    """Symmetric-difference distance between two top-K lists in
    ``[0, 1]``: 0 = identical membership, 1 = disjoint."""
    sa, sb = set(a), set(b)
    denom = len(sa) + len(sb)
    if denom == 0:
        return 0.0
    return len(sa ^ sb) / denom


def max_cross_shard_rank_distance(shards: List[Any], k: int) -> float:
    """Worst pairwise top-K rank distance across the cluster — the
    convergence metric ``test_cluster_converges_vs_isolated_shards``
    holds below the isolated-shard baseline."""
    rankings = [shard_top_k(shard, k) for shard in shards]
    worst = 0.0
    for i in range(len(rankings)):
        for j in range(i + 1, len(rankings)):
            worst = max(worst, rank_distance(rankings[i], rankings[j]))
    return worst


# ----------------------------------------------------------------------
# In-process lockstep cluster
# ----------------------------------------------------------------------
class ShardCluster:
    """N aggregating shards advanced in lockstep checkpoint slices.

    Per boundary, every shard runs ``merge_pending → run_until →
    publish → pull`` (all publishes land before any pull, so each pull
    sees every peer's epoch for that boundary) and then checkpoints —
    the same primitive sequence ``ServiceShard.run_service`` uses, so
    discarding a shard object and restoring it from its checkpoint
    (:meth:`restore_shard`, the in-process kill -9 analogue) replays
    bit-identically against a never-interrupted cluster."""

    def __init__(
        self,
        config: Any,
        directory: Optional[Path] = None,
        board: Optional[Any] = None,
    ) -> None:
        from repro.sim.service import ServiceShard

        aggregation = config.shard.aggregation
        if aggregation is None:
            raise ValueError("ShardCluster needs ShardConfig.aggregation set")
        if aggregation.shards != config.shards:
            raise ValueError(
                f"aggregation roster has {aggregation.shards} shards, "
                f"service config has {config.shards}"
            )
        self.config = config
        self.directory = Path(directory) if directory is not None else None
        self.board = board if board is not None else InMemoryDigestBoard()
        self.shards: List[Any] = []
        for shard_id in range(config.shards):
            shard = ServiceShard(config.shard_config(shard_id))
            shard.start()
            self.shards.append(shard)

    def shard_dir(self, shard_id: int) -> Path:
        if self.directory is None:
            raise ValueError("cluster was built without a checkpoint directory")
        return self.directory / f"shard-{shard_id:02d}"

    def restore_shard(self, shard_id: int) -> None:
        """Discard one shard object and rebuild it from its last
        checkpoint — the crash the supervisor's SIGKILL path inflicts,
        inflicted in-process.  The board (the overlay's storage)
        survives, exactly like the DHT would."""
        from repro.sim.service import ServiceShard

        self.shards[shard_id] = ServiceShard.restore_from(
            self.config.shard_config(shard_id), self.shard_dir(shard_id)
        )

    def run(self, until: Optional[float] = None, on_boundary=None) -> None:
        from repro.sim.service import _checkpoint_boundaries

        horizon = self.config.until if until is None else until
        clocks = {shard.engine.now for shard in self.shards}
        if len(clocks) != 1:
            raise ValueError(f"shards out of lockstep: clocks {sorted(clocks)}")
        start = clocks.pop()
        for boundary in _checkpoint_boundaries(
            start, horizon, self.config.checkpoint_interval
        ):
            for shard in self.shards:
                shard.aggregator.merge_pending(shard)
            for shard in self.shards:
                shard.run_until(boundary)
            for shard in self.shards:
                shard.aggregator.publish(shard, self.board)
            for shard in self.shards:
                shard.aggregator.pull(shard, self.board)
            if self.directory is not None:
                for shard_id, shard in enumerate(self.shards):
                    shard.write_checkpoint(self.shard_dir(shard_id))
            if on_boundary is not None:
                on_boundary(self)
