"""Node state (de)serialisation.

Tribler "provides local database services allowing state to be
maintained over sessions" (§I).  Inside one simulation run our node
objects simply live on, but a real client restarts.  Two surfaces:

* **One client, plain JSON** — :func:`node_to_dict` /
  :func:`node_from_dict` (and :func:`save_node` / :func:`load_node`)
  round-trip one :class:`~repro.core.node.VoteSamplingNode`'s durable
  state: moderation database (oldest received first, so recency
  survives a version refresh), own vote list, ballot box per voter
  (oldest received first, with per-vote ``received_at``), VoxPopuli
  cache, pending vote intentions and the node RNG's
  ``bit_generator.state``.  Volatile state is deliberately *not*
  persisted: protocol processes, online flags and instrumentation
  counters restart fresh, exactly as a client reboot would leave them
  (the moderation store's mutation counter restarts at the number of
  stored items for the same reason).  The dict is also the
  identity-comparison surface of the bit-identity tests.  There is
  one format, :data:`FORMAT_VERSION`.
* **A whole shard, columns** — :func:`nodes_to_columns` /
  :func:`nodes_from_columns` flatten what a population's nodes hold
  *outside* the columnar state store (ballot boxes live there) into
  row-keyed arrays for the shard checkpoint
  (:mod:`repro.sim.service`): moderation references into one table of
  distinct records with ``received_at`` and recency stamps, vote
  lists, intentions, top-K lists, the per-run counters and online
  flags a restored *shard* — unlike a rebooted client — must keep.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Union

import numpy as np

from repro.core.checkpoint import (
    atomic_write_bytes,
    pack_strings,
    take,
    unpack_strings,
)
from repro.core.columnar import ColumnarStateStore
from repro.core.moderation import Moderation
from repro.core.node import NodeConfig, VoteSamplingNode
from repro.core.votes import Vote

PathLike = Union[str, Path]
FORMAT_VERSION = 3

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(NodeConfig))

#: Node counters that must survive a shard restore for ``run_summary()``
#: bit-identity (volatile in the single-client format by design).
_NODE_COUNTERS = (
    "moderations_received",
    "votes_merged",
    "votes_rejected_inexperienced",
    "votes_truncated",
    "vp_requests_answered",
    "vp_requests_declined",
)

_VOTE_OF = {int(vote): vote for vote in Vote}


# ----------------------------------------------------------------------
# RNG state round trip
# ----------------------------------------------------------------------
def rng_state_to_jsonable(state: Dict[str, Any]) -> Dict[str, Any]:
    """A ``bit_generator.state`` as plain JSON types.

    PCG64 state is already JSON-clean (Python ints); MT19937 and
    friends embed ndarrays, which become lists here.
    """

    def _clean(value: Any) -> Any:
        if isinstance(value, dict):
            return {k: _clean(v) for k, v in value.items()}
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, np.integer):
            return int(value)
        return value

    return _clean(dict(state))


def generator_from_state(state: Dict[str, Any]) -> np.random.Generator:
    """A generator positioned exactly at a saved bit-generator state."""
    name = state.get("bit_generator")
    cls = getattr(np.random, str(name), None)
    if cls is None:
        raise ValueError(f"unknown bit generator {name!r} in rng_state")
    bit_gen = cls()
    bit_gen.state = state
    return np.random.Generator(bit_gen)


def _config_from_dict(data: Dict[str, Any]) -> NodeConfig:
    """Build a :class:`NodeConfig` from a checkpoint's config payload.

    Checkpoints written by newer builds may carry config fields this
    build does not know; those are skipped with a warning instead of
    crashing the restore with an opaque ``TypeError``.  Missing fields
    fall back to the dataclass defaults.
    """
    known = {k: v for k, v in data.items() if k in _CONFIG_FIELDS}
    ignored = sorted(set(data) - _CONFIG_FIELDS)
    if ignored:
        warnings.warn(
            "node-state config has unknown fields (written by a newer "
            f"build?), ignoring: {', '.join(ignored)}",
            RuntimeWarning,
            stacklevel=3,
        )
    return NodeConfig(**known)


def atomic_write_text(path: PathLike, text: str) -> None:
    """:func:`~repro.core.checkpoint.atomic_write_bytes` for text."""
    atomic_write_bytes(path, text.encode("utf-8"))


# ----------------------------------------------------------------------
# One client: plain JSON
# ----------------------------------------------------------------------
def node_to_dict(node: VoteSamplingNode) -> Dict[str, Any]:
    """Extract the durable state as a JSON-serialisable dict."""
    # Oldest received first: a refreshed item (newer version of a key
    # already held) sits at its *new* recency, so re-inserting in file
    # order rebuilds the same recency order and eviction victims.
    moderations = [
        {
            "moderator_id": mod.moderator_id,
            "torrent_id": mod.torrent_id,
            "title": mod.title,
            "description": mod.description,
            "created_at": mod.created_at,
            "version": mod.version,
            "received_at": node.store.received_at(mod),
        }
        for mod in reversed(node.store.recency_order())
    ]
    votes = [
        {"moderator": e.moderator_id, "vote": int(e.vote), "cast_at": e.cast_at}
        for e in node.vote_list.entries()
    ]
    # One pass over the stored votes (votes_of), voters oldest-received
    # first so the restore path can replay them in recency order.
    ballot = [
        {
            "voter": voter,
            "last_received": node.ballot_box.last_received_of(voter),
            "votes": [
                [moderator, int(vote), received_at]
                for moderator, vote, received_at in node.ballot_box.votes_of(voter)
            ],
        }
        for voter in node.ballot_box.voters_by_recency()
    ]
    return {
        "format": FORMAT_VERSION,
        "peer_id": node.peer_id,
        "config": {
            "b_min": node.config.b_min,
            "b_max": node.config.b_max,
            "v_max": node.config.v_max,
            "k": node.config.k,
            "votes_per_exchange": node.config.votes_per_exchange,
            "moderations_per_exchange": node.config.moderations_per_exchange,
            "moderation_store_capacity": node.config.moderation_store_capacity,
            "exchange_policy": node.config.exchange_policy,
            "voxpopuli_enabled": node.config.voxpopuli_enabled,
        },
        "moderations": moderations,
        "votes": votes,
        "ballot": ballot,
        "topk_lists": node.topk_cache.lists(),
        "intentions": {m: int(v) for m, v in node.vote_intentions.items()},
        "rng_state": rng_state_to_jsonable(node.rng_state()),
    }


def node_from_dict(
    data: Dict[str, Any],
    rng: Union[np.random.Generator, None] = None,
    col_store: Union[ColumnarStateStore, None] = None,
) -> VoteSamplingNode:
    """Reconstruct a node from :func:`node_to_dict` output.

    The node's RNG is the explicit ``rng`` argument when given (callers
    that manage their own streams), else a generator positioned at the
    payload's saved ``rng_state``.

    Pass ``col_store`` to restore into a column-backed node — the
    save format is backing-agnostic (everything goes through the
    public BallotBox API), so dict-state saves restore into columnar
    boxes and vice versa, bit-identically.  The columnar store's
    payload pool is invisible here for the same reason: ``votes_of``
    yields the same insertion-ordered triples whether they come from a
    payload dict or a pool segment."""
    fmt = data.get("format")
    if fmt != FORMAT_VERSION:
        raise ValueError(f"unsupported node-state format {fmt!r}")
    config = _config_from_dict(data["config"])
    if rng is None:
        rng = generator_from_state(data["rng_state"])
    node = VoteSamplingNode(
        data["peer_id"],
        config,
        rng,
        col_store=col_store,
    )
    for rec in data["moderations"]:
        # A plain pop would mutate the caller's dict and strip the
        # timestamp from any later restore of the same payload.
        received_at = rec.get("received_at", 0.0)
        fields = {k: v for k, v in rec.items() if k != "received_at"}
        node.store.insert(Moderation(**fields), received_at or 0.0)
    for rec in data["votes"]:
        node.vote_list.cast(rec["moderator"], Vote(rec["vote"]), rec["cast_at"])
    # Voters were saved oldest-received first; restore_voter appends at
    # the end of the recency order, so replaying in file order
    # reproduces the saved box's relative eviction order exactly.
    for rec in data["ballot"]:
        node.ballot_box.restore_voter(
            rec["voter"],
            [
                (moderator, Vote(vote), received_at)
                for moderator, vote, received_at in rec["votes"]
            ],
            rec["last_received"],
        )
    for lst in data["topk_lists"]:
        node.topk_cache.add(lst)
    for moderator, vote in data["intentions"].items():
        node.set_vote_intention(moderator, Vote(vote))
    # The moderation loop above wrote the store directly; refresh its
    # membership column once at the end.
    node._sync_membership()
    return node


def save_node(node: VoteSamplingNode, path: PathLike) -> None:
    """Persist the node's durable state to ``path`` (JSON).

    The write is atomic: a crash mid-save leaves the previous
    checkpoint readable instead of a torn JSON prefix."""
    atomic_write_text(path, json.dumps(node_to_dict(node)))


def load_node(
    path: PathLike,
    rng: Union[np.random.Generator, None] = None,
    col_store: Union[ColumnarStateStore, None] = None,
) -> VoteSamplingNode:
    """Restore a node persisted by :func:`save_node`.

    ``col_store`` is forwarded to :func:`node_from_dict`, so on-disk
    checkpoints restore into columnar-backed nodes too."""
    return node_from_dict(
        json.loads(Path(path).read_text(encoding="utf-8")), rng, col_store=col_store
    )


# ----------------------------------------------------------------------
# A whole shard: row-keyed columns
# ----------------------------------------------------------------------
#: The flat columns: name -> (dtype, the count column whose sum is its
#: length; ``None`` = one entry per node).  Ragged per-node lists are a
#: ``*_n`` count column plus value columns; strings are references into
#: the ``names`` table, moderations into ``mod_table``.
_NODE_COLUMNS = {
    "node_name": (np.int32, None),
    "online": (np.bool_, None),
    **{name: (np.int64, None) for name in _NODE_COUNTERS},
    "mod_seq": (np.int64, None),
    "mod_n": (np.int32, None),
    "mod_ref": (np.int32, "mod_n"),
    "mod_at": (np.float64, "mod_n"),
    "mod_order": (np.int64, "mod_n"),
    "vote_n": (np.int32, None),
    "vote_mod": (np.int32, "vote_n"),
    "vote_val": (np.int8, "vote_n"),
    "vote_at": (np.float64, "vote_n"),
    "intent_n": (np.int32, None),
    "intent_mod": (np.int32, "intent_n"),
    "intent_val": (np.int8, "intent_n"),
    "topk_n": (np.int32, None),
    "topk_len": (np.int32, "topk_n"),
    "topk_item": (np.int32, "topk_len"),
}


def nodes_to_columns(nodes: Iterable[VoteSamplingNode]) -> Dict[str, Any]:
    """Everything ``nodes`` hold outside the columnar state store, as
    scalars and flat arrays (:data:`_NODE_COLUMNS`); pairs with
    :func:`nodes_from_columns`.  Node RNGs are not included — in a
    shard they are registry streams, checkpointed with the registry."""
    names: Dict[str, int] = {}
    table: Dict[Moderation, int] = {}
    seen: Dict[int, int] = {}
    cols: Dict[str, List[Any]] = {name: [] for name in _NODE_COLUMNS}

    def ref(name: str) -> int:
        return names.setdefault(name, len(names))

    for node in nodes:
        cols["node_name"].append(ref(node.peer_id))
        cols["online"].append(node.online)
        for name in _NODE_COUNTERS:
            cols[name].append(getattr(node, name))
        items, received_at, order, seq = node.store.export_state()
        cols["mod_n"].append(len(items))
        for mod in items:
            # Peers share the record objects they gossip; hash each
            # object once, not once per holder.
            index = seen.get(id(mod))
            if index is None:
                index = seen[id(mod)] = table.setdefault(mod, len(table))
            cols["mod_ref"].append(index)
        cols["mod_at"].extend(received_at)
        cols["mod_order"].extend(order)
        cols["mod_seq"].append(seq)
        entries = node.vote_list.entries()
        cols["vote_n"].append(len(entries))
        cols["vote_mod"].extend(ref(e.moderator_id) for e in entries)
        cols["vote_val"].extend(e.vote for e in entries)
        cols["vote_at"].extend(e.cast_at for e in entries)
        cols["intent_n"].append(len(node.vote_intentions))
        cols["intent_mod"].extend(ref(m) for m in node.vote_intentions)
        cols["intent_val"].extend(node.vote_intentions.values())
        lists = node.topk_cache.lists()
        cols["topk_n"].append(len(lists))
        cols["topk_len"].extend(len(lst) for lst in lists)
        cols["topk_item"].extend(ref(m) for lst in lists for m in lst)
    records = [
        [m.moderator_id, m.torrent_id, m.title, m.description, m.created_at, m.version]
        for m in table
    ]
    state: Dict[str, Any] = {
        name: np.array(cols[name], dtype=dtype)
        for name, (dtype, _of) in _NODE_COLUMNS.items()
    }
    state["n_nodes"] = len(cols["node_name"])
    state["n_names"] = len(names)
    state["names"] = pack_strings(list(names))
    state["mod_table"] = np.frombuffer(json.dumps(records).encode("utf-8"), np.uint8)
    return state


def nodes_from_columns(
    state: Dict[str, Any], make_node: Callable[[str], VoteSamplingNode]
) -> List[VoteSamplingNode]:
    """Rebuild the nodes :func:`nodes_to_columns` flattened, in saved
    order.  ``make_node(peer_id)`` constructs each empty node (config,
    RNG, columnar view); this fills in what the columns carry."""
    n = state["n_nodes"]
    names = unpack_strings(state, "names", state["n_names"])
    table = [
        Moderation(*record)
        for record in json.loads(take(state, "mod_table", np.uint8, None).tobytes())
    ]
    cols: Dict[str, List[Any]] = {}
    for name, (dtype, of) in _NODE_COLUMNS.items():
        length = n if of is None else sum(cols[of])
        cols[name] = take(state, name, dtype, length).tolist()
    nodes: List[VoteSamplingNode] = []
    mod_i = vote_i = intent_i = list_i = item_i = 0
    for i in range(n):
        node = make_node(names[cols["node_name"][i]])
        node.online = cols["online"][i]
        for name in _NODE_COUNTERS:
            setattr(node, name, cols[name][i])
        mods = slice(mod_i, mod_i + cols["mod_n"][i])
        node.store.load_state(
            [table[index] for index in cols["mod_ref"][mods]],
            cols["mod_at"][mods],
            cols["mod_order"][mods],
            cols["mod_seq"][i],
        )
        mod_i = mods.stop
        for k in range(vote_i, vote_i + cols["vote_n"][i]):
            node.vote_list.cast(
                names[cols["vote_mod"][k]],
                _VOTE_OF[cols["vote_val"][k]],
                cols["vote_at"][k],
            )
        vote_i += cols["vote_n"][i]
        for k in range(intent_i, intent_i + cols["intent_n"][i]):
            moderator = names[cols["intent_mod"][k]]
            node.vote_intentions[moderator] = _VOTE_OF[cols["intent_val"][k]]
        intent_i += cols["intent_n"][i]
        for length in cols["topk_len"][list_i : list_i + cols["topk_n"][i]]:
            items = cols["topk_item"][item_i : item_i + length]
            node.topk_cache.add([names[index] for index in items])
            item_i += length
        list_i += cols["topk_n"][i]
        nodes.append(node)
    return nodes
