"""Node state (de)serialisation.

Tribler "provides local database services allowing state to be
maintained over sessions" (§I).  Two surfaces:

* **One node, plain JSON** — :func:`node_to_dict` lists one
  :class:`~repro.core.node.VoteSamplingNode`'s durable state:
  moderation database (oldest received first), own vote list, ballot
  box per voter (oldest received first, with per-vote
  ``received_at``), VoxPopuli cache, pending vote intentions and the
  node RNG's ``bit_generator.state``.  It is the identity-comparison
  surface of the bit-identity tests, the goldens and a shard's
  ``identity_state()``; nothing reads it back.
* **A whole shard, columns** — :func:`nodes_to_columns` /
  :func:`nodes_from_columns` flatten what a population's nodes hold
  *outside* the columnar state store (ballot boxes live there) into
  row-keyed arrays for the shard checkpoint
  (:mod:`repro.sim.service`): moderation references into one table of
  distinct records with ``received_at`` and recency stamps, vote
  lists, intentions, top-K lists and the per-run counters.  Whether
  a node is online is the runtime's to save (its session record).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Union

import numpy as np

from repro.core.checkpoint import (
    atomic_write_bytes,
    pack_strings,
    take,
    unpack_strings,
)
from repro.core.moderation import Moderation
from repro.core.node import VoteSamplingNode
from repro.core.votes import Vote

PathLike = Union[str, Path]
FORMAT_VERSION = 3

#: Node counters that must survive a shard restore for ``run_summary()``
#: bit-identity.
_NODE_COUNTERS = (
    "moderations_received",
    "votes_merged",
    "votes_rejected_inexperienced",
    "votes_truncated",
    "vp_requests_answered",
    "vp_requests_declined",
)

_VOTE_OF = {int(vote): vote for vote in Vote}


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


def atomic_write_text(path: PathLike, text: str) -> None:
    """:func:`~repro.core.checkpoint.atomic_write_bytes` for text."""
    atomic_write_bytes(path, text.encode("utf-8"))


# ----------------------------------------------------------------------
# One node: plain JSON
# ----------------------------------------------------------------------
def node_to_dict(node: VoteSamplingNode) -> Dict[str, Any]:
    """Extract the durable state as a JSON-serialisable dict."""
    # Oldest received first: a refreshed item (newer version of a key
    # already held) sits at its *new* recency.
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
    # One read of the whole box, voters oldest-received first (the
    # B_max eviction order).
    ballot = [
        {
            "voter": voter,
            "last_received": last,
            "votes": votes,
        }
        for voter, last, votes in node.ballot_box.ballot()
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


# ----------------------------------------------------------------------
# A whole shard: row-keyed columns
# ----------------------------------------------------------------------
#: The flat columns: name -> (dtype, the count column whose sum is its
#: length; ``None`` = one entry per node).  Ragged per-node lists are a
#: ``*_n`` count column plus value columns; strings are references into
#: the ``names`` table, moderations into ``mod_table``.
_NODE_COLUMNS = {
    "node_name": (np.int32, None),
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
