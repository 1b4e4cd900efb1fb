"""Named deterministic random streams.

Every random decision in the simulator draws from a stream obtained by
name from one :class:`RngRegistry` (e.g. ``rng.stream("pss")``,
``rng.stream("churn", peer_id)``).  Streams are derived from the root
seed and the *name only*, so adding a new consumer never perturbs the
draws of existing ones — experiments stay reproducible and comparable
across code changes.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Tuple, Union

import numpy as np

Key = Tuple[Union[str, int], ...]

#: Seeds the throwaway state of a generator :meth:`RngRegistry
#: .restore_stream` is about to reposition (deriving the key's real
#: seed would be wasted work).
_PLACEHOLDER_SEED = np.random.SeedSequence(0)


def _key_to_entropy(key: Key) -> int:
    """Map a stream key to a stable 32-bit integer.

    Uses CRC32 of the repr, which is stable across processes and Python
    versions (unlike ``hash()`` with string randomization).
    """
    material = "\x1f".join(str(part) for part in key)
    return zlib.crc32(material.encode("utf-8"))


class RngRegistry:
    """Factory of independent, reproducible ``numpy`` Generators.

    Parameters
    ----------
    seed:
        Root seed.  Two registries with the same seed produce identical
        streams for identical names.

    Examples
    --------
    >>> r1, r2 = RngRegistry(7), RngRegistry(7)
    >>> bool((r1.stream("pss").random(4) == r2.stream("pss").random(4)).all())
    True
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._streams: Dict[Key, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was built from."""
        return self._seed

    def stream(self, *key: Union[str, int]) -> np.random.Generator:
        """Return the Generator for ``key``, creating it on first use.

        The same key always returns the same Generator *object*, so
        state advances as consumers draw — call sites share a stream by
        sharing a key.
        """
        if not key:
            raise ValueError("stream key must be non-empty")
        k: Key = tuple(key)
        gen = self._streams.get(k)
        if gen is None:
            seq = np.random.SeedSequence(
                entropy=self._seed, spawn_key=(_key_to_entropy(k),)
            )
            gen = np.random.Generator(np.random.PCG64(seq))
            self._streams[k] = gen
        return gen

    def streams(self) -> Dict[Key, np.random.Generator]:
        """Every stream handed out so far, by key (checkpoint API)."""
        return self._streams

    def restore_stream(self, key: Key, state: Dict[str, Any]) -> np.random.Generator:
        """Reposition ``key``'s generator at a saved ``bit_generator
        .state`` (checkpoint-restore API).  A generator some component
        already holds is repositioned in place, so the holder observes
        the restored state; otherwise one is registered directly at the
        saved state, skipping the seed derivation."""
        k: Key = tuple(key)
        gen = self._streams.get(k)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(_PLACEHOLDER_SEED))
            self._streams[k] = gen
        gen.bit_generator.state = state
        return gen

    def fork(self, label: Union[str, int]) -> "RngRegistry":
        """Derive a child registry (e.g. one per trace replication).

        Children with different labels are independent; the same label
        always yields the same child.
        """
        child_seed = (self._seed * 1_000_003 + _key_to_entropy((label,))) % (2**63)
        return RngRegistry(child_seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngRegistry(seed={self._seed}, streams={len(self._streams)})"
