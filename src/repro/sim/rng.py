"""Named deterministic random streams.

Every random decision in the simulator draws from a stream obtained by
name from one :class:`RngRegistry` (e.g. ``rng.stream("pss")``,
``rng.stream("churn", peer_id)``).  Streams are derived from the root
seed and the *name only*, so adding a new consumer never perturbs the
draws of existing ones — experiments stay reproducible and comparable
across code changes.

Stream ``key`` is numpy's ``PCG64(SeedSequence(entropy=seed,
spawn_key=(crc,)))`` with ``crc = _key_to_entropy(key)``, but no
``SeedSequence`` is built: :class:`_KeyMixer` is that algorithm in
closed form.  The seed's share of the mix is computed once per
registry; what a key adds (four ``hashmix``/``mix`` steps on its CRC
and eight output words) is one numpy pass over a whole vector of CRCs.
:meth:`RngRegistry.prime` runs that pass for a population up front; an
unprimed key is a batch of one.

:meth:`RngRegistry.start_state` hands out where a stream starts — its
PCG64 128-bit state and increment — without building the generator,
for consumers that keep a population's stream positions in a column
(the scheduler's jitter).  :func:`pcg64_doubles` draws the next doubles
of many such positions at once.
"""

from __future__ import annotations

import zlib
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

Key = Tuple[Union[str, int], ...]

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
# numpy's PCG64 (numpy/random/src/pcg64): the LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
_MASK64 = (1 << 64) - 1
_LOW32 = np.uint64(_MASK32)
_U32 = np.uint64(32)


def _hashmix(value: int, hash_const: int) -> Tuple[int, int]:
    """numpy's ``hashmix``: returns the hashed value and the advanced
    multiplier."""
    value ^= hash_const
    hash_const = (hash_const * _MULT_A) & _MASK32
    value = (value * hash_const) & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _chain(init: int, mult: int, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The multiplier before and after each of ``n`` successive
    hashes: hashing XORs the value with the first and multiplies it
    by the second."""
    pre, post = [], []
    for _ in range(n):
        pre.append(init)
        init = (init * mult) & _MASK32
        post.append(init)
    return np.array(pre, dtype=np.uint32), np.array(post, dtype=np.uint32)


#: ``generate_state(4, np.uint64)`` reads the pool twice round, one
#: 32-bit word at a time, each hashed with the next output multiplier.
_OUT_PRE, _OUT_POST = (a[None, :] for a in _chain(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
# 0-d arrays: numpy applies them faster than Python ints or scalars.
_MIX_R = np.array(_MIX_MULT_R, dtype=np.uint32)
_SHIFT = np.array(_XSHIFT, dtype=np.uint32)


class _KeyMixer:
    """numpy's ``SeedSequence`` for one root seed, with the key's
    spawn word left open.

    The assembled entropy is the seed's 32-bit words (zero-padded to
    the pool size because a spawn key follows) and then the key's CRC,
    so everything up to the CRC — the mixed pool and the state of the
    hash multiplier — depends on the seed alone and is computed here,
    once.  :meth:`derive` finishes the mix for a vector of CRCs.
    """

    __slots__ = ("_mixed", "_crc_pre", "_crc_post")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("expected non-negative integer")
        words: List[int] = []
        while True:
            words.append(seed & _MASK32)
            seed >>= 32
            if not seed:
                break
        words.extend([0] * (_POOL_SIZE - len(words)))
        hash_const = _INIT_A
        pool: List[int] = []
        for word in words[:_POOL_SIZE]:
            value, hash_const = _hashmix(word, hash_const)
            pool.append(value)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    value, hash_const = _hashmix(pool[src], hash_const)
                    pool[dst] = _mix(pool[dst], value)
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                value, hash_const = _hashmix(word, hash_const)
                pool[dst] = _mix(pool[dst], value)
        # The CRC's four hashes each mix into one pool word, and the
        # output reads the pool twice round, so the key's pass runs
        # eight wide: column j works on pool word j % 4 throughout
        # ((1, 8) rows, which numpy broadcasts over a batch of one
        # faster than 1-d constants).  mix(pool[d], h) = L·pool[d] −
        # R·h, and the first term is the seed's.
        pre, post = _chain(hash_const, _MULT_A, _POOL_SIZE)
        self._crc_pre, self._crc_post = np.tile(pre, (1, 2)), np.tile(post, (1, 2))
        self._mixed = np.tile(
            np.array([(_MIX_MULT_L * p) & _MASK32 for p in pool], dtype=np.uint32),
            (1, 2),
        )

    def derive(self, crcs: np.ndarray) -> np.ndarray:
        """``(K,)`` uint32 key CRCs -> ``(K, 4)`` uint64 PCG64 seed
        words, row ``i`` equal to ``SeedSequence(entropy=seed,
        spawn_key=(crcs[i],)).generate_state(4, np.uint64)``."""
        v = crcs[:, None] ^ self._crc_pre
        v *= self._crc_post
        v ^= v >> _SHIFT
        v *= _MIX_R
        np.subtract(self._mixed, v, out=v)
        v ^= v >> _SHIFT
        v ^= _OUT_PRE
        v *= _OUT_POST
        v ^= v >> _SHIFT
        # Word j of the result is 32-bit outputs 2j (low) and 2j + 1.
        return v.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Feeds ``PCG64`` four precomputed seed words — what
    ``SeedSequence.generate_state(4, np.uint64)`` would have returned
    (``PCG64`` asks for nothing else)."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self.words


def _pcg64_start(words: np.ndarray) -> Tuple[int, int]:
    """``(state, inc)`` of ``PCG64`` seeded with four seed words —
    numpy's ``pcg64_set_seed``: the first two words are the initial
    state, the last two the stream selector, then two LCG steps."""
    w0, w1, w2, w3 = words.tolist()
    inc = ((((w2 << 64) | w3) << 1) | 1) & _MASK128
    state = (inc + ((w0 << 64) | w1)) & _MASK128
    return (state * _PCG_MULT + inc) & _MASK128, inc


def _jumps(n: int) -> np.ndarray:
    """``(4, n)`` uint64 rows: ``A_k`` hi/lo, ``C_k`` hi/lo for ``k =
    1..n``, where ``k`` LCG steps from state ``s`` with increment ``c``
    land on ``A_k·s + C_k·c`` (``A_k = M^k``, ``C_k = 1 + M + … +
    M^(k-1)``, mod 2^128)."""
    a, c, cols = 1, 0, []
    for _ in range(n):
        a, c = (a * _PCG_MULT) & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        cols.append((a >> 64, a & _MASK64, c >> 64, c & _MASK64))
    return np.array(cols, dtype=np.uint64).T.copy()


def _mul128(
    ah: np.ndarray, al: np.ndarray, bh: np.ndarray, bl: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``(ah:al)·(bh:bl)`` mod 2^128 elementwise, as ``(hi, lo)``:
    uint64 products wrap, so only ``al·bl``'s high word needs the
    32-bit halves."""
    a0, a1 = al & _LOW32, al >> _U32
    b0, b1 = bl & _LOW32, bl >> _U32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    hi = a1 * b1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    return hi + al * bh + ah * bl, al * bl


#: Streams per :func:`pcg64_doubles` pass: keeps each temporary near
#: 64 KB however many streams a call carries.
_KERNEL_ROWS = 512


def pcg64_doubles(words: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """The next ``n`` doubles of many PCG64 streams at once.

    ``words`` is ``(R, 4)`` uint64: each stream's state hi/lo and
    increment hi/lo, as in a checkpoint's per-peer ``rng.*`` arrays.
    Returns the ``(R, n)`` doubles ``Generator.random(n)`` would draw
    from each — numpy's PCG64 step, XSL-RR output and 53-bit double,
    every state reached from the start by a precomputed jump — and the
    ``(R, 2)`` state hi/lo words after them (the increments do not
    change)."""
    table = _jumps(n)
    doubles = np.empty((len(words), n), dtype=np.float64)
    states = np.empty((len(words), 2), dtype=np.uint64)
    for start in range(0, len(words), _KERNEL_ROWS):
        block = words[start : start + _KERNEL_ROWS]
        sh, sl, ih, il = (block[:, j : j + 1] for j in range(4))
        xh, xl = _mul128(sh, sl, table[0], table[1])
        yh, yl = _mul128(ih, il, table[2], table[3])
        lo = xl + yl
        hi = xh + yh + (lo < xl)
        out = hi ^ lo
        rot = hi >> np.uint64(58)
        out = (out >> rot) | (out << ((np.uint64(64) - rot) & np.uint64(63)))
        rows = slice(start, start + len(block))
        np.multiply(
            (out >> np.uint64(11)).astype(np.float64),
            1.0 / 9007199254740992.0,
            out=doubles[rows],
        )
        states[rows, 0] = hi[:, -1]
        states[rows, 1] = lo[:, -1]
    return doubles, states


#: Seeds the throwaway state of a generator :meth:`RngRegistry
#: .restore_stream` is about to reposition (deriving the key's real
#: seed would be wasted work).
_PLACEHOLDER_WORDS = np.zeros(4, dtype=np.uint64)


def _key_to_entropy(key: Key) -> int:
    """Map a stream key to a stable 32-bit integer.

    The CRC32 of the key's parts as ``str``, joined by ``"\\x1f"`` —
    stable across processes and Python versions (unlike ``hash()``
    with string randomization).  A part's type is therefore invisible:
    ``("churn", 1)`` and ``("churn", "1")`` get the same seed words
    (and draw the same sequence, from two distinct generators).
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
        # Built on first derivation, so a negative seed raises there
        # (as SeedSequence does) and never on construction or fork.
        self._mixer: Optional[_KeyMixer] = None
        #: family -> (str(id) -> row of words, (rows, 4) uint64 words)
        self._primed: Dict[str, Tuple[Dict[str, int], np.ndarray]] = {}

    @property
    def seed(self) -> int:
        """The root seed this registry was built from."""
        return self._seed

    def _derive(self, crcs: np.ndarray) -> np.ndarray:
        mixer = self._mixer
        if mixer is None:
            mixer = self._mixer = _KeyMixer(self._seed)
        return mixer.derive(crcs)

    def _words(self, key: Key) -> np.ndarray:
        """Key ``key``'s four PCG64 seed words, primed or derived."""
        if not key:
            raise ValueError("stream key must be non-empty")
        if len(key) == 2:
            primed = self._primed.get(str(key[0]))
            if primed is not None:
                row = primed[0].get(str(key[1]))
                if row is not None:
                    return primed[1][row]
        crc = np.array([_key_to_entropy(key)], dtype=np.uint32)
        return self._derive(crc)[0]

    def stream(self, *key: Union[str, int]) -> np.random.Generator:
        """Return the Generator for ``key``, creating it on first use.

        The same key always returns the same Generator *object*, so
        state advances as consumers draw — call sites share a stream by
        sharing a key.
        """
        gen = self._streams.get(key)
        if gen is None:
            gen = np.random.Generator(np.random.PCG64(_SeedWords(self._words(key))))
            self._streams[key] = gen
        return gen

    def start_state(self, *key: Union[str, int]) -> Tuple[int, int]:
        """The 128-bit PCG64 ``(state, inc)`` stream ``key`` starts at
        — what :meth:`stream`'s generator holds before its first draw —
        without building or registering a generator.  A consumer that
        keeps the position itself owns the stream: the registry never
        sees its draws, so it must not also ask :meth:`stream` for the
        same key."""
        return _pcg64_start(self._words(key))

    def prime(self, family: Union[str, int], ids: Iterable[Union[str, int]]) -> None:
        """Derive the seed words of stream ``(family, id)`` for every id
        in one vectorised pass, so the ``stream`` and ``start_state``
        calls that follow only look them up.  Priming changes no draw:
        the words are the ones ``stream`` would derive, and a stream
        that already exists is left as it is."""
        fam = str(family)
        index, words = self._primed.get(fam, ({}, None))
        fresh = list(dict.fromkeys(i for i in map(str, ids) if i not in index))
        if not fresh:
            return
        prefix = zlib.crc32(f"{fam}\x1f".encode("utf-8"))
        crcs = np.fromiter(
            (zlib.crc32(i.encode("utf-8"), prefix) for i in fresh),
            dtype=np.uint32,
            count=len(fresh),
        )
        derived = self._derive(crcs)
        base = 0 if words is None else len(words)
        index.update(zip(fresh, range(base, base + len(fresh))))
        words = derived if words is None else np.concatenate([words, derived])
        self._primed[fam] = (index, words)

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
            gen = np.random.Generator(np.random.PCG64(_SeedWords(_PLACEHOLDER_WORDS)))
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
