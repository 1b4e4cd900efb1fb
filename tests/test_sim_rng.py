"""Unit tests for the named RNG registry."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import RngRegistry, _KeyMixer, _key_to_entropy, pcg64_doubles


def test_same_seed_same_stream_reproduces():
    a = RngRegistry(42).stream("pss").random(16)
    b = RngRegistry(42).stream("pss").random(16)
    assert np.array_equal(a, b)


def test_different_names_are_independent():
    reg = RngRegistry(42)
    a = reg.stream("pss").random(16)
    b = reg.stream("churn").random(16)
    assert not np.array_equal(a, b)


def test_different_seeds_differ():
    a = RngRegistry(1).stream("pss").random(16)
    b = RngRegistry(2).stream("pss").random(16)
    assert not np.array_equal(a, b)


def test_stream_object_is_cached():
    reg = RngRegistry(0)
    assert reg.stream("x") is reg.stream("x")


def test_multipart_keys():
    reg = RngRegistry(0)
    assert reg.stream("churn", 1) is reg.stream("churn", 1)
    a = reg.stream("churn", 1).random(8)
    b = reg.stream("churn", 2).random(8)
    assert not np.array_equal(a, b)


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        RngRegistry(0).stream()


def test_adding_new_stream_does_not_perturb_existing():
    """Stream derivation is by name, not creation order."""
    reg1 = RngRegistry(9)
    reg1.stream("a")
    vals1 = reg1.stream("b").random(8)

    reg2 = RngRegistry(9)
    reg2.stream("zzz")  # extra stream created first
    reg2.stream("a")
    vals2 = reg2.stream("b").random(8)
    assert np.array_equal(vals1, vals2)


def test_fork_is_deterministic_and_distinct():
    root = RngRegistry(5)
    c1 = root.fork("trace-0")
    c2 = RngRegistry(5).fork("trace-0")
    c3 = root.fork("trace-1")
    assert c1._seed == c2._seed
    assert c1._seed != c3._seed
    assert c1._seed != root._seed


@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_property_stream_reproducible_for_any_seed_and_name(seed, name):
    a = RngRegistry(seed).stream(name).integers(0, 1 << 30, 4)
    b = RngRegistry(seed).stream(name).integers(0, 1 << 30, 4)
    assert np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**31))
def test_property_fork_children_reproducible(seed):
    assert RngRegistry(seed).fork("x")._seed == RngRegistry(seed).fork("x")._seed


# ----------------------------------------------------------------------
# Seed derivation: the registry's closed form of numpy's SeedSequence
# ----------------------------------------------------------------------

_SEEDS = st.integers(min_value=0, max_value=2**200 - 1)
_PART = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.integers(min_value=-(2**40), max_value=2**40),
)
_KEYS = st.lists(_PART, min_size=1, max_size=4).map(tuple)


@given(_SEEDS, st.lists(_KEYS, min_size=1, max_size=5))
def test_property_derived_words_equal_seed_sequence(seed, keys):
    """Seeds shorter than, exactly and longer than the 4-word pool."""
    crcs = [_key_to_entropy(key) for key in keys]
    words = _KeyMixer(seed).derive(np.array(crcs, dtype=np.uint32))
    assert words.shape == (len(keys), 4) and words.dtype == np.uint64
    for row, crc in zip(words, crcs):
        ref = np.random.SeedSequence(entropy=seed, spawn_key=(crc,))
        assert np.array_equal(row, ref.generate_state(4, np.uint64))


@given(_SEEDS, _KEYS)
def test_property_stream_state_equals_seed_sequence(seed, key):
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(_key_to_entropy(key),))
    got = RngRegistry(seed).stream(*key).bit_generator.state
    assert got == np.random.PCG64(seq).state


@given(_SEEDS, _KEYS, st.booleans())
def test_property_start_state_is_where_the_stream_starts(seed, key, primed):
    """``start_state`` is the PCG64 position ``stream`` starts at,
    primed or not, and registers no generator."""
    reg = RngRegistry(seed)
    if primed and len(key) == 2:
        reg.prime(key[0], [key[1]])
    state, inc = reg.start_state(*key)
    ref = RngRegistry(seed).stream(*key).bit_generator.state["state"]
    assert (state, inc) == (ref["state"], ref["inc"])
    assert reg.streams() == {}


_M64 = (1 << 64) - 1


@given(
    st.lists(
        st.tuples(st.integers(0, 2**128 - 1), st.integers(0, 2**127 - 1)),
        min_size=1,
        max_size=6,
    ),
    st.integers(1, 40),
    st.integers(0, 1100),
)
def test_property_pcg64_doubles_are_numpys(streams, n, repeat):
    """The vectorised kernel draws what ``Generator.random(n)`` draws
    from each PCG64 position, and ends where the generator ends —
    ``repeat`` pads the call past one block of streams."""
    streams = streams * (1 + repeat // len(streams))
    words, gens = [], []
    for state, seq in streams:
        inc = (seq << 1) | 1
        words.append((state >> 64, state & _M64, inc >> 64, inc & _M64))
        bits = np.random.PCG64()
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gens.append(np.random.Generator(bits))
    doubles, after = pcg64_doubles(np.array(words, dtype=np.uint64), n)
    assert doubles.shape == (len(streams), n) and after.dtype == np.uint64
    for gen, drawn, words_after in zip(gens, doubles, after):
        assert np.array_equal(drawn, gen.random(n))
        state = gen.bit_generator.state["state"]["state"]
        assert words_after.tolist() == [state >> 64, state & _M64]


@given(
    _SEEDS,
    st.text(min_size=1, max_size=6),
    st.lists(st.one_of(st.text(max_size=6), st.integers(0, 10**6)), min_size=1, max_size=8),
)
def test_property_primed_unprimed_and_batch_of_one_agree(seed, family, ids):
    primed, alone, unprimed = RngRegistry(seed), RngRegistry(seed), RngRegistry(seed)
    primed.prime(family, ids)
    for pid in ids:
        alone.prime(family, [pid])
        state = unprimed.stream(family, pid).bit_generator.state
        assert primed.stream(family, pid).bit_generator.state == state
        assert alone.stream(family, pid).bit_generator.state == state


def test_priming_twice_extends_the_family():
    reg, ref = RngRegistry(3), RngRegistry(3)
    reg.prime("jitter", ["a", "b"])
    reg.prime("jitter", ["b", "c"])
    for pid in "abc":
        assert (
            reg.stream("jitter", pid).bit_generator.state
            == ref.stream("jitter", pid).bit_generator.state
        )


def test_priming_leaves_an_existing_stream_alone():
    reg = RngRegistry(11)
    gen = reg.stream("node", "p1")
    head = gen.random(3)
    reg.prime("node", ["p1", "p2"])
    assert reg.stream("node", "p1") is gen
    tail = gen.random(3)
    ref = RngRegistry(11).stream("node", "p1").random(6)
    assert np.array_equal(np.concatenate([head, tail]), ref)


@given(_SEEDS, _KEYS, st.integers(0, 50))
def test_property_restore_stream_replays_on_an_unseen_key(seed, key, skip):
    gen = RngRegistry(seed).stream(*key)
    gen.random(skip)
    saved = gen.bit_generator.state
    expected = gen.random(8)
    fresh = RngRegistry(seed + 1)
    assert np.array_equal(fresh.restore_stream(key, saved).random(8), expected)
    assert fresh.stream(*key).bit_generator.state == gen.bit_generator.state


def test_negative_seed_raises_on_derivation():
    with pytest.raises(ValueError):
        RngRegistry(-1).stream("x")
    with pytest.raises(ValueError):
        RngRegistry(-1).prime("node", ["p"])
    # Construction and forking derive nothing.
    assert RngRegistry(-1).fork("trace")._seed >= 0


def test_key_parts_are_hashed_as_str():
    """``("churn", 1)`` and ``("churn", "1")`` share seed words (the
    CRC covers ``str(part)``) but are two generator objects."""
    reg = RngRegistry(4)
    a, b = reg.stream("churn", 1), reg.stream("churn", "1")
    assert a is not b
    assert a.bit_generator.state == b.bit_generator.state
    assert _key_to_entropy(("churn", 1)) == _key_to_entropy(("churn", "1"))


def test_first_draws_golden_seed_7():
    """Raw PCG64 outputs recorded with numpy's SeedSequence derivation."""
    reg = RngRegistry(7)
    golden = {
        ("pss",): [3248547849642772301, 9771588447497552401, 13383171345251645440],
        ("node", "peer000"): [
            10968628727775491458,
            18066878519227178629,
            13280189303128923469,
        ],
        ("jitter", "peer000"): [
            2676502236220182671,
            7869390696027474012,
            10775463759623766349,
        ],
    }
    for key, raw in golden.items():
        assert reg.stream(*key).bit_generator.random_raw(3).tolist() == raw


def test_src_constructs_no_seed_sequence():
    src = Path(__file__).resolve().parent.parent / "src"
    calls = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "SeedSequence":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
