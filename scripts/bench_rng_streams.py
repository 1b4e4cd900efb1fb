#!/usr/bin/env python
"""Microbenchmark of named-stream creation in ``RngRegistry``.

    python scripts/bench_rng_streams.py [--keys 5000] [--rounds 7]

Times, per stream, four ways to get K fresh ``("node", pid)`` streams at
seed 7, interleaved round by round so host drift hits all of them:

* ``seedsequence``: the reference derivation — ``Generator(PCG64(
  SeedSequence(entropy=seed, spawn_key=(crc,))))`` memoised in a dict,
  as a registry did before deriving in closed form;
* ``unprimed``: ``RngRegistry.stream`` on keys nobody primed (each key
  is a batch of one);
* ``primed``: ``RngRegistry.prime`` over all K ids, then ``stream``
  (the prime is included);
* ``prime_only``: the ``prime`` call alone.

Prints the median and quartiles of each in µs per key, and checks that
all three registries' generators sit at the reference state.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.sim.rng import RngRegistry, _key_to_entropy  # noqa: E402

SEED = 7


def seedsequence(ids):
    streams = {}
    for pid in ids:
        key = ("node", pid)
        seq = np.random.SeedSequence(entropy=SEED, spawn_key=(_key_to_entropy(key),))
        streams[key] = np.random.Generator(np.random.PCG64(seq))
    return streams


def unprimed(ids):
    reg = RngRegistry(SEED)
    for pid in ids:
        reg.stream("node", pid)
    return reg.streams()


def primed(ids):
    reg = RngRegistry(SEED)
    reg.prime("node", ids)
    for pid in ids:
        reg.stream("node", pid)
    return reg.streams()


def prime_only(ids):
    RngRegistry(SEED).prime("node", ids)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--keys", type=int, default=5000)
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    ids = [f"peer{i:06d}" for i in range(args.keys)]

    reference = seedsequence(ids)
    for build in (unprimed, primed):
        got = build(ids)
        assert all(
            got[k].bit_generator.state == g.bit_generator.state
            for k, g in reference.items()
        ), build.__name__
    legs = (seedsequence, unprimed, primed, prime_only)
    times = {leg.__name__: [] for leg in legs}
    for _ in range(args.rounds):
        for leg in legs:
            start = time.perf_counter()
            leg(ids)
            times[leg.__name__].append((time.perf_counter() - start) / len(ids) * 1e6)
    print(f"{args.keys} keys, {args.rounds} interleaved rounds, µs per key")
    for name, values in times.items():
        q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
        print(f"  {name:<13} {q2:7.2f}  [{q1:.2f}, {q3:.2f}]")


if __name__ == "__main__":
    main()
