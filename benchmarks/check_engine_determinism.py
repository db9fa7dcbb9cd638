"""CI determinism gate: the engine's stream survives re-runs and resizing.

Generates the same ``--numbers``-long prefix of the engine's bulk stream
twice, from two fresh shard pools, using two *different* fetch-size
patterns -- one steady, one ragged -- and byte-compares the results.
Any divergence (a fetch-size leak, a nondeterministic shard interleave,
a remainder bug) exits non-zero so the CI ``engine`` job fails loudly.

A third pass checks the named-stream serving path the same way.  A
named stream is read by absolute offset, so that pass tracks its own.

Usage::

    PYTHONPATH=src python benchmarks/check_engine_determinism.py \
        --numbers 1000000
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.engine import EngineConfig, ShardedEngine


def fetch_pattern(read, total: int, sizes) -> np.ndarray:
    """Drain ``total`` numbers with a repeating fetch-size pattern;
    ``read(offset, n)`` returns the ``n`` numbers from ``offset`` on."""
    parts = []
    got = 0
    i = 0
    while got < total:
        n = min(sizes[i % len(sizes)], total - got)
        parts.append(read(got, n))
        got += n
        i += 1
    return np.concatenate(parts)


def run_gate(numbers: int, seed: int, shards: int, lanes: int) -> int:
    config = EngineConfig(seed=seed, shards=shards, lanes=lanes)
    steady = [4096]
    ragged = [1, 65537, 300, 8191, 17]

    with ShardedEngine(config) as eng:
        a = fetch_pattern(lambda _, n: eng.generate(n), numbers, steady)
    with ShardedEngine(config) as eng:
        b = fetch_pattern(lambda _, n: eng.generate(n), numbers, ragged)
    if not np.array_equal(a, b):
        first = int(np.flatnonzero(a != b)[0])
        print(
            f"DETERMINISM GATE FAILED: bulk streams diverge at index "
            f"{first} ({numbers} numbers, fetch patterns {steady} vs "
            f"{ragged})",
            file=sys.stderr,
        )
        return 1
    print(f"bulk stream: {numbers} numbers byte-identical across "
          f"fetch patterns {steady} and {ragged}")

    stream_n = min(numbers, 1 << 16)
    with ShardedEngine(config) as eng:
        c = fetch_pattern(
            lambda offset, n: eng.fetch_stream(7, 64, n, offset),
            stream_n, [256],
        )
    with ShardedEngine(config) as eng:
        d = fetch_pattern(
            lambda offset, n: eng.fetch_stream(7, 64, n, offset),
            stream_n, [1, 999, 64],
        )
    if not np.array_equal(c, d):
        print(
            f"DETERMINISM GATE FAILED: named stream diverges "
            f"({stream_n} numbers)",
            file=sys.stderr,
        )
        return 1
    print(f"named stream: {stream_n} numbers byte-identical across "
          "fetch patterns")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--numbers", type=int, default=1_000_000,
                        help="bulk-stream prefix length to compare")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--lanes", type=int, default=2048,
                        help="lanes per shard")
    args = parser.parse_args(argv)
    return run_gate(args.numbers, args.seed, args.shards, args.lanes)


if __name__ == "__main__":
    raise SystemExit(main())
