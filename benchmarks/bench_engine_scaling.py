"""Shard-pool scaling benchmark: bulk throughput vs worker count.

Builds a :class:`~repro.engine.ShardedEngine` at each shard count
(default 1/2/4/8), keeps the *total* lane count fixed so every
configuration generates the same amount of work per round, and measures
bulk-stream throughput.  The record lands in
``benchmarks/results/BENCH_engine.json`` with one ``numbers_per_s_<k>``
metric per shard count plus the ``speedup_1_to_4`` ratio the roadmap
tracks.

Scaling needs cores: on a single-core host (such as the reproduction
container) the decomposition is correct but cannot be faster, so the
``--min-speedup`` gate only enforces when the host has at least as many
cores as the largest shard count it judges (otherwise it records the
measurement and prints a note).  The CI ``engine`` job runs this on a
multi-core runner with ``--min-speedup`` set.

Runs two ways:

* under pytest (tiny load; registers a report via ``record``);
* as a script (``python benchmarks/bench_engine_scaling.py``), the CI
  benchmark mode.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.engine import EngineConfig, ShardedEngine

DEFAULT_SHARD_COUNTS = (1, 2, 4, 8)


def measure(shards: int, total_lanes: int, numbers: int,
            warmup: int, seed: int = 2026, ring_burst=None) -> float:
    """Numbers per second of the bulk stream at ``shards`` workers."""
    from repro.engine import DEFAULT_RING_BURST

    lanes = max(1, total_lanes // shards)
    config = EngineConfig(
        seed=seed, shards=shards, lanes=lanes,
        ring_burst=DEFAULT_RING_BURST if ring_burst is None else ring_burst,
    )
    with ShardedEngine(config) as eng:
        eng.generate(warmup)  # spin up workers, fill the rings
        t0 = time.perf_counter()
        eng.generate(numbers)
        elapsed = time.perf_counter() - t0
    return numbers / elapsed


def run_scaling(
    shard_counts=DEFAULT_SHARD_COUNTS,
    total_lanes: int = 8192,
    numbers: int = 1 << 20,
    warmup: int = 1 << 16,
    ring_burst=None,
) -> dict:
    """Measure every shard count; return the benchmark report."""
    from common import host_env
    from repro.engine import DEFAULT_RING_BURST

    report = {
        "total_lanes": total_lanes,
        "numbers": numbers,
        "ring_burst": (
            DEFAULT_RING_BURST if ring_burst is None else ring_burst
        ),
    }
    report.update(host_env())
    print(
        f"host: {report['host_cpu_count']} core(s), "
        f"{report['blas_threads']} BLAS thread(s), "
        f"ring burst {report['ring_burst']}",
        flush=True,
    )
    for k in shard_counts:
        rate = measure(k, total_lanes, numbers, warmup,
                       ring_burst=ring_burst)
        report[f"numbers_per_s_{k}"] = round(rate, 1)
        print(f"shards={k:2d}: {rate / 1e6:8.3f} M numbers/s", flush=True)
    if 1 in shard_counts and 4 in shard_counts:
        report["speedup_1_to_4"] = round(
            report["numbers_per_s_4"] / report["numbers_per_s_1"], 3
        )
    return report


def check_speedup(report: dict, min_speedup: float) -> int:
    """Enforce the 1->4 shard speedup gate where the host allows it."""
    if min_speedup <= 0 or "speedup_1_to_4" not in report:
        return 0
    cores = report["host_cpu_count"]
    speedup = report["speedup_1_to_4"]
    if cores < 4:
        print(
            f"NOTE: host has {cores} core(s); the {min_speedup}x gate "
            f"needs >= 4 to be meaningful (measured {speedup}x, recorded "
            "but not enforced)."
        )
        return 0
    if speedup < min_speedup:
        print(
            f"SCALING GATE FAILED: 1->4 shard speedup {speedup}x < "
            f"{min_speedup}x on a {cores}-core host",
            file=sys.stderr,
        )
        return 1
    print(f"scaling gate passed: {speedup}x >= {min_speedup}x")
    return 0


def test_engine_scaling_smoke():
    """Pytest-scale run: two shard counts, enough to catch regressions
    in the measurement path itself (not a performance assertion)."""
    from conftest import record

    report = run_scaling(
        shard_counts=(1, 2), total_lanes=64, numbers=4096, warmup=512
    )
    assert report["numbers_per_s_1"] > 0
    assert report["numbers_per_s_2"] > 0
    record("engine", "engine scaling smoke", data={
        k: v for k, v in report.items() if isinstance(v, (int, float))
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shards", type=int, nargs="+",
                        default=list(DEFAULT_SHARD_COUNTS),
                        help="shard counts to measure")
    parser.add_argument("--total-lanes", type=int, default=8192,
                        help="total walker lanes, split across shards")
    parser.add_argument("--numbers", type=int, default=1 << 20,
                        help="numbers generated per measurement")
    parser.add_argument("--warmup", type=int, default=1 << 16,
                        help="warmup numbers before timing")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless 1->4 shard speedup reaches this "
                             "(only enforced on hosts with >= 4 cores)")
    parser.add_argument("--ring-burst", type=int, default=None,
                        help="rounds per ring slot (default: the "
                             "engine's DEFAULT_RING_BURST)")
    args = parser.parse_args(argv)
    report = run_scaling(
        shard_counts=tuple(args.shards),
        total_lanes=args.total_lanes,
        numbers=args.numbers,
        warmup=args.warmup,
        ring_burst=args.ring_burst,
    )
    from common import emit_bench_record

    path = emit_bench_record("engine", fields={
        "report": "engine", "backend": report["backend"],
    }, metrics={
        k: v for k, v in report.items() if isinstance(v, (int, float))
    })
    print(f"wrote {path}")
    return check_speedup(report, args.min_speedup)


if __name__ == "__main__":
    raise SystemExit(main())
