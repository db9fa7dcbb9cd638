"""Hot-path benchmark: blocked FEED, fused GENERATE, zero-copy delivery.

Measures the three stages the paper times (Fig. 3/4) as implemented by
this reproduction, comparing the optimized fast path against the legacy
reference kernels **in the same run**:

* **FEED** -- ``GlibcRandom.words64`` throughput, blocked lag-3/lag-31
  kernel vs the one-window-at-a-time reference (``blocked=False``);
* **GENERATE** -- ``ParallelExpanderPRNG.generate`` numbers/s under all
  three neighbour-selection policies with the fused walk kernel, plus
  the pre-overhaul variant (``fused=False`` + unblocked feed) under the
  default ``reject`` policy for the end-to-end speedup; and one
  serve-shaped readahead refill (a 64-lane ``AddressableExpanderPRNG``
  over ``SplitMix64Source`` filling 4096 words), fused vs
  ``fused=False``;
* **DELIVERY** -- ``generate_into`` into a caller-owned buffer vs
  allocating ``generate``;
* **stage self-time** -- per-stage ``self_s`` from the obs tracer for
  the optimized end-to-end run (the Fig. 4 counterpart).

The record lands in ``benchmarks/results/BENCH_core.json`` via the
common exporter.  The ``--min-speedup`` gate enforces the blocked-FEED
microbenchmark ratio; like the engine scaling benchmark it only
enforces on hosts with enough cores (>= 2), recording the measurement
otherwise.

Runs two ways:

* under pytest (tiny load; registers a report via ``record``);
* as a script (``python benchmarks/bench_hotpath.py [--quick]``), the
  CI benchmark mode.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

import numpy as np

from repro import obs
from repro.bitsource.counter import SplitMix64Source
from repro.bitsource.glibc import GlibcRandom
from repro.core.parallel import AddressableExpanderPRNG, ParallelExpanderPRNG
from repro.core.walk import POLICIES


def _rate(fn, amount: int, repeats: int = 3) -> float:
    """Best-of-``repeats`` items/second of ``fn(amount)``."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(amount)
        best = min(best, time.perf_counter() - t0)
    return amount / best


def bench_feed(words: int, seed: int = 1) -> dict:
    """FEED microbenchmark: blocked vs reference ``words64`` throughput."""
    legacy = GlibcRandom(seed, blocked=False)
    blocked = GlibcRandom(seed, blocked=True)
    legacy.words64(1 << 12)  # warm both paths (and the power cache)
    blocked.words64(1 << 12)
    out = {
        "feed_words_per_s_legacy": _rate(legacy.words64, words),
        "feed_words_per_s_blocked": _rate(blocked.words64, words),
    }
    out["feed_speedup"] = (
        out["feed_words_per_s_blocked"] / out["feed_words_per_s_legacy"]
    )
    return out


def bench_generate(lanes: int, numbers: int, seed: int = 0) -> dict:
    """GENERATE per policy (fused) plus the pre-overhaul reject variant."""
    out = {}
    for policy in POLICIES:
        prng = ParallelExpanderPRNG(
            num_threads=lanes, seed=seed, policy=policy
        )
        prng.generate(lanes)  # warm scratch buffers and the feed
        out[f"gen_numbers_per_s_{policy}"] = _rate(prng.generate, numbers)
    legacy = ParallelExpanderPRNG(
        num_threads=lanes,
        bit_source=GlibcRandom(seed, blocked=False),
        policy="reject",
        fused=False,
    )
    legacy.generate(lanes)
    out["gen_numbers_per_s_reject_legacy"] = _rate(legacy.generate, numbers)
    out["e2e_speedup_reject"] = (
        out["gen_numbers_per_s_reject"]
        / out["gen_numbers_per_s_reject_legacy"]
    )
    return out


def bench_refill(words: int = 4096, seed: int = 0) -> dict:
    """GENERATE for one serve-shaped readahead refill.

    A serve session's in-process bank -- 64 lanes on a SplitMix64 feed
    -- filling ``words`` words, the readahead cap: one launch of
    ``words / 64`` rounds walked as one ``words``-lane bank.  Fused
    kernel vs the ``fused=False`` reference.
    """
    out = {}
    buf = np.empty(words, dtype=np.uint64)
    for key, fused, repeats in (
        ("refill_words_per_s_addressable64", True, 20),
        ("refill_words_per_s_addressable64_reference", False, 5),
    ):
        prng = AddressableExpanderPRNG(
            num_threads=64, bit_source=SplitMix64Source(seed), fused=fused
        )
        prng.generate_into(buf)  # warm the kernel scratch
        out[key] = _rate(lambda _n: prng.generate_into(buf), words, repeats)
    return out


def bench_delivery(lanes: int, numbers: int, seed: int = 0) -> dict:
    """Zero-copy ``generate_into`` vs allocating ``generate``."""
    prng = ParallelExpanderPRNG(num_threads=lanes, seed=seed)
    prng.generate(lanes)
    alloc_rate = _rate(prng.generate, numbers)
    buf = np.empty(numbers, dtype=np.uint64)
    into_rate = _rate(lambda _n: prng.generate_into(buf), numbers)
    return {
        "into_numbers_per_s": into_rate,
        "alloc_numbers_per_s": alloc_rate,
    }


def bench_stage_selftime(lanes: int, numbers: int, seed: int = 0) -> dict:
    """Per-stage self-time of one optimized end-to-end run (Fig. 4).

    The feed goes through a :class:`BufferedFeed` so the tracer sees the
    FEED stage as its own spans (same trick as ``repro generate
    --trace``); the feed is value-transparent, so the stream is the one
    the other measurements produce.
    """
    from repro.bitsource.buffered import BufferedFeed

    out = {}
    with obs.observed() as (_registry, tracer):
        prng = ParallelExpanderPRNG(
            num_threads=lanes,
            bit_source=BufferedFeed(GlibcRandom(seed), batch_words=1 << 15),
        )
        buf = np.empty(numbers, dtype=np.uint64)
        prng.generate_into(buf)
        for stage, total in tracer.stage_totals().items():
            out[f"self_s_{stage}"] = total.self_s
            out[f"total_s_{stage}"] = total.total_s
    return out


def run_hotpath(
    feed_words: int = 1 << 21,
    lanes: int = 4096,
    numbers: int = 1 << 20,
) -> dict:
    from common import host_env

    report = {
        "feed_words": feed_words,
        "lanes": lanes,
        "numbers": numbers,
    }
    report.update(host_env())
    print(
        f"HOST:     {report['host_cpu_count']} core(s), "
        f"{report['blas_threads']} BLAS thread(s)",
        flush=True,
    )
    report.update(bench_feed(feed_words))
    print(
        f"FEED:     blocked {report['feed_words_per_s_blocked'] / 1e6:8.3f} "
        f"M words/s, legacy {report['feed_words_per_s_legacy'] / 1e6:8.3f} "
        f"M words/s ({report['feed_speedup']:.2f}x)",
        flush=True,
    )
    report.update(bench_generate(lanes, numbers))
    for policy in POLICIES:
        print(
            f"GENERATE: {policy:6s} "
            f"{report[f'gen_numbers_per_s_{policy}'] / 1e6:8.3f} M numbers/s",
            flush=True,
        )
    print(
        f"GENERATE: reject (pre-overhaul) "
        f"{report['gen_numbers_per_s_reject_legacy'] / 1e6:8.3f} M numbers/s"
        f" -> end-to-end speedup {report['e2e_speedup_reject']:.2f}x",
        flush=True,
    )
    report.update(bench_refill())
    fused = report["refill_words_per_s_addressable64"]
    ref = report["refill_words_per_s_addressable64_reference"]
    print(
        f"GENERATE: refill {fused / 1e6:8.3f} M words/s "
        f"(64-lane bank, 4096 words; {4096 / fused * 1e3:.2f} ms), "
        f"reference {ref / 1e6:8.3f} M words/s ({fused / ref:.2f}x)",
        flush=True,
    )
    report.update(bench_delivery(lanes, numbers))
    print(
        f"DELIVERY: generate_into "
        f"{report['into_numbers_per_s'] / 1e6:8.3f} M numbers/s, generate "
        f"{report['alloc_numbers_per_s'] / 1e6:8.3f} M numbers/s",
        flush=True,
    )
    report.update(bench_stage_selftime(lanes, numbers))
    for key, val in sorted(report.items()):
        if key.startswith("self_s_"):
            stage = key[len("self_s_"):]
            print(f"STAGE:    {stage:10s} self-time {val:8.3f} s", flush=True)
    return report


def check_speedup(report: dict, min_speedup: float) -> int:
    """Enforce the blocked-FEED speedup gate where the host allows it."""
    if min_speedup <= 0:
        return 0
    cores = report["host_cpu_count"]
    speedup = report["feed_speedup"]
    if cores < 2:
        print(
            f"NOTE: host has {cores} core(s); the {min_speedup}x gate is "
            f"recorded but not enforced (measured {speedup:.2f}x)."
        )
        return 0
    if speedup < min_speedup:
        print(
            f"HOTPATH GATE FAILED: blocked FEED speedup {speedup:.2f}x < "
            f"{min_speedup}x on a {cores}-core host",
            file=sys.stderr,
        )
        return 1
    print(f"hotpath gate passed: {speedup:.2f}x >= {min_speedup}x")
    return 0


def test_hotpath_smoke():
    """Pytest-scale run: exercises every measurement path, asserts the
    rates are positive (not a performance assertion)."""
    from conftest import record

    report = run_hotpath(feed_words=1 << 12, lanes=64, numbers=2048)
    assert report["feed_words_per_s_blocked"] > 0
    assert report["gen_numbers_per_s_reject"] > 0
    assert report["refill_words_per_s_addressable64"] > 0
    assert report["refill_words_per_s_addressable64_reference"] > 0
    assert report["into_numbers_per_s"] > 0
    record("hotpath", "hot-path smoke", data={
        k: round(v, 3) for k, v in report.items()
        if isinstance(v, (int, float))
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--feed-words", type=int, default=1 << 21,
                        help="64-bit words per FEED measurement")
    parser.add_argument("--lanes", type=int, default=4096,
                        help="walker lanes for the GENERATE measurements")
    parser.add_argument("--numbers", type=int, default=1 << 20,
                        help="numbers generated per measurement")
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized run (~10x smaller measurements)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless the blocked FEED speedup reaches "
                             "this (only enforced on hosts with >= 2 cores)")
    args = parser.parse_args(argv)
    if args.quick:
        args.feed_words = min(args.feed_words, 1 << 18)
        args.numbers = min(args.numbers, 1 << 17)
    report = run_hotpath(
        feed_words=args.feed_words, lanes=args.lanes, numbers=args.numbers,
    )
    from common import emit_bench_record

    path = emit_bench_record("core", fields={
        "report": "hotpath", "backend": report["backend"],
    }, metrics={
        k: round(v, 3) for k, v in report.items()
        if isinstance(v, (int, float))
    })
    print(f"wrote {path}")
    return check_speedup(report, args.min_speedup)


if __name__ == "__main__":
    raise SystemExit(main())
