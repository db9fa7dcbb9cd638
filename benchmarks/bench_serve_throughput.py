"""Serving-path soak/throughput benchmark: many concurrent sessions.

Boots an in-process :class:`~repro.serve.server.RNGServer` (daemon-thread
event loop, ephemeral port) and drives it with ``--clients`` concurrent
**asyncio** clients -- one task per session, so 1000 concurrent sessions
cost 1000 tasks, not 1000 OS threads.  Verifies the serving contract
under load -- every fetch answered, zero cross-session stream overlap,
no hung sessions left behind -- and records throughput plus
client-observed latency percentiles.

Runs two ways:

* under pytest (small default load; registers a report via ``record``);
* as a script (``python benchmarks/bench_serve_throughput.py --clients
  1000 --count 512 --min-numbers-per-s 500000 --max-p99-ms 50``), the
  CI soak/gate mode.  Exits non-zero on any failed fetch, overlap, hung
  session, or missed gate -- except that throughput/latency gates are
  *recorded but not enforced* on hosts with fewer than 4 cores (the
  fused cross-session round needs real parallelism to hit service-scale
  numbers; same escape hatch as ``bench_engine_scaling.py``).

Either way the result lands in ``benchmarks/results/BENCH_serve.json``
through the shared bench exporter.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.serve import ServeConfig, serve_background
from repro.serve.client import AsyncServeClient

#: Cores below which the throughput/latency gates are recorded only.
GATE_MIN_CORES = 4


def _percentile(sorted_values, q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[idx]


async def _drive_clients(
    host: str, port: int, clients: int, fetches: int, count: int,
    timeout_s: float,
):
    """One asyncio task per session; returns (values, latencies, errors,
    hung, wall_s)."""
    start = asyncio.Event()
    latencies: list = []
    errors: list = []
    values: dict = {}

    async def client_main(i: int) -> None:
        client = await AsyncServeClient.connect(
            host, port, session=f"soak-{i}", retries=20, backoff_s=0.01,
        )
        try:
            await start.wait()
            mine, lats = [], []
            for _ in range(fetches):
                t0 = time.perf_counter()
                got = await client.fetch(count)
                lats.append(time.perf_counter() - t0)
                mine.append(got)
            values[i] = mine
            latencies.extend(lats)
        finally:
            await client.close()

    tasks = [
        asyncio.create_task(client_main(i), name=f"soak-{i}")
        for i in range(clients)
    ]
    # Let every session connect (and the server build its streams)
    # before the clock starts: this measures serving, not ramp-up.
    await asyncio.sleep(0.05)
    wall0 = time.perf_counter()
    start.set()
    done, pending = await asyncio.wait(tasks, timeout=timeout_s)
    wall = time.perf_counter() - wall0
    hung = [t.get_name() for t in pending]
    for t in pending:
        t.cancel()
    for t in done:
        if t.exception() is not None:
            exc = t.exception()
            errors.append(
                f"{t.get_name()}: {type(exc).__name__}: {exc}"
            )
    return values, latencies, errors, hung, wall


def run_soak(
    clients: int = 100,
    fetches: int = 5,
    count: int = 256,
    join_timeout_s: float = 240.0,
) -> dict:
    """Drive ``clients`` concurrent sessions; return the measured report.

    Raises ``RuntimeError`` on any client error, hung session, or
    cross-session overlap -- the CI soak turns that into a non-zero exit.
    """
    config = ServeConfig(
        master_seed=2026,
        max_global_queue=max(256, clients * 2),
        max_session_queue=16,
        max_batch=max(64, min(256, clients)),
    )

    with serve_background(config) as handle:
        values, latencies, errors, hung, wall = asyncio.run(
            _drive_clients(
                handle.host, handle.port, clients, fetches, count,
                join_timeout_s,
            )
        )
        status = None
        if not hung:
            client_status = asyncio.run(
                _status(handle.host, handle.port)
            )
            status = client_status

    if hung:
        raise RuntimeError(f"{len(hung)} client sessions hung: {hung[:5]}")
    if errors:
        raise RuntimeError(
            f"{len(errors)} clients failed; first: {errors[0]}"
        )
    if len(values) != clients:
        raise RuntimeError(
            f"only {len(values)}/{clients} sessions reported values"
        )

    # Zero cross-session overlap: the load-bearing serving guarantee.
    # All served words concatenated must be globally unique (64-bit
    # words; a birthday collision at soak scale is ~1e-7 noise, the
    # same assumption the serve suites already make).
    everything = np.concatenate(
        [v for arrays in values.values() for v in arrays]
    )
    unique = np.unique(everything).size
    if unique != everything.size:
        raise RuntimeError(
            f"cross-session overlap: {everything.size - unique} duplicate "
            f"values across {clients} sessions"
        )

    total_numbers = clients * fetches * count
    latencies.sort()
    report = {
        "clients": clients,
        "fetches_per_client": fetches,
        "count_per_fetch": count,
        "host_cpu_count": os.cpu_count() or 1,
        "total_numbers": total_numbers,
        "wall_s": round(wall, 4),
        "numbers_per_s": round(total_numbers / wall, 1),
        "fetches_per_s": round(clients * fetches / wall, 1),
        "latency_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
        "latency_p99_ms": round(_percentile(latencies, 0.99) * 1e3, 3),
        "server_health": status["server"]["health"],
        "server_busy_total": status["server"]["busy_total"],
        "server_sessions": status["server"]["sessions"],
    }
    return report


async def _status(host: str, port: int) -> dict:
    client = await AsyncServeClient.connect(host, port, session="soak-status")
    try:
        return await client.status()
    finally:
        await client.close()


def check_gates(
    report: dict, min_numbers_per_s: float, max_p99_ms: float
) -> int:
    """Apply the serve gates; 0 = pass (or recorded-only host)."""
    if min_numbers_per_s <= 0 and max_p99_ms <= 0:
        return 0
    cores = report["host_cpu_count"]
    rate = report["numbers_per_s"]
    p99 = report["latency_p99_ms"]
    if cores < GATE_MIN_CORES:
        print(
            f"NOTE: host has {cores} core(s); the serve gates need "
            f">= {GATE_MIN_CORES} to be meaningful (measured "
            f"{rate} numbers/s, p99 {p99}ms; recorded but not enforced)."
        )
        return 0
    failed = False
    if min_numbers_per_s > 0 and rate < min_numbers_per_s:
        print(
            f"GATE FAILED: {rate} numbers/s < {min_numbers_per_s} "
            f"on a {cores}-core host",
            file=sys.stderr,
        )
        failed = True
    if max_p99_ms > 0 and p99 > max_p99_ms:
        print(
            f"GATE FAILED: p99 {p99}ms > {max_p99_ms}ms "
            f"on a {cores}-core host",
            file=sys.stderr,
        )
        failed = True
    if not failed:
        print(
            f"serve gates passed: {rate} numbers/s >= {min_numbers_per_s}, "
            f"p99 {p99}ms <= {max_p99_ms}ms"
        )
    return 1 if failed else 0


def _format_report(report: dict) -> str:
    lines = ["serve throughput soak", "-" * 38]
    for key, value in report.items():
        lines.append(f"{key:22}: {value}")
    return "\n".join(lines)


def test_serve_soak():
    """Pytest-scale soak: 16 sessions, still checks every guarantee."""
    from conftest import record

    report = run_soak(clients=16, fetches=4, count=256)
    assert report["server_health"] == "OK"
    assert report["total_numbers"] == 16 * 4 * 256
    record("serve", _format_report(report), data={
        k: v for k, v in report.items() if isinstance(v, (int, float))
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=100,
                        help="concurrent client sessions")
    parser.add_argument("--fetches", type=int, default=5,
                        help="fetches per client")
    parser.add_argument("--count", type=int, default=256,
                        help="numbers per fetch")
    parser.add_argument("--min-numbers-per-s", type=float, default=0.0,
                        help="throughput gate (0 disables; recorded "
                             "only on <4-core hosts)")
    parser.add_argument("--max-p99-ms", type=float, default=0.0,
                        help="latency gate (0 disables; recorded only "
                             "on <4-core hosts)")
    args = parser.parse_args(argv)
    try:
        report = run_soak(
            clients=args.clients, fetches=args.fetches,
            count=args.count,
        )
    except RuntimeError as exc:
        print(f"SOAK FAILED: {exc}", file=sys.stderr)
        return 1
    from common import emit_bench_record

    text = _format_report(report)
    print(text)
    path = emit_bench_record("serve", fields={"report": "serve"}, metrics={
        k: v for k, v in report.items() if isinstance(v, (int, float))
    })
    print(f"wrote {path}")
    return check_gates(report, args.min_numbers_per_s, args.max_p99_ms)


if __name__ == "__main__":
    raise SystemExit(main())
