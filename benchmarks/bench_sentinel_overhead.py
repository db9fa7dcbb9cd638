"""Served-throughput overhead of the statistical sentinel.

Runs the serving soak twice on identical load -- sentinel disabled, then
enabled at the default sampling rate (1 word in 16, 4096-word windows) --
and reports the throughput delta.  The tentpole guarantee is that the
sentinel's cost is marginal on the serving hot path: the CI gate
fails the job if the measured overhead exceeds ``--max-overhead-pct``
(default 5%).

Each configuration is measured ``--repeats`` times interleaved
(off/on/off/on...) and scored by its best run, which cancels most
scheduler and allocator noise on shared CI hosts.

Runs two ways:

* under pytest (tiny load, generous bound; registers a report via
  ``record``);
* as a script (``python benchmarks/bench_sentinel_overhead.py``), the CI
  gate mode -- exits non-zero when the overhead gate trips.

Either way the result lands in ``benchmarks/results/BENCH_sentinel.json``
through the shared bench exporter.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import threading
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.serve import ServeClient, ServeConfig, serve_background


def _soak_once(
    sentinel: bool,
    clients: int,
    fetches: int,
    count: int,
) -> dict:
    """One timed soak; returns wall time and throughput.

    Raises ``RuntimeError`` on any client failure so a broken
    configuration cannot masquerade as a fast one.
    """
    config = ServeConfig(
        master_seed=2026,
        max_global_queue=max(256, clients * 2),
        max_session_queue=16,
        sentinel=sentinel,
    )
    errors: list = []
    barrier = threading.Barrier(clients)

    def client_main(i: int) -> None:
        try:
            with ServeClient(
                handle.host, handle.port, session=f"ovh-{i}",
                retries=8, backoff_s=0.02,
            ) as client:
                barrier.wait(timeout=60)
                for _ in range(fetches):
                    values = client.fetch(count)
                    if values.size != count:
                        raise RuntimeError("short fetch")
        except Exception as exc:  # noqa: BLE001 - soak boundary
            errors.append(f"client {i}: {type(exc).__name__}: {exc}")

    with serve_background(config) as handle:
        threads = [
            threading.Thread(target=client_main, args=(i,), daemon=True)
            for i in range(clients)
        ]
        wall0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        wall = time.perf_counter() - wall0
        hung = [t.name for t in threads if t.is_alive()]
        status = None
        if not hung and not errors:
            with ServeClient(handle.host, handle.port) as c:
                status = c.status()

    if hung:
        raise RuntimeError(f"{len(hung)} client sessions hung")
    if errors:
        raise RuntimeError(f"{len(errors)} clients failed; first: {errors[0]}")
    if sentinel:
        summary = status["server"]["sentinel"]
        if not summary["enabled"]:
            raise RuntimeError("sentinel soak ran without a sentinel")
        if summary["worst"] != "STAT_OK":
            raise RuntimeError(
                f"sentinel flagged the canonical soak: {summary}"
            )
    total = clients * fetches * count
    return {"wall_s": wall, "numbers_per_s": total / wall}


def run_overhead(
    clients: int = 16,
    fetches: int = 8,
    count: int = 4096,
    repeats: int = 3,
) -> dict:
    """Interleaved off/on soaks; overhead from each side's best run."""
    best = {False: 0.0, True: 0.0}
    for _ in range(repeats):
        for sentinel in (False, True):
            result = _soak_once(sentinel, clients, fetches, count)
            best[sentinel] = max(best[sentinel], result["numbers_per_s"])
    overhead_pct = 100.0 * (1.0 - best[True] / best[False])
    return {
        "clients": clients,
        "fetches_per_client": fetches,
        "count_per_fetch": count,
        "repeats": repeats,
        "total_numbers_per_run": clients * fetches * count,
        "numbers_per_s_off": round(best[False], 1),
        "numbers_per_s_on": round(best[True], 1),
        "overhead_pct": round(overhead_pct, 2),
    }


def _format_report(report: dict) -> str:
    lines = ["sentinel serving overhead", "-" * 38]
    for key, value in report.items():
        lines.append(f"{key:22}: {value}")
    return "\n".join(lines)


def test_sentinel_overhead_smoke():
    """Pytest-scale: tiny load, so only a coarse sanity bound is
    enforced -- the 5% gate runs at CI-soak scale in script mode."""
    from conftest import record

    report = run_overhead(clients=4, fetches=4, count=2048, repeats=2)
    assert report["numbers_per_s_on"] > 0
    # Coarse guard against a pathological regression (e.g. sampling
    # every word or copying whole buffers); real gate is the CI script.
    assert report["overhead_pct"] < 30.0
    record("sentinel overhead", _format_report(report), data={
        k: v for k, v in report.items() if isinstance(v, (int, float))
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=16,
                        help="concurrent client sessions")
    parser.add_argument("--fetches", type=int, default=8,
                        help="fetches per client")
    parser.add_argument("--count", type=int, default=4096,
                        help="numbers per fetch")
    parser.add_argument("--repeats", type=int, default=3,
                        help="interleaved repeats per configuration")
    parser.add_argument("--max-overhead-pct", type=float, default=5.0,
                        help="fail if sentinel overhead exceeds this")
    args = parser.parse_args(argv)
    try:
        report = run_overhead(
            clients=args.clients, fetches=args.fetches, count=args.count,
            repeats=args.repeats,
        )
    except RuntimeError as exc:
        print(f"OVERHEAD BENCH FAILED: {exc}", file=sys.stderr)
        return 1
    from common import emit_bench_record

    print(_format_report(report))
    path = emit_bench_record("sentinel", fields={"report": "sentinel"},
                             metrics={
        k: v for k, v in report.items() if isinstance(v, (int, float))
    })
    print(f"wrote {path}")
    if report["overhead_pct"] > args.max_overhead_pct:
        print(
            f"GATE FAILED: sentinel overhead {report['overhead_pct']}% "
            f"> {args.max_overhead_pct}%",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
