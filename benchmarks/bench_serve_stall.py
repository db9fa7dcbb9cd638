"""How long large FETCHes keep a server from answering everyone else.

Starts ``repro serve`` in a child process and drives it from this one
with three kinds of client, each on its own connection and thread:

* ``--large-clients`` sessions fetching ``--large-count`` words in a
  closed loop (the server's ``max_fetch`` by default);
* ``--small-clients`` sessions fetching ``--small-count`` words in a
  closed loop (the benchmark's request size by default);
* one prober sending STATUS every ``--probe-every-ms`` on its own
  connection, without waiting for the replies (open loop), so the
  probes sample every moment alike, stalls included.

After ``--warmup-s`` (which covers one-time costs such as the
sentinel's first-window import), it records for ``--seconds`` and
prints one JSON document: STATUS round-trip percentiles, small-FETCH
latency percentiles, and the numbers served.  The STATUS figures show
how long the event loop went without a turn; the small-FETCH figures
show what other sessions pay for sharing batches with large requests
(closed loop: a session sends its next FETCH once the last is
answered).

Run against any source tree by pointing ``PYTHONPATH`` at it::

    PYTHONPATH=src python benchmarks/bench_serve_stall.py \\
        --large-clients 4 --seconds 10 [--engine-shards 2]
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import re
import socket
import subprocess
import sys
import threading
import time

from repro.serve import protocol as proto
from repro.serve.client import ServeClient


def _pct(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _summary_ms(values) -> dict:
    return {
        "n": len(values),
        "p50_ms": round(1e3 * _pct(values, 0.50), 2),
        "p99_ms": round(1e3 * _pct(values, 0.99), 2),
        "max_ms": round(1e3 * max(values, default=0.0), 2),
    }


def _start_server(args) -> "tuple[subprocess.Popen, int]":
    argv = [sys.executable, "-m", "repro", "serve", "--port", "0",
            "--seed", str(args.seed),
            "--engine-shards", str(args.engine_shards)]
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=os.environ.copy())
    for raw in proc.stderr:
        m = re.search(r"listening on \S+:(\d+)", raw.decode())
        if m:
            threading.Thread(target=proc.stderr.read, daemon=True).start()
            return proc, int(m.group(1))
    raise SystemExit("server did not start")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--large-clients", type=int, default=1)
    ap.add_argument("--large-count", type=int, default=1 << 20)
    ap.add_argument("--small-clients", type=int, default=2)
    ap.add_argument("--small-count", type=int, default=256)
    ap.add_argument("--probe-every-ms", type=float, default=10.0)
    ap.add_argument("--warmup-s", type=float, default=3.0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--engine-shards", type=int, default=0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)

    proc, port = _start_server(args)
    stop = threading.Event()
    #: (start, seconds) of every answered request, by kind.
    lat = {"status": [], "small": [], "large": []}
    errors: list = []

    def fetcher(kind: str, i: int, count: int) -> None:
        try:
            with ServeClient("127.0.0.1", port, session=f"{kind}-{i}",
                             timeout=600.0) as client:
                while not stop.is_set():
                    t0 = time.perf_counter()
                    client.fetch(count)
                    lat[kind].append((t0, time.perf_counter() - t0))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"{kind}-{i}: {exc!r}")

    probe = socket.create_connection(("127.0.0.1", port), timeout=600.0)
    sent: "queue.Queue[float | None]" = queue.Queue()

    def probe_sender() -> None:
        frame = proto.pack_frame(proto.OP_STATUS)
        next_at = time.perf_counter()
        while not stop.is_set():
            sent.put(time.perf_counter())
            probe.sendall(frame)
            next_at += args.probe_every_ms / 1e3
            time.sleep(max(0.0, next_at - time.perf_counter()))
        sent.put(None)

    def probe_reader() -> None:
        try:
            for t0 in iter(sent.get, None):
                proto.read_frame_socket(probe)
                lat["status"].append((t0, time.perf_counter() - t0))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(f"probe: {exc!r}")

    threads = [threading.Thread(target=probe_sender),
               threading.Thread(target=probe_reader)]
    threads += [threading.Thread(target=fetcher,
                                 args=("large", i, args.large_count))
                for i in range(args.large_clients)]
    threads += [threading.Thread(target=fetcher,
                                 args=("small", i, args.small_count))
                for i in range(args.small_clients)]
    try:
        for t in threads:
            t.start()
        time.sleep(args.warmup_s)
        begin = time.perf_counter()
        time.sleep(args.seconds)
        end = time.perf_counter()
        stop.set()
        for t in threads:
            t.join()
    finally:
        probe.close()
        proc.terminate()
        proc.wait(timeout=60)
    # Requests sent inside the recording window; throughput counts the
    # ones that also finished inside it.
    kept = {k: [dt for t0, dt in v if t0 >= begin and t0 < end]
            for k, v in lat.items()}
    done = {k: sum(1 for t0, dt in v if t0 >= begin and t0 + dt <= end)
            for k, v in lat.items()}
    print(json.dumps({
        "engine_shards": args.engine_shards,
        "large_clients": args.large_clients,
        "large_count": args.large_count,
        "status": _summary_ms(kept["status"]),
        "small_fetch": _summary_ms(kept["small"]),
        "large_fetch": _summary_ms(kept["large"]),
        "numbers_per_s": round(
            (done["large"] * args.large_count
             + done["small"] * args.small_count) / (end - begin)
        ),
        "errors": errors,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
