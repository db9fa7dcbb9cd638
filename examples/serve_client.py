"""The RNG service end to end: server, concurrent clients, observability.

Boots an in-process ``repro.serve`` server (its own event loop on a
daemon thread), connects three concurrent clients -- each with its own
named session and therefore its own independent, reproducible expander
stream -- and prints per-session statistics plus the serve-side metrics
collected by ``repro.obs``.

Run:  python examples/serve_client.py

The same server is reachable from other processes: ``repro serve
--port 8731`` in one terminal, ``repro fetch --port 8731 -n 10`` in
another.
"""

import threading

import numpy as np

from repro import obs
from repro.serve import ServeClient, ServeConfig, serve_background


def client_main(host, port, name, results):
    """One worker: fetch on demand, in its own thread, from its own stream."""
    with ServeClient(host, port, session=name) as client:
        values = client.fetch(1000)          # numpy uint64, on demand
        floats = client.random(1000)         # uniform [0, 1)
        status = client.status()
        results[name] = {
            "first": int(values[0]),
            "mean_u01": float(floats.mean()),
            "stream_index": client.stream_index,
            "words_served": status["session"]["words_served"],
            "health": status["session"]["health"],
        }


def main() -> None:
    # Metrics on, so the serve-side counters/histograms are collected.
    with obs.observed() as (registry, _tracer):
        config = ServeConfig(master_seed=2012)
        with serve_background(config) as server:
            print(f"server on {server.host}:{server.port} "
                  f"(master seed {config.master_seed})\n")

            # Three concurrent clients, three independent streams.
            results: dict = {}
            threads = [
                threading.Thread(
                    target=client_main,
                    args=(server.host, server.port, name, results),
                )
                for name in ("alice", "bob", "carol")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            print("per-session results (independent, reproducible streams):")
            for name, r in sorted(results.items()):
                print(f"  {name:6} stream {r['stream_index']:#018x}  "
                      f"first={r['first']:#018x}  "
                      f"mean={r['mean_u01']:.4f}  "
                      f"served={r['words_served']}  health={r['health']}")

            # Reconnecting with the same session id resumes the stream;
            # a fresh server with the same master seed would replay it.
            with ServeClient(server.host, server.port, session="alice") as c:
                more = c.fetch(5)
            print(f"\nalice, reconnected, continues: "
                  f"{[hex(int(v)) for v in more[:3]]} ...")

            overlap = set(np.array([r["first"] for r in results.values()]))
            assert len(overlap) == len(results), "streams must be disjoint"

        # Server is down; the metrics it recorded remain in the registry.
        print("\nserve-side metrics (via repro.obs):")
        for name, value in sorted(registry.snapshot().items()):
            if name.startswith("repro_serve_") and isinstance(value, (int, float)):
                print(f"  {name:36} {value}")


if __name__ == "__main__":
    main()
