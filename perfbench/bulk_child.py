"""The process under test of the bulk workloads.

One cold start -- imports, construction, first filled buffer, then
``READY`` on stdout -- and, with ``--calls``, the timed phase, whose
figures it writes to ``--out``.  It imports nothing of the benchmark's
before ``READY``, so ``setup_s`` times the program's own start alone.

* ``bulk-local`` -- ``ParallelExpanderPRNG(num_threads=4096)``, the
  ``reject`` walk on the blocked glibc feed, as ``repro generate`` runs.
* ``bulk-engine`` -- the same 4096 lanes and feed as ``repro generate
  --shards 2`` builds them: a two-worker ``ShardedEngine``.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

#: Buffer size and the nominal rate (numbers/s on a 2-core host) that
#: turns ``--seconds`` into a fixed number of calls.  The work, not the
#: duration, is fixed, so memory and CPU per number describe the same
#: work on every commit.
BULK = {
    "bulk-local": {"buffer": 1 << 16, "nominal": 500_000},
    "bulk-engine": {"buffer": 1 << 18, "nominal": 1_150_000},
}
THREADS = 4096
ENGINE_SHARDS = 2


def engine_config(seed: int):
    """The config ``repro generate --shards 2 --threads 4096`` builds."""
    from repro.bitsource.glibc import GlibcRandom
    from repro.engine import EngineConfig

    return EngineConfig(
        seed=seed, shards=ENGINE_SHARDS, lanes=THREADS // ENGINE_SHARDS,
        source_factory=GlibcRandom,
    )


def _phase(gen, buf, calls: int, tracer=None) -> dict:
    """``calls`` fills of ``buf``, each timed; CPU of this process tree."""
    import common

    pid = os.getpid()
    starts, latencies, errors = [], [], []
    cpu0 = common.tree_cpu_s(pid)
    t0 = time.monotonic()
    for i in range(calls):
        a = time.monotonic()
        starts.append(a - t0)
        try:
            if tracer is None:
                gen.generate_into(buf)
            else:
                with tracer.op(i):
                    gen.generate_into(buf)
        except Exception as exc:  # counted as a failed op, run goes on
            errors.append(f"{type(exc).__name__}: {exc}")
        latencies.append(time.monotonic() - a)
    wall = time.monotonic() - t0
    cpu1 = common.tree_cpu_s(pid)
    workers0 = {p: v for p, v in cpu0.items() if p != pid}
    workers1 = {p: v for p, v in cpu1.items() if p != pid}
    return {
        "calls": calls,
        "numbers": calls * int(buf.size),
        "wall_s": wall,
        "starts_s": starts,
        "latencies_s": latencies,
        "failed": len(errors),
        "errors": errors[:3],
        "cpu_s": common.cpu_delta(cpu0, cpu1),
        "worker_cpu_s": common.cpu_delta(workers0, workers1),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(BULK), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--calls", type=int, default=0,
                   help="timed calls after the cold start (0: none)")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    import numpy as np

    buf = np.empty(BULK[args.workload]["buffer"], dtype=np.uint64)
    engine = None
    if args.workload == "bulk-local":
        from repro.core.parallel import ParallelExpanderPRNG

        gen = ParallelExpanderPRNG(num_threads=THREADS, seed=args.seed)
    else:
        from repro.engine import ShardedEngine

        gen = engine = ShardedEngine(engine_config(args.seed))
    try:
        gen.generate_into(buf)
        print("READY", flush=True)
        if not args.calls:
            return 0
        import pathlib

        import common

        prefix = buf.copy()
        doc = {"untraced": _phase(gen, buf, args.calls)}
        if args.trace:
            from repro.obs import metrics

            from tracer import Tracer, install

            tracer = Tracer()
            install(tracer)
            registry = metrics.enable()
            doc["traced"] = _phase(gen, buf, args.calls, tracer)
            tracer.uninstall()
            doc["spans"] = tracer.dump()
            doc["registry"] = registry.snapshot()
        doc["hwm_kb"] = common.tree_hwm_kb(os.getpid())
        out = pathlib.Path(args.out)
        np.save(out.with_suffix(".npy"), prefix)
        common.dump_json(out, doc)
        return 0
    finally:
        if engine is not None:
            engine.close()


if __name__ == "__main__":
    sys.exit(main())
