"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   emit random numbers from the hybrid PRNG (optionally with
               a span trace and a metrics dump); ``--dist`` emits typed
               variates (uniform01/normal/exponential/integers) drawn
               stream-exactly off the same word stream;
``quality``    run a statistical battery against any registered generator;
``platform``   simulate a generation workload on the paper's CPU+GPU
               platform and print timing/utilization;
``figures``    print the platform-model reproduction of a paper figure;
``stats``      run the real hybrid pipeline under full observability and
               print a structured run report (measured vs predicted
               stage shares, feed counters, metrics);
``chaos``      run generation under a named fault-injection profile
               (resilience drill): exits 0 when the retry budget and
               failover chain absorb the faults, 1 with a
               ``FeedFailedError`` diagnosis when they cannot;
``serve``      run the on-demand RNG service (asyncio TCP server,
               per-session expander streams, batching, backpressure,
               per-session statistical sentinels);
``fetch``      fetch numbers from a running server (or query its
               ``STATUS`` document with ``--status``); ``--dist``
               fetches typed variates through the ``VARIATE`` op;
``sentinel``   statistical health checks: watch a live generation run
               with a stream sentinel (optionally under an injected
               fault profile) and/or run the offline pair detectors
               (substream cross-correlation, weak-seed screening,
               glibc lag-structure leakage); exits 1 when anything is
               flagged.

``repro --version`` reports the installed package version, so deployed
servers and clients can say what they run.

``generate`` and ``quality`` accept ``--trace <file.jsonl>`` (JSONL span
and metric events) and ``--metrics`` (Prometheus-style text dump on
stderr); both are off by default, in which case observability costs
nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Optional

import numpy as np

from repro import obs
from repro.baselines import available_generators, make_generator
from repro.baselines.hybrid_adapter import HybridPRNG
from repro.bitsource.buffered import BufferedFeed
from repro.bitsource.glibc import GlibcRandom
from repro.gpusim.pipeline import PipelineConfig, simulate_pipeline
from repro.hybrid.throughput import (
    cpu_hybrid_time_ns,
    curand_time_ns,
    glibc_rand_time_ns,
    hybrid_time_ns,
    mt_time_ns,
)
from repro.resilience.faults import PROFILES
from repro.utils.tables import format_series

__all__ = ["main", "build_parser", "package_version"]

#: Numbers formatted and written per flush in ``generate`` (streaming).
GENERATE_CHUNK = 1 << 14


def package_version() -> str:
    """The installed package version (metadata first, source fallback)."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:  # not installed (e.g. PYTHONPATH=src): use source
        from repro import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="On-demand expander-walk PRNG (IPDPS-W 2012 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p, verb):
        p.add_argument(
            "--format", choices=["hex", "int", "float"], default="hex"
        )
        p.add_argument(
            "--dist", default=None,
            choices=["uniform01", "normal", "exponential", "integers"],
            help=f"{verb} typed variates instead of raw words (--format "
                 "is ignored: floats print as %%.17g, integers as decimals)",
        )
        p.add_argument(
            "--params", default=None, metavar="K=V[,K=V...]",
            help="distribution parameters, e.g. 'mean=0,std=2' (normal), "
                 "'rate=1.5' (exponential), 'lo=0,hi=100' (integers)",
        )

    def add_report_flags(p):
        p.add_argument(
            "--json", action="store_true", help="emit the report as JSON"
        )
        p.add_argument(
            "--trace", metavar="FILE.jsonl", default=None,
            help="additionally write the raw span/metric events to FILE",
        )

    def add_obs_flags(p):
        p.add_argument(
            "--trace", metavar="FILE.jsonl", default=None,
            help="write spans and metrics as JSON lines to FILE",
        )
        p.add_argument(
            "--metrics", action="store_true",
            help="print a Prometheus-style metrics dump to stderr",
        )

    gen = sub.add_parser("generate", help="emit random numbers")
    gen.add_argument("-n", type=int, default=10, help="how many numbers")
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--threads", type=int, default=4096)
    gen.add_argument(
        "--shards", type=int, default=1,
        help="worker processes: > 1 generates on a ShardedEngine pool "
             "(a different, also-reproducible stream for the same seed)",
    )
    add_output_flags(gen, "emit stream-exact")
    add_obs_flags(gen)

    qual = sub.add_parser("quality", help="run a statistical battery")
    qual.add_argument(
        "--generator", default="Hybrid PRNG", choices=available_generators()
    )
    qual.add_argument(
        "--battery",
        default="diehard",
        choices=["diehard", "smallcrush", "crush", "bigcrush", "nist"],
    )
    qual.add_argument("--scale", type=float, default=0.5)
    qual.add_argument("--seed", type=int, default=1)
    add_obs_flags(qual)

    plat = sub.add_parser("platform", help="simulate the hybrid platform")
    plat.add_argument("-n", type=int, default=100_000_000)
    plat.add_argument("--batch-size", type=int, default=100)

    figs = sub.add_parser("figures", help="print a paper figure (model)")
    figs.add_argument("which", choices=["fig3", "fig5", "fig6"])

    stats = sub.add_parser(
        "stats",
        help="run the hybrid pipeline under observability; print a report",
    )
    stats.add_argument("-n", type=int, default=100_000)
    stats.add_argument("--batch-size", type=int, default=None)
    stats.add_argument("--seed", type=int, default=1)
    stats.add_argument(
        "--async-feed", action="store_true",
        help="produce feed batches on a real background thread",
    )
    add_report_flags(stats)

    chaos = sub.add_parser(
        "chaos",
        help="run generation under injected faults (resilience drill)",
    )
    chaos.add_argument(
        "--profile", default="flaky", choices=sorted(PROFILES),
        help="named fault-injection profile",
    )
    chaos.add_argument("-n", type=int, default=100_000)
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--threads", type=int, default=4096)
    chaos.add_argument(
        "--async-feed", action="store_true",
        help="inject into a real background producer thread",
    )
    add_report_flags(chaos)

    serve = sub.add_parser(
        "serve",
        help="run the on-demand RNG service (asyncio TCP server)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8731,
        help="listening port (0 picks an ephemeral port)",
    )
    serve.add_argument("--seed", type=int, default=1, help="master seed")
    serve.add_argument(
        "--lanes", type=int, default=64,
        help="walker lanes per session stream",
    )
    serve.add_argument(
        "--max-session-queue", type=int, default=8,
        help="in-flight FETCHes per session before BUSY",
    )
    serve.add_argument(
        "--max-global-queue", type=int, default=256,
        help="queued requests server-wide before BUSY",
    )
    serve.add_argument(
        "--rate", type=float, default=None,
        help="per-session token-bucket refill (numbers/second)",
    )
    serve.add_argument(
        "--burst", type=float, default=None,
        help="per-session token-bucket capacity (numbers)",
    )
    serve.add_argument(
        "--duration", type=float, default=None,
        help="serve for this many seconds, then exit (default: forever)",
    )
    serve.add_argument(
        "--engine-shards", type=int, default=0,
        help="back sessions with a shard pool of this many worker "
             "processes (0: in-process sessions; values are identical)",
    )
    serve.add_argument(
        "--no-sentinel", action="store_true",
        help="disable the per-session statistical sentinels",
    )
    serve.add_argument(
        "--sentinel-sample", type=int, default=16,
        help="sentinel sampling: keep one served word in this many",
    )
    serve.add_argument(
        "--sentinel-window", type=int, default=4096,
        help="sampled words per evaluated sentinel window",
    )
    serve.add_argument(
        "--journal", default=None, metavar="PATH",
        help="durable session journal: recover sessions from PATH at "
             "startup and append every delivered offset (crash-safe "
             "resume; see docs/serving.md)",
    )
    serve.add_argument(
        "--no-journal-fsync", action="store_true",
        help="skip fsync on journal appends (faster, weaker durability)",
    )
    add_obs_flags(serve)

    sent = sub.add_parser(
        "sentinel",
        help="statistical health checks (live watch + pair detectors)",
    )
    sent.add_argument(
        "--check", default="all",
        choices=["watch", "pairs", "weak-seeds", "lag", "all"],
        help="which detector(s) to run",
    )
    sent.add_argument("--seed", type=int, default=1, help="master seed")
    sent.add_argument(
        "-n", type=int, default=1 << 16,
        help="words generated for the watch and lag checks",
    )
    sent.add_argument("--threads", type=int, default=4096)
    sent.add_argument(
        "--profile", default=None, choices=sorted(PROFILES),
        help="inject a named fault profile into the watch feed "
             "(e.g. 'biased' demonstrates a detection)",
    )
    sent.add_argument(
        "--sample-every", type=int, default=1,
        help="watch sampling: keep one generated word in this many",
    )
    sent.add_argument(
        "--window-words", type=int, default=4096,
        help="sampled words per evaluated watch window",
    )
    sent.add_argument(
        "--streams", type=int, default=8,
        help="derive_seed substreams for the pairs check",
    )
    sent.add_argument(
        "--words", type=int, default=4096,
        help="words per substream for the pairs check",
    )
    sent.add_argument(
        "--json", action="store_true", help="emit results as JSON"
    )

    fetch = sub.add_parser(
        "fetch",
        help="fetch numbers from a running repro serve instance",
    )
    fetch.add_argument("--host", default="127.0.0.1")
    fetch.add_argument("--port", type=int, default=8731)
    fetch.add_argument("-n", type=int, default=10, help="how many numbers")
    fetch.add_argument(
        "--session", default=None,
        help="session id (stream identity; default: random one-off)",
    )
    fetch.add_argument(
        "--retries", type=int, default=5,
        help="retry budget when the server answers BUSY",
    )
    fetch.add_argument(
        "--status", action="store_true",
        help="print the server's STATUS document instead of fetching",
    )
    add_output_flags(fetch, "fetch (VARIATE op)")
    return parser


def parse_dist_params(dist, spec) -> dict:
    """``--params 'k=v,k=v'`` -> typed param dict, validated per dist.

    Raises ``ValueError`` on unknown keys, malformed pairs, values of
    the wrong kind (``integers`` takes ints, the rest take floats), or
    ``--params`` without ``--dist`` (``dist`` None), so ``generate`` and
    ``fetch`` reject bad specs before touching a stream or socket.
    """
    from repro.dist import SERVE_DISTRIBUTIONS

    if dist is None:
        if spec is not None:
            raise ValueError("--params requires --dist")
        return {}
    allowed = SERVE_DISTRIBUTIONS[dist]
    params = {}
    if spec:
        for pair in spec.split(","):
            key, sep, value = pair.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ValueError(
                    f"malformed --params entry {pair!r} (expected k=v)"
                )
            if key not in allowed:
                raise ValueError(
                    f"unknown parameter {key!r} for --dist {dist} "
                    f"(takes {', '.join(allowed) or 'no parameters'})"
                )
            if dist == "integers":
                params[key] = int(value, 0)
            else:
                params[key] = float(value)
    if dist == "integers" and not ("lo" in params and "hi" in params):
        raise ValueError("--dist integers requires --params lo=..,hi=..")
    return params


@contextlib.contextmanager
def _obs_session(args):
    """Enable observability when ``--trace``/``--metrics`` asked for it.

    Yields ``(registry, tracer)`` while enabled (``None`` otherwise); on
    the way out writes the JSONL trace and/or the Prometheus dump, then
    restores the no-op defaults.
    """
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if not trace_path and not want_metrics:
        yield None
        return
    with obs.observed() as (registry, tracer):
        try:
            yield registry, tracer
        finally:
            if trace_path:
                obs.export_jsonl(
                    trace_path, registry, tracer,
                    meta={"command": args.command},
                )
            if want_metrics:
                sys.stderr.write(obs.prometheus_text(registry))


def _format_lines(values: np.ndarray, fmt: Optional[str]) -> str:
    """``values`` one per line, the output format of ``generate``/``fetch``.

    ``fmt`` is ``--format`` for raw words; ``None`` prints typed
    variates: floats as ``%.17g`` (round-trip exact), integers as
    decimals.
    """
    if fmt is None:
        if values.dtype.kind == "f":
            return "\n".join(f"{v:.17g}" for v in values)
        fmt = "int"
    if fmt == "float":
        # uniform53's exact values, derived from the same 64-bit words.
        floats = (values >> np.uint64(11)).astype(np.float64) \
            * (1.0 / 9007199254740992.0)
        return "\n".join(f"{v:.17f}" for v in floats)
    if fmt == "hex":
        return "\n".join(f"{int(v):#018x}" for v in values)
    return "\n".join(str(int(v)) for v in values)


def _emit(out, fill, n: int, fmt: Optional[str], dist=None,
          params=None) -> None:
    """Write ``n`` numbers to ``out``, :data:`GENERATE_CHUNK` per flush.

    ``fill(buf)`` writes the stream's next ``buf.size`` words into
    ``buf``.  With ``dist`` those words feed a
    :class:`~repro.dist.DistStream` and typed variates are written
    instead; the samplers are stream-exact, so the chunking never shows
    in the output.  Large ``n`` is never held in memory whole, and
    output flushes as it goes.
    """
    if dist is None:
        # One pooled buffer for the whole run: words are written
        # straight into it (no per-chunk arrays).
        buf = np.empty(GENERATE_CHUNK, dtype=np.uint64)

        def chunk(k: int) -> np.ndarray:
            fill(buf[:k])
            return buf[:k]
    else:
        from repro.dist import DistStream

        def draw(k: int) -> np.ndarray:
            words = np.empty(k, dtype=np.uint64)
            fill(words)
            return words

        stream = DistStream(draw)
        fmt = None

        def chunk(k: int) -> np.ndarray:
            return stream.sample(dist, k, params)
    written = 0
    while written < n:
        k = min(GENERATE_CHUNK, n - written)
        out.write(_format_lines(chunk(k), fmt))
        out.write("\n")
        out.flush()
        written += k


def _cmd_generate(args) -> int:
    with _obs_session(args) as session, contextlib.ExitStack() as stack:
        if args.shards > 1:
            from repro.engine import EngineConfig, ShardedEngine

            engine = stack.enter_context(ShardedEngine(EngineConfig(
                seed=args.seed,
                shards=args.shards,
                lanes=max(1, args.threads // args.shards),
                source_factory=GlibcRandom,  # the paper's feed, per shard
            )))
            fill = engine.generate_into
        else:
            feed = None
            if session is not None:
                # Route the feed through a BufferedFeed so the trace
                # covers all three pipeline stages (feed/transfer/
                # generate).  The feed is value-transparent, so output
                # is identical to the direct path for the same seed.
                feed = BufferedFeed(
                    GlibcRandom(args.seed), batch_words=1 << 15
                )
            fill = HybridPRNG(
                seed=args.seed, num_threads=args.threads, bit_source=feed
            ).u64_into
        _emit(sys.stdout, fill, args.n, args.format, args.dist,
              args.dist_params)
    return 0


def _cmd_quality(args) -> int:
    from repro.quality.crush import run_battery
    from repro.quality.diehard import run_diehard

    if args.generator == "Hybrid PRNG":
        gen = HybridPRNG(seed=args.seed, num_threads=1 << 16)
    else:
        gen = make_generator(args.generator, seed=args.seed)
    progress = lambda name: print(f"  running {name} ...", file=sys.stderr)
    with _obs_session(args):
        if args.battery == "diehard":
            result = run_diehard(gen, scale=args.scale, progress=progress)
        elif args.battery == "nist":
            from repro.quality.nist import run_nist

            result = run_nist(
                gen, n_bits=max(150_000, int(1_000_000 * args.scale)),
                progress=progress,
            )
        else:
            battery = {"smallcrush": "SmallCrush", "crush": "Crush",
                       "bigcrush": "BigCrush"}[args.battery]
            result = run_battery(battery, gen, scale=args.scale,
                                 progress=progress)
    print(result.summary_table())
    return 0 if result.num_passed == result.num_tests else 1


def _cmd_stats(args) -> int:
    from repro.hybrid.scheduler import HybridScheduler
    from repro.obs import sentinel as sentinel_mod

    guard = sentinel_mod.StreamSentinel(
        sentinel_mod.SentinelConfig(
            window_words=1024, sample_every=1, seed=args.seed
        ),
        name="stats",
    )
    with obs.observed() as (registry, tracer):
        with HybridScheduler(
            seed=args.seed, async_feed=args.async_feed
        ) as sched:
            values, plan, prediction = sched.run(args.n, args.batch_size)
            guard.observe(values)
            report = sched.report(plan=plan, prediction=prediction)
        report.add_section("sentinel", guard.summary())
        if args.trace:
            obs.export_jsonl(
                args.trace, registry, tracer, meta={"command": "stats"}
            )
    print(report.to_json(indent=2) if args.json else report.render())
    return 0


def _cmd_sentinel(args) -> int:
    from repro.obs import sentinel as sentinel_mod
    from repro.obs.sentinel import pairs as pair_checks

    checks = (
        ["watch", "pairs", "weak-seeds", "lag"]
        if args.check == "all"
        else [args.check]
    )
    results = {}
    flagged = []

    if "watch" in checks or "lag" in checks:
        source = GlibcRandom(args.seed)
        if args.profile:
            from repro.resilience.faults import FaultyBitSource

            source = FaultyBitSource(source, args.profile)
        guard = sentinel_mod.StreamSentinel(
            sentinel_mod.SentinelConfig(
                window_words=args.window_words,
                sample_every=args.sample_every,
                seed=args.seed,
            ),
            name="watch",
        )
        gen = HybridPRNG(
            seed=args.seed, num_threads=args.threads, bit_source=source
        )
        buf = np.empty(GENERATE_CHUNK, dtype=np.uint64)
        lag_words = []
        remaining = args.n
        while remaining > 0:
            k = min(GENERATE_CHUNK, remaining)
            gen.u64_into(buf[:k])
            guard.observe(buf[:k])
            if "lag" in checks:
                lag_words.append(buf[:k].copy())
            remaining -= k
        if "watch" in checks:
            results["watch"] = guard.state()
            if guard.verdict is not sentinel_mod.Verdict.STAT_OK:
                flagged.append(f"watch: {guard.verdict.name}")
        if "lag" in checks:
            # Screen the generator's primary 31-bit output field for the
            # glibc feed's additive-feedback lattice; the raw feed is the
            # positive control proving the detector fires.
            outputs = np.concatenate(lag_words) >> np.uint64(33)
            leak = pair_checks.lag_structure(outputs)
            control = pair_checks.glibc_lag_reference(args.seed, n=4096)
            results["lag"] = {
                "output_field": leak,
                "feed_control": control,
            }
            if leak["leaky"]:
                flagged.append("lag: feed structure leaks into outputs")
            if not control["leaky"]:
                flagged.append("lag: positive control failed to fire")

    if "pairs" in checks:
        corr = pair_checks.substream_correlation(
            args.seed, streams=args.streams, words=args.words
        )
        results["pairs"] = corr
        if not corr["ok"]:
            flagged.append(f"pairs: {len(corr['flagged'])} correlated")

    if "weak-seeds" in checks:
        weak = pair_checks.weak_seed_screen(
            args.seed, streams=max(64, args.streams)
        )
        results["weak_seeds"] = weak
        if not weak["ok"]:
            flagged.append(f"weak-seeds: {len(weak['flagged'])} collisions")

    if args.json:
        print(json.dumps(results, indent=2, sort_keys=True))
    else:
        for name, result in sorted(results.items()):
            print(f"== {name} ==")
            print(json.dumps(result, indent=2, sort_keys=True))
    if flagged:
        for reason in flagged:
            print(f"repro sentinel: FLAGGED {reason}", file=sys.stderr)
        return 1
    print("repro sentinel: all checks clean", file=sys.stderr)
    return 0


def _cmd_chaos(args) -> int:
    from repro.resilience.chaos import run_chaos

    result = run_chaos(
        args.profile, n=args.n, seed=args.seed, num_threads=args.threads,
        async_feed=args.async_feed,
    )
    report = result.report
    print(report.to_json(indent=2) if args.json else report.render())
    if args.trace:
        obs.export_jsonl(
            args.trace, report.registry, report.tracer,
            meta={"command": "chaos", "profile": args.profile},
        )
    resilience = report.sections.get("resilience", {})
    if result.survived:
        print(
            f"repro chaos: survived profile {args.profile!r}: "
            f"{resilience.get('retries', 0)} retries, "
            f"{resilience.get('failovers', 0)} failovers, "
            f"health {resilience.get('health', '?')}",
            file=sys.stderr,
        )
    else:
        print(
            f"repro chaos: FAILED under profile {args.profile!r} "
            f"({type(result.error).__name__}): {result.error}",
            file=sys.stderr,
        )
    return result.exit_code


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve.server import RNGServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        master_seed=args.seed,
        lanes=args.lanes,
        max_session_queue=args.max_session_queue,
        max_global_queue=args.max_global_queue,
        rate=args.rate,
        burst=args.burst,
        engine_shards=args.engine_shards,
        sentinel=not args.no_sentinel,
        sentinel_sample=args.sentinel_sample,
        sentinel_window=args.sentinel_window,
        journal_path=args.journal,
        journal_fsync=not args.no_journal_fsync,
    )

    async def run() -> None:
        server = RNGServer(config)
        await server.start()
        print(
            f"repro serve: listening on {config.host}:{server.port} "
            f"(master seed {config.master_seed}, {config.lanes} lanes/session)",
            file=sys.stderr,
        )
        if config.journal_path is not None:
            print(
                f"repro serve: journal {config.journal_path} "
                f"recovered {server.recovered_sessions} session(s)",
                file=sys.stderr,
            )
        sys.stderr.flush()
        # Graceful drain on SIGTERM: stop accepting, finish in-flight
        # batches, stamp the journal's clean-shutdown marker.  SIGKILL
        # skips all of this by design -- recovery does not need it.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        try:
            loop.add_signal_handler(signal.SIGTERM, stop.set)
        except NotImplementedError:  # non-POSIX event loops
            pass
        try:
            waits = [asyncio.ensure_future(stop.wait())]
            if args.duration is not None:
                waits.append(asyncio.ensure_future(
                    asyncio.sleep(args.duration)
                ))
            else:
                waits.append(asyncio.ensure_future(server.serve_forever()))
            done, pending = await asyncio.wait(
                waits, return_when=asyncio.FIRST_COMPLETED
            )
            for fut in pending:
                fut.cancel()
            for fut in done:
                if not fut.cancelled() and fut.exception() is not None:
                    raise fut.exception()
        finally:
            health = server.health  # aclose() closes the engine
            await server.aclose()
            print(
                f"repro serve: stopped after {server.requests_total} "
                f"requests, {server.numbers_total} numbers, "
                f"{server.busy_total} busy, health {health}",
                file=sys.stderr,
            )

    with _obs_session(args):
        try:
            asyncio.run(run())
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_fetch(args) -> int:
    from repro.serve.client import ConnectError, ServeClient
    from repro.serve.protocol import ServeError

    try:
        with ServeClient(
            args.host, args.port, session=args.session, retries=args.retries
        ) as client:
            if args.status:
                print(json.dumps(client.status(), indent=2, sort_keys=True))
                return 0
            if args.dist is not None:
                values = client.fetch_variates(
                    args.dist, args.n, **args.dist_params
                )
                print(_format_lines(values, None))
            else:
                print(_format_lines(client.fetch(args.n), args.format))
    except ConnectError as exc:
        # Connection-level failures exit 2; server-side rejections exit 3.
        print(f"repro fetch: error: {exc}", file=sys.stderr)
        return 2
    except ServeError as exc:
        print(f"repro fetch: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    return 0


def _cmd_platform(args) -> int:
    res = simulate_pipeline(
        PipelineConfig(total_numbers=args.n, batch_size=args.batch_size)
    )
    print(f"numbers      : {args.n}")
    print(f"batch size S : {args.batch_size}")
    print(f"time         : {res.time_ms:.2f} ms")
    print(f"throughput   : {res.throughput_gnumbers_s:.4f} GNumbers/s")
    print(f"CPU idle     : {res.cpu_idle_fraction:.1%}")
    print(f"GPU idle     : {res.gpu_idle_fraction:.1%}")
    return 0


def _cmd_figures(args) -> int:
    if args.which == "fig3":
        sizes = [5, 10, 50, 100, 500, 1000]
        print(format_series(
            "Size (M)", sizes,
            {
                "Hybrid (ms)": [
                    round(hybrid_time_ns(PipelineConfig(
                        total_numbers=int(m * 1e6), batch_size=100)) / 1e6, 1)
                    for m in sizes
                ],
                "MT (ms)": [round(mt_time_ns(int(m * 1e6)) / 1e6, 1)
                            for m in sizes],
                "CURAND (ms)": [round(curand_time_ns(int(m * 1e6)) / 1e6, 1)
                                for m in sizes],
            },
            title="Figure 3 (platform model)",
        ))
    elif args.which == "fig5":
        blocks = [1, 5, 10, 50, 100, 200, 500, 1000]
        print(format_series(
            "S", blocks,
            {"Hybrid (ms)": [
                round(hybrid_time_ns(PipelineConfig(
                    total_numbers=10_000_000, batch_size=s)) / 1e6, 1)
                for s in blocks
            ]},
            title="Figure 5 (platform model, N = 10M)",
        ))
    else:
        sizes = [5, 10, 50, 100, 500, 1000]
        print(format_series(
            "Size (M)", sizes,
            {
                "Hybrid CPU (ms)": [
                    round(cpu_hybrid_time_ns(int(m * 1e6)) / 1e6, 1)
                    for m in sizes
                ],
                "glibc rand() (ms)": [
                    round(glibc_rand_time_ns(int(m * 1e6)) / 1e6, 1)
                    for m in sizes
                ],
            },
            title="Figure 6 (platform model)",
        ))
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command in ("generate", "fetch"):
        try:
            args.dist_params = parse_dist_params(args.dist, args.params)
        except ValueError as exc:
            print(f"repro {args.command}: error: {exc}", file=sys.stderr)
            return 2
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "quality":
            return _cmd_quality(args)
        if args.command == "platform":
            return _cmd_platform(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "chaos":
            return _cmd_chaos(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "sentinel":
            return _cmd_sentinel(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
        return _cmd_figures(args)
    except BrokenPipeError:
        # Downstream closed early (e.g. ``| head``): normal termination.
        # Point stdout at devnull so the interpreter's exit-time flush
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
