"""The fused serve path: executor regressions and the stream contract.

Covers the three batching-executor bugfixes (shutdown must settle
queued requests, the BUSY path must not leak futures, the latency
histogram must count failures), coalescing by load (requests queued
together run as one batch, up to the batch word cap), the yield that
lets a batch's replies go out before the next batch runs, and the
serve-layer stream
contract under cross-session coalescing + readahead: concurrent
sessions served through the fused planner must byte-compare equal to
per-session serial references, in both wire modes, including a mixed
raw+VARIATE resume drill.
"""

import asyncio
import json
import os
import signal
import socket
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.serve import (
    ServeClient,
    ServeConfig,
    serve_background,
)
from repro.serve.batching import (
    BATCH_SIZE_BUCKETS,
    BATCH_WORDS,
    LATENCY_BUCKETS,
    BatchingExecutor,
)
from repro.serve.protocol import ServeError
from repro.serve.session import SessionStream

SEED = 77


class TestBatchingRegressions:
    def test_shutdown_under_load_settles_popped_batch(self):
        """At aclose, the batch the dispatcher popped has run to the end
        and requests still queued behind it settle with "server
        shutting down" (they used to hang until client timeout).

        The dispatcher first runs one batch and parks on the empty
        queue; five requests then queue before it runs again.  A batch
        runs on the loop without awaiting, so aclose can no longer
        overlap a running batch -- only queued requests are left to
        settle, and none of them advances its stream."""

        async def main():
            ex = BatchingExecutor(max_queue=16, max_batch=64)
            await ex.start()
            s = SessionStream("shutdown", master_seed=SEED)
            ran = await asyncio.wait_for(ex.try_submit(s, 16), 10)
            futs = [ex.try_submit(s, 16) for _ in range(5)]
            assert all(f is not None for f in futs)
            assert ex.queue_depth == 5, "requests should be queued"
            # Awaited directly: aclose cancels the dispatcher before
            # its first await, so the dispatcher never runs again.
            await ex.aclose()
            for fut in futs:
                assert fut.done(), "queued request never settled"
                with pytest.raises(ServeError, match="shutting down"):
                    fut.result()
            assert ex.queue_depth == 0
            return ran, s.words_served

        ran, words = asyncio.run(main())
        ref = SessionStream("shutdown", master_seed=SEED)
        np.testing.assert_array_equal(ran, ref.generate(16))
        assert words == 16

    def test_busy_path_creates_no_future(self):
        """QueueFull must reject *before* a future exists; a future
        created first would stay pending on the loop forever."""

        async def main():
            ex = BatchingExecutor(max_queue=1, max_batch=4)
            await ex.start()
            s = SessionStream("busy", master_seed=SEED)
            # The dispatcher has not run yet, so this fills the queue.
            first = ex.try_submit(s, 4)
            assert first is not None and ex.queue_depth == 1
            created = []
            real = ex._loop.create_future
            ex._loop.create_future = lambda: (created.append(1), real())[1]
            try:
                assert ex.try_submit(s, 4) is None  # BUSY
            finally:
                ex._loop.create_future = real
            assert not created, "BUSY path leaked a future"
            values = await asyncio.wait_for(first, 10)
            await ex.aclose()
            return values

        values = asyncio.run(main())
        np.testing.assert_array_equal(
            values, SessionStream("busy", master_seed=SEED).generate(4)
        )

    def test_requests_queued_together_run_as_one_batch(self):
        """Requests on N sessions queued before the dispatcher runs
        execute as exactly one batch: load, not a timer, sets the batch
        size.  Every reply is the session's own stream."""
        n = 6
        with obs.observed() as (registry, _tracer):

            async def main():
                ex = BatchingExecutor(max_queue=16, max_batch=64)
                await ex.start()
                sessions = [
                    SessionStream(
                        f"coalesce-{i}", master_seed=SEED, readahead_max=4096
                    )
                    for i in range(n)
                ]
                futs = [
                    ex.try_submit(s, 100 + i, dist="normal")
                    if i % 2 else ex.try_submit(s, 100 + i)
                    for i, s in enumerate(sessions)
                ]
                assert ex.queue_depth == n
                got = await asyncio.wait_for(asyncio.gather(*futs), 10)
                await ex.aclose()
                return got

            replies = asyncio.run(main())
            hist = registry.histogram(
                "repro_serve_batch_size", BATCH_SIZE_BUCKETS
            )
            assert hist.count == 1 and hist.sum == n
            assert registry.counter("repro_serve_batches_total").value == 1
        for i, reply in enumerate(replies):
            ref = SessionStream(f"coalesce-{i}", master_seed=SEED)
            if i % 2:
                values, words = reply
                ref_values, ref_words = ref.variates("normal", 100 + i, {})
                np.testing.assert_array_equal(
                    values.view(np.uint64), ref_values.view(np.uint64)
                )
                assert words == ref_words
            else:
                np.testing.assert_array_equal(reply, ref.generate(100 + i))

    def test_batch_stops_taking_requests_at_the_word_cap(self):
        """A batch holds the loop until it ends, so the dispatcher stops
        adding requests once their words reach ``BATCH_WORDS`` (the
        request that reaches it is still taken).  Five half-cap requests
        queued together run as batches of 2, 2 and 1, and every reply
        is its session's own stream."""
        half = BATCH_WORDS // 2
        with obs.observed() as (registry, _tracer):

            async def main():
                ex = BatchingExecutor(max_queue=16, max_batch=64)
                await ex.start()
                futs = [
                    ex.try_submit(
                        SessionStream(f"cap-{i}", master_seed=SEED), half
                    )
                    for i in range(5)
                ]
                got = await asyncio.wait_for(asyncio.gather(*futs), 30)
                await ex.aclose()
                return got

            replies = asyncio.run(main())
            hist = registry.histogram(
                "repro_serve_batch_size", BATCH_SIZE_BUCKETS
            )
            assert (hist.count, hist.sum) == (3, 5)
        for i, reply in enumerate(replies):
            np.testing.assert_array_equal(
                reply,
                SessionStream(f"cap-{i}", master_seed=SEED).generate(half),
            )

    def test_replies_resume_before_the_next_batch(self):
        """With requests still queued after a batch, the dispatcher
        yields once, so the finished batch's waiters (which write the
        replies) run before the next batch starts."""

        async def main():
            ex = BatchingExecutor(max_queue=8, max_batch=1)
            await ex.start()
            a = SessionStream("yield-a", master_seed=SEED)
            b = SessionStream("yield-b", master_seed=SEED)
            first = ex.try_submit(a, 8)
            second = ex.try_submit(b, 8)
            # Awaited directly, as the server's request handler does
            # (wait_for would add a hop of its own).
            await first
            words_b_when_a_replied = b.words_served
            await asyncio.wait_for(second, 10)
            await ex.aclose()
            return words_b_when_a_replied, b.words_served

        assert asyncio.run(main()) == (0, 8)

    def test_requests_read_during_a_batch_run_before_the_next(self):
        """Bytes that reach a client socket while a batch runs are read,
        and their handler runs, before the next batch starts: the
        dispatcher resumes behind the loop's next I/O poll.  Resuming
        ahead of it, back-to-back batches kept a STATUS unread for
        several batches."""

        async def main():
            ex = BatchingExecutor(max_queue=8, max_batch=1)
            await ex.start()
            a = SessionStream("read-a", master_seed=SEED)
            b = SessionStream("read-b", master_seed=SEED)
            await asyncio.wait_for(ex.try_submit(a, 8), 10)  # parks
            rsock, wsock = socket.socketpair()
            reader, writer = await asyncio.open_connection(sock=rsock)

            async def handler():
                await reader.readexactly(1)
                return b.words_served

            handled = asyncio.ensure_future(handler())
            await asyncio.sleep(0)  # the handler waits on its socket
            first = ex.try_submit(a, 8)
            second = ex.try_submit(b, 8)
            wsock.send(b"x")  # arrives while the first batch runs
            words_b_when_handled = await asyncio.wait_for(handled, 10)
            await asyncio.wait_for(asyncio.gather(first, second), 10)
            await ex.aclose()
            writer.close()
            wsock.close()
            return words_b_when_handled

        assert asyncio.run(main()) == 0

    def test_latency_histogram_counts_failures(self):
        """A failing request must still be observed, or the p99 the
        serve gate reads silently drops the slowest outcomes."""
        with obs.observed() as (registry, _tracer):

            async def main():
                ex = BatchingExecutor(max_queue=8, max_batch=4)
                await ex.start()
                s = SessionStream("latfail", master_seed=SEED)
                ok = ex.try_submit(s, 8)
                bad = ex.try_submit(s, 8, dist="no-such-dist")
                assert (await asyncio.wait_for(ok, 10)).size == 8
                with pytest.raises(ValueError):
                    await asyncio.wait_for(bad, 10)
                await ex.aclose()

            asyncio.run(main())
            hist = registry.histogram(
                "repro_serve_request_latency_seconds", LATENCY_BUCKETS
            )
            assert hist.count == 2, "failure missing from the histogram"
            assert registry.counter(
                "repro_serve_requests_error_total"
            ).value == 1
            assert registry.counter(
                "repro_serve_requests_ok_total"
            ).value == 1


def _fetch_concurrently(config, n_clients, sizes, prefix="fused"):
    """``n_clients`` sessions fetching ``sizes`` concurrently."""
    results, errors = {}, []

    def worker(i):
        try:
            with ServeClient(
                h.host, h.port, session=f"{prefix}-{i}"
            ) as c:
                results[i] = np.concatenate([c.fetch(n) for n in sizes])
        except Exception as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    with serve_background(config) as h:
        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    assert not errors, errors
    assert len(results) == n_clients
    return results


class TestFusedStreamContract:
    def test_concurrent_sessions_match_serial_reference(self):
        """N sessions under coalescing + readahead, byte-compared
        against the per-session serial reference."""
        sizes = (3, 257, 64, 1000)
        config = ServeConfig(master_seed=SEED)
        results = _fetch_concurrently(config, 8, sizes)
        for i, got in results.items():
            ref = SessionStream(
                f"fused-{i}", master_seed=SEED
            ).generate(sum(sizes))
            np.testing.assert_array_equal(got, ref)

    def test_readahead_on_off_byte_identical(self):
        """The same session history served with readahead enabled and
        disabled must produce identical bytes -- the buffer is an
        optimization, never part of the stream."""

        def serve_once(readahead):
            config = ServeConfig(
                master_seed=SEED, readahead_max=readahead
            )
            with serve_background(config) as h:
                with ServeClient(h.host, h.port, session="ra") as c:
                    raw = [c.fetch(n) for n in (7, 200, 33)]
                    var = c.fetch_variates("normal", 40)
                    raw.append(c.fetch(64))
            return np.concatenate(raw), var

        raw_on, var_on = serve_once(4096)
        raw_off, var_off = serve_once(0)
        np.testing.assert_array_equal(raw_on, raw_off)
        np.testing.assert_array_equal(
            var_on.view(np.uint64), var_off.view(np.uint64)
        )

    def test_json_wire_mode_through_fused_path(self):
        """The JSON-lines debug mode rides the same fused executor."""
        config = ServeConfig(master_seed=SEED)
        with serve_background(config) as h:
            sock = socket.create_connection((h.host, h.port), timeout=10)
            f = sock.makefile("rwb")
            try:
                def ask(doc):
                    f.write((json.dumps(doc) + "\n").encode())
                    f.flush()
                    return json.loads(f.readline())

                assert ask({"op": "hello", "session": "jsonf"})["ok"]
                got = []
                for n in (5, 90, 33):
                    reply = ask({"op": "fetch", "n": n})
                    assert reply["ok"]
                    got.extend(reply["values"])
            finally:
                sock.close()
        ref = SessionStream("jsonf", master_seed=SEED).generate(128)
        assert got == [int(v) for v in ref]

    def test_mixed_raw_variate_resume_drill(self):
        """Disconnect mid-history, RESUME at the delivered word offset,
        continue with both raw and typed ops through the fused planner:
        the whole thing must equal an uninterrupted serial run."""
        config = ServeConfig(master_seed=SEED)
        with serve_background(config) as h:
            c = ServeClient(h.host, h.port, session="drill")
            head_raw = c.fetch(50)
            head_var = c.fetch_variates("normal", 25)
            mark = c.words_received
            c.close()
            c2 = ServeClient(h.host, h.port, session="drill")
            ack = c2.resume(offset=mark)
            assert ack.get("offset") == mark
            tail_var = c2.fetch_variates("normal", 15)
            tail_raw = c2.fetch(30)
            c2.close()
        ref = SessionStream("drill", master_seed=SEED)
        np.testing.assert_array_equal(head_raw, ref.generate(50))
        ref_hv, words = ref.variates("normal", 25, {})
        np.testing.assert_array_equal(
            head_var.view(np.uint64), ref_hv.view(np.uint64)
        )
        assert words == mark
        ref_tv, _ = ref.variates("normal", 15, {})
        np.testing.assert_array_equal(
            tail_var.view(np.uint64), ref_tv.view(np.uint64)
        )
        np.testing.assert_array_equal(tail_raw, ref.generate(30))

    def test_engine_backed_fused_sessions(self):
        """Engine-backed sessions under the fused planner: concurrent
        streams come out of fetch_spans byte-identical to in-process."""
        sizes = (40, 500, 17)
        config = ServeConfig(master_seed=SEED, engine_shards=2)
        results = _fetch_concurrently(config, 4, sizes, prefix="efused")
        for i, got in results.items():
            ref = SessionStream(
                f"efused-{i}", master_seed=SEED
            ).generate(sum(sizes))
            np.testing.assert_array_equal(got, ref)

    def test_dead_engine_worker_is_replaced_at_once(self):
        """SIGKILL the shard that owns a session's stream.  With the
        engine's default ``fetch_timeout_s`` (60 s), the next FETCH must
        still come back byte-exact within 10 s -- the dead worker is
        noticed between short wait slices and respawned -- and STATUS
        must answer.  Batches run on the event loop, so a wait on a
        dead worker would freeze the whole server."""
        config = ServeConfig(master_seed=SEED, engine_shards=2)
        # Larger than the readahead cap, so the FETCH after the kill
        # has to reach the engine.
        head_n, tail_n = 100, 5000
        ref = SessionStream("dead-worker", master_seed=SEED).generate(
            head_n + tail_n
        )
        with serve_background(config) as h:
            engine = h.server.engine
            with ServeClient(
                h.host, h.port, session="dead-worker", timeout=10
            ) as c:
                head = c.fetch(head_n)
                stream = h.server.sessions["dead-worker"].stream
                shard = engine.stream_shard(stream.seed)
                os.kill(engine._procs[shard].pid, signal.SIGKILL)
                started = time.monotonic()
                tail = c.fetch(tail_n)
                elapsed = time.monotonic() - started
                status = c.status()
        assert elapsed < 10, f"FETCH after the kill took {elapsed:.1f}s"
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)
        assert status["engine"]["restarts"] == 1
        assert status["engine"]["alive"] == [True, True]

    def test_engine_requests_start_no_feeder_thread(self):
        """Engine requests go over a pipe that the serving thread writes
        itself: a fetch through an engine-backed server starts no
        ``multiprocessing.Queue`` feeder thread in the server process
        (one used to wake, and take the GIL, on every engine refill)."""

        def feeders():
            return {t for t in threading.enumerate()
                    if t.name == "QueueFeederThread"}

        before = feeders()
        config = ServeConfig(master_seed=SEED, engine_shards=2)
        with serve_background(config) as h:
            with ServeClient(h.host, h.port, session="no-feeder") as c:
                got = c.fetch(5000)
            started = feeders() - before
        assert not started, f"feeder threads started: {started}"
        np.testing.assert_array_equal(
            got, SessionStream("no-feeder", master_seed=SEED).generate(5000)
        )
