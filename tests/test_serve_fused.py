"""The fused serve path: executor regressions and the stream contract.

Covers the three batching-executor bugfixes (shutdown-under-load must
settle queued requests, the BUSY path must not leak futures, the latency
histogram must count failures), coalescing by load (requests queued
behind a running batch run as one batch), and the serve-layer stream
contract under cross-session coalescing + readahead: concurrent
sessions served through the fused planner must byte-compare equal to
per-session serial references, in both wire modes, including a mixed
raw+VARIATE resume drill.
"""

import asyncio
import json
import socket
import threading

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
    LATENCY_BUCKETS,
    BatchingExecutor,
)
from repro.serve.protocol import ServeError
from repro.serve.session import SessionStream

SEED = 77


class TestBatchingRegressions:
    def test_shutdown_under_load_settles_popped_batch(self):
        """At aclose, requests still queued behind a running batch must
        settle with "server shutting down" (they used to hang until
        client timeout), and the running batch must finish once it can.
        The batch is parked on a session lock the test holds."""

        async def main():
            ex = BatchingExecutor(max_queue=16, max_batch=64)
            await ex.start()
            blocker = SessionStream("shutdown-blocker", master_seed=SEED)
            s = SessionStream("shutdown", master_seed=SEED)
            blocker.lock.acquire()
            try:
                running = ex.try_submit(blocker, 16)
                await asyncio.sleep(0.05)
                assert ex.queue_depth == 0, "batch should be running"
                futs = [ex.try_submit(s, 16) for _ in range(5)]
                assert all(f is not None for f in futs)
                await asyncio.sleep(0.05)
                assert ex.queue_depth == 5, "requests should be queued"
                closing = asyncio.ensure_future(ex.aclose())
                await asyncio.sleep(0.05)
                for fut in futs:
                    assert fut.done(), "queued request never settled"
                    with pytest.raises(ServeError, match="shutting down"):
                        fut.result()
                assert not running.done(), "batch ran through the lock"
            finally:
                blocker.lock.release()
            await asyncio.wait_for(closing, timeout=10)
            ref = SessionStream("shutdown-blocker", master_seed=SEED)
            np.testing.assert_array_equal(running.result(), ref.generate(16))

        asyncio.run(main())

    def test_busy_path_creates_no_future(self):
        """QueueFull must reject *before* a future exists; a future
        created first would stay pending on the loop forever."""

        async def main():
            ex = BatchingExecutor(max_queue=1, max_batch=4)
            await ex.start()
            s = SessionStream("busy", master_seed=SEED)
            s.lock.acquire()  # parks the first batch on the thread
            try:
                first = ex.try_submit(s, 4)   # taken by the dispatcher
                assert first is not None
                await asyncio.sleep(0.05)
                second = ex.try_submit(s, 4)  # sits in the size-1 queue
                assert second is not None
                created = []
                real = ex._loop.create_future
                ex._loop.create_future = lambda: (created.append(1), real())[1]
                try:
                    assert ex.try_submit(s, 4) is None  # BUSY
                finally:
                    ex._loop.create_future = real
                assert not created, "BUSY path leaked a future"
                closing = asyncio.ensure_future(ex.aclose())
                await asyncio.sleep(0.05)
            finally:
                s.lock.release()
            await asyncio.wait_for(closing, timeout=10)
            for fut in (first, second):
                assert fut.done()

        asyncio.run(main())

    def test_requests_queued_behind_a_batch_run_as_one(self):
        """While the executor thread is busy, requests on N sessions
        queue behind its batch and then run as exactly one batch: load,
        not a timer, sets the batch size.  Every reply is the session's
        own stream."""
        n = 6
        with obs.observed() as (registry, _tracer):

            async def main():
                ex = BatchingExecutor(max_queue=16, max_batch=64)
                await ex.start()
                blocker = SessionStream("coalesce-blocker", master_seed=SEED)
                sessions = [
                    SessionStream(
                        f"coalesce-{i}", master_seed=SEED, readahead_max=4096
                    )
                    for i in range(n)
                ]
                blocker.lock.acquire()
                try:
                    first = ex.try_submit(blocker, 8)
                    await asyncio.sleep(0.05)
                    assert ex.queue_depth == 0, "batch should be running"
                    futs = [
                        ex.try_submit(s, 100 + i, dist="normal")
                        if i % 2 else ex.try_submit(s, 100 + i)
                        for i, s in enumerate(sessions)
                    ]
                    await asyncio.sleep(0.05)
                    assert ex.queue_depth == n
                finally:
                    blocker.lock.release()
                got = await asyncio.wait_for(asyncio.gather(first, *futs), 10)
                await ex.aclose()
                return got

            first, *replies = asyncio.run(main())
            hist = registry.histogram(
                "repro_serve_batch_size", BATCH_SIZE_BUCKETS
            )
            assert hist.count == 2 and hist.sum == 1 + n
            assert registry.counter("repro_serve_batches_total").value == 2
        np.testing.assert_array_equal(
            first,
            SessionStream("coalesce-blocker", master_seed=SEED).generate(8),
        )
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
