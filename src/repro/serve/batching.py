"""Request coalescing, cross-session round planning, and backpressure.

The event loop must never generate numbers itself: a ``FETCH`` becomes a
:class:`BatchRequest` on a **bounded global queue**, and a dispatcher
coroutine runs batches on **one** executor thread, one batch at a time.
Dispatch is work-conserving: the dispatcher takes the first queued
request plus everything else already queued (up to ``max_batch``), runs
that batch, and only then takes the next.  There is no coalescing
timer, so a lone request starts at once, and batches grow with load --
whatever queued while the previous batch ran -- the serving analogue of
the paper's block size ``S``: many small on-demand requests amortize
into one off-loop hop, exactly as many per-thread numbers amortize one
kernel launch.

One thread is enough.  Generation holds the GIL, so a second thread
adds little throughput; it mostly stretches each readahead refill while
another batch runs, and those refills are the request tail.

Execution is *actually* batched: the executor does not run one engine
round trip per request.  It locks every session in the batch (one total
order -- session id), asks each session how many words it needs beyond
its readahead buffer
(:meth:`~repro.serve.session.SessionStream.plan_fill`, raw counts plus
conservative variate word estimates), fuses every engine-backed
session's ``(stream, offset, count)`` span into **one**
:meth:`~repro.engine.sharded.ShardedEngine.fetch_spans` round (a
handful of capped worker messages), scatters the returned buffers into
the sessions' readahead buffers, and then serves each request from
buffer -- raw fetches as zero-copy views handed to the framing path,
variates sampled on scatter through the same word stream.  Word
estimates are only a prefetch hint: a rejection-sampler overrun falls
back to a direct fetch at the exact absolute offset, so every served
byte is identical with coalescing/readahead on or off, and
``words_served`` stays the only resume coordinate.

Backpressure is explicit everywhere:

* the global queue is bounded -- :meth:`BatchingExecutor.try_submit`
  returns ``None`` (the server answers ``BUSY``) instead of buffering
  without limit; requests leave it only when the thread is free, so the
  bound holds without any further gate;
* per-session in-flight caps and the :class:`TokenBucket` rate limiter
  are enforced by the server *before* submission;
* every stage records through :mod:`repro.obs.metrics`
  (``repro_serve_queue_depth``, ``repro_serve_batch_size``,
  ``repro_serve_request_latency_seconds``, ...), so overload is visible
  on the existing Prometheus/JSONL exporters.
"""

from __future__ import annotations

import asyncio
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.serve.protocol import ServeError
from repro.serve.session import SessionStream
from repro.utils.checks import check_positive

__all__ = ["TokenBucket", "BatchRequest", "BatchingExecutor",
           "BATCH_SIZE_BUCKETS", "LATENCY_BUCKETS", "FUSED_SPAN_BUCKETS"]

#: Batch-size histogram bounds (requests per executed batch).
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Request-latency histogram bounds (seconds, serving-flavoured).
LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 5.0
)

#: Fused-span histogram bounds (sessions fused per engine round).
FUSED_SPAN_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

#: Conservative words-per-value estimate for planning a VARIATE's word
#: span (the samplers are rejection-based, so true consumption is
#: data-dependent; see :data:`repro.dist.SERVE_DISTRIBUTIONS`).  Only a
#: prefetch hint -- an overrun falls back to a direct fetch at the
#: exact offset, so estimates can never change served bytes.
_VARIATE_WORDS_PER_VALUE = {
    "uniform01": 1,
    "normal": 2,
    "exponential": 1,
    "integers": 1,
}


def _estimate_words(req: "BatchRequest") -> int:
    """Planner's word-span estimate for one request."""
    if req.dist is None:
        return req.count  # raw fetches are exact: one word per number
    per = _VARIATE_WORDS_PER_VALUE.get(req.dist, 2)
    # Rejection margin: a few percent plus a constant floor covers the
    # ziggurat (~1.5% rejects) and Lemire (~0% for sane ranges) tails.
    return per * req.count + (req.count >> 5) + 8


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    Thread-safe; tokens are *numbers*, so ``try_acquire(n)`` charges a
    fetch by its size.  ``rate=None`` disables limiting entirely (every
    acquire succeeds), which is the server default.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: Optional[float] = None,
        clock=time.monotonic,
    ):
        if rate is not None and rate <= 0:
            raise ValueError(f"rate must be positive or None, got {rate}")
        self.rate = rate
        self.burst = float(burst if burst is not None else (rate or 0.0))
        if rate is not None and self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        self._clock = clock
        self._tokens = self.burst
        self._last = clock()
        self._lock = threading.Lock()

    def try_acquire(self, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        if self.rate is None:
            return True
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    @property
    def tokens(self) -> float:
        """Current token balance (refilled to now; for introspection)."""
        if self.rate is None:
            return float("inf")
        with self._lock:
            now = self._clock()
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate
            )
            self._last = now
            return self._tokens


@dataclass
class BatchRequest:
    """One FETCH or VARIATE in flight: stream, size, typed-or-raw, sink.

    ``dist is None`` is a raw word fetch resolving to a uint64 array;
    otherwise the request resolves to the session's
    ``(values, words_served_after)`` variate tuple.

    ``future`` is attached *after* the request is accepted onto the
    queue (see :meth:`BatchingExecutor.try_submit`): a rejected request
    must never have owned a future, or the BUSY path would leak a
    forever-pending future on the loop.
    """

    session: SessionStream
    count: int
    future: Optional["asyncio.Future"] = None
    dist: Optional[str] = None
    params: Optional[dict] = None
    enqueued_at: float = field(default_factory=time.monotonic)


class BatchingExecutor:
    """Runs queued FETCH/VARIATE requests in batches on one thread.

    Must be started (and closed) from within a running event loop; the
    executor thread hands results back with ``loop.call_soon_threadsafe``.

    Dispatch is work-conserving: each batch is the first queued request
    plus whatever else is already queued, up to ``max_batch``, and the
    next batch is taken only once this one has run.  Batch size is set
    by load, not by a timer.

    Parameters
    ----------
    max_queue : int
        Global bound on queued-but-unexecuted requests; the overload
        valve.  When full, :meth:`try_submit` returns ``None``.
    max_batch : int
        Most requests taken into one batch.
    """

    def __init__(self, max_queue: int = 256, max_batch: int = 64):
        check_positive("max_queue", max_queue)
        check_positive("max_batch", max_batch)
        self.max_queue = int(max_queue)
        self.max_batch = int(max_batch)
        self._queue: Optional["asyncio.Queue[BatchRequest]"] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        #: The batch on the executor thread (done once it has run).
        self._running: Optional["asyncio.Future"] = None
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._closing = False
        self._dispatcher = self._loop.create_task(self._dispatch())

    async def aclose(self) -> None:
        """Stop dispatching; fail whatever is still queued.

        The batch already handed to the executor thread runs to the
        end and settles its own requests; this waits for it without
        blocking the loop.
        """
        self._closing = True
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
            self._dispatcher = None
        if self._queue is not None:
            while not self._queue.empty():
                req = self._queue.get_nowait()
                if req.future is not None and not req.future.done():
                    req.future.set_exception(
                        ServeError("server shutting down")
                    )
            self._observe_depth()
        if self._running is not None:
            await asyncio.wait({self._running})
            self._running = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Submission (event-loop side)
    # ------------------------------------------------------------------

    def try_submit(
        self,
        session: SessionStream,
        count: int,
        dist: Optional[str] = None,
        params: Optional[dict] = None,
    ) -> Optional["asyncio.Future"]:
        """Enqueue a request, or return ``None`` when the queue is full.

        ``dist`` switches the request to the typed-variate path; raw
        word fetches and variate ops share the queue and the executor
        thread (one backpressure story for both).
        """
        if self._queue is None or self._loop is None or self._closing:
            raise ServeError("executor is not running")
        req = BatchRequest(
            session=session, count=count, dist=dist, params=params,
        )
        try:
            self._queue.put_nowait(req)
        except asyncio.QueueFull:
            # No future exists yet, so the BUSY path leaks nothing.
            return None
        # Attach the future only once the request is actually queued.
        # try_submit runs synchronously on the loop thread, so the
        # dispatcher (a coroutine on the same loop) cannot observe the
        # request before the future is in place.
        future: "asyncio.Future" = self._loop.create_future()
        req.future = future
        self._observe_depth()
        return future

    @property
    def queue_depth(self) -> int:
        return 0 if self._queue is None else self._queue.qsize()

    def _observe_depth(self) -> None:
        obs_metrics.gauge(
            "repro_serve_queue_depth", "FETCH requests queued, not yet run"
        ).set(self.queue_depth)

    # ------------------------------------------------------------------
    # Dispatch (event-loop side) and execution (executor thread)
    # ------------------------------------------------------------------

    async def _dispatch(self) -> None:
        assert self._queue is not None and self._loop is not None
        queue, loop = self._queue, self._loop
        while True:
            batch = [await queue.get()]
            while len(batch) < self.max_batch and not queue.empty():
                batch.append(queue.get_nowait())
            # No await between taking the batch off the queue and
            # handing it to the thread, so a cancelled dispatcher never
            # holds requests that nothing will settle.
            self._running = loop.run_in_executor(
                self._pool, self._execute, batch, loop
            )
            self._observe_depth()
            obs_metrics.histogram(
                "repro_serve_batch_size", BATCH_SIZE_BUCKETS,
                "FETCH requests taken per executor batch",
            ).observe(len(batch))
            obs_metrics.counter(
                "repro_serve_batches_total",
                "Batches run on the executor thread",
            ).inc()
            # Shielded: cancelling the dispatcher (aclose) must not
            # cancel a batch the thread has not started yet.
            await asyncio.shield(self._running)

    # -- the cross-session round planner (executor thread) -------------

    def _prefill(self, batch: List[BatchRequest],
                 sessions: List[SessionStream]) -> None:
        """Fuse the batch's engine demand into single multi-span rounds.

        Caller holds every session's lock.  Each session's estimated
        word demand beyond its buffer becomes one ``(stream, offset,
        count)`` span; all spans against the same engine go out as one
        :meth:`fetch_spans` call (the engine packs them into capped
        worker rounds), and each returned buffer lands in its session's
        readahead deque -- the serve step then slices zero-copy views
        out of it.  In-process sessions with readahead prefill from
        their own bank; a failed span is simply skipped here, and the
        serve step's direct fetch surfaces the error per request.
        """
        demand: Dict[int, int] = {}
        by_id: Dict[int, SessionStream] = {id(s): s for s in sessions}
        for req in batch:
            if req.future is not None and req.future.cancelled():
                continue
            key = id(req.session)
            demand[key] = demand.get(key, 0) + _estimate_words(req)
        engines: Dict[int, Tuple[object, List[Tuple[SessionStream, int]]]] \
            = {}
        prefill_words = 0
        for s in sessions:
            d = demand.get(id(s), 0)
            if d <= 0:
                continue
            if s.engine is not None:
                need = s.plan_fill(d)
                if need > 0:
                    engines.setdefault(id(s.engine), (s.engine, []))[1] \
                        .append((s, need))
                else:
                    obs_metrics.counter(
                        "repro_serve_readahead_hits_total",
                        "Session demands served entirely from readahead",
                    ).inc()
            elif s.readahead_max > 0:
                need = s.plan_fill(d)
                if need > 0:
                    s.fill_local(need)
                    prefill_words += need
                else:
                    obs_metrics.counter(
                        "repro_serve_readahead_hits_total",
                        "Session demands served entirely from readahead",
                    ).inc()
            # else: in-process, readahead off -- the direct draw path
            # already runs one fused in-process launch per request.
        for engine, fills in engines.values():
            spans = [
                (s.seed, s.lanes, s.fill_offset(), n) for s, n in fills
            ]
            obs_metrics.histogram(
                "repro_serve_fused_spans", FUSED_SPAN_BUCKETS,
                "Session spans fused into one engine round",
            ).observe(len(spans))
            results = engine.fetch_spans(spans)
            for (s, n), res in zip(fills, results):
                if isinstance(res, np.ndarray):
                    s.push_readahead(res)
                    prefill_words += res.size
                # An Exception here is deliberately dropped: the span's
                # session serves via a direct fetch below, which raises
                # the real error on the request(s) that hit it.
        if prefill_words:
            obs_metrics.counter(
                "repro_serve_prefill_words_total",
                "Words prefetched into session readahead buffers",
            ).inc(prefill_words)

    def _execute(
        self, batch: List[BatchRequest], loop: asyncio.AbstractEventLoop
    ) -> None:
        latency = obs_metrics.histogram(
            "repro_serve_request_latency_seconds", LATENCY_BUCKETS,
            "FETCH latency from enqueue to settled (any outcome)",
        )
        outcomes = {
            key: obs_metrics.counter(
                f"repro_serve_requests_{key}_total",
                f"FETCH/VARIATE requests settled with outcome={key}",
            )
            for key in ("ok", "error", "cancelled")
        }
        try:
            # One total lock order -- session id -- for every holder of
            # several session locks; it nests consistently above the
            # engine's ascending shard-lock order inside fetch_spans.
            sessions = sorted(
                {id(r.session): r.session for r in batch}.values(),
                key=lambda s: (s.session_id, id(s)),
            )
            for s in sessions:
                s.lock.acquire()
            try:
                try:
                    self._prefill(batch, sessions)
                except BaseException:  # noqa: BLE001 - planner is advisory
                    # Planning is pure optimization: if it blows up
                    # (e.g. a dead engine), fall through and let each
                    # request surface its own error from the direct
                    # fetch path.
                    pass
                for req in batch:
                    if req.future is not None and req.future.cancelled():
                        # Client is gone; don't advance its stream.
                        outcomes["cancelled"].inc()
                        continue
                    try:
                        if req.dist is None:
                            values = req.session.generate_locked(req.count)
                        else:
                            values = req.session.variates_locked(
                                req.dist, req.count, req.params
                            )
                    except BaseException as exc:  # noqa: BLE001 - boundary
                        # Failures count toward latency too: a p99 that
                        # drops its slowest (failing) requests is a lie
                        # to the serve gate.
                        latency.observe(time.monotonic() - req.enqueued_at)
                        outcomes["error"].inc()
                        loop.call_soon_threadsafe(
                            _resolve, req.future, None, exc
                        )
                        continue
                    latency.observe(time.monotonic() - req.enqueued_at)
                    outcomes["ok"].inc()
                    loop.call_soon_threadsafe(
                        _resolve, req.future, values, None
                    )
            finally:
                for s in reversed(sessions):
                    s.lock.release()
        except BaseException as exc:  # noqa: BLE001 - never lose a batch
            for req in batch:
                loop.call_soon_threadsafe(_resolve, req.future, None, exc)


def _resolve(future: Optional[asyncio.Future], values, exc) -> None:
    """Settle ``future`` on the loop thread, tolerating cancellation."""
    if future is None or future.done():
        return
    if exc is not None:
        future.set_exception(exc)
    else:
        future.set_result(values)
