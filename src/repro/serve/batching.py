"""Request coalescing, cross-session round planning, and backpressure.

A ``FETCH`` becomes a :class:`BatchRequest` on a **bounded global
queue**, and a dispatcher coroutine runs the queued requests in batches
**on the event-loop thread**, one batch at a time.  Dispatch is
work-conserving: the dispatcher takes the first queued request plus
everything else already queued (up to ``max_batch`` requests and
:data:`BATCH_WORDS` words), runs that batch, and only then takes the
next.  There is no coalescing timer, so a lone
request starts at once, and batches grow with load -- whatever queued
while the previous batch ran -- the serving analogue of the paper's
block size ``S``: many small on-demand requests amortize into one
planned round, exactly as many per-thread numbers amortize one kernel
launch.

Batches run on the loop because, for the traffic this server mostly
sees, the thread hop cost more than it hid.  An executor thread did let
the loop run during a long batch -- the interpreter hands the GIL to a
waiting thread every 5 ms switch interval, and pipe waits and large
NumPy calls release it -- but a batch of a few small requests is far
shorter than that, so the thread bought no overlap there and added two
thread handoffs per request (loop to thread, thread back to loop) on a
host whose load generator shares the cores.  Running each batch inline
served 1.80x the numbers per second at 0.60x the CPU per number on
``serve-local``, and 1.55x at 0.67x on ``serve-engine`` (2-core host,
12 alternating ``perfbench`` pairs each; ``docs/serving.md`` has the
table).

That gain rests on batches much shorter than a switch interval, and
the price is paid when they are not: while a batch runs, HELLO, STATUS
and socket reads wait behind it.  ``benchmarks/bench_serve_stall.py``
measures the wait.  With small requests only, a STATUS took 2 ms at the
median and 20 ms at p99 (1 and 10 ms with the thread); with one client
fetching ``max_fetch`` (1 Mi words, about 0.6 s of generation on a
2-core host) it waits for the large request it arrives behind: 0.33 s
at the median and 0.82 s at p99, where the thread answered in 1 and
28 ms.  Two rules keep that wait to one large request: a batch stops
taking requests at :data:`BATCH_WORDS`, and after a batch the
dispatcher resumes only behind the loop's next I/O poll, so what
arrived meanwhile is read before the next batch starts.  An
engine-backed batch also holds the loop while its workers answer --
up to the engine's ``fetch_timeout_s`` for a worker that is alive but
wedged, which is then killed and replaced (a dead one is noticed
within a 50 ms wait slice).

Execution is *actually* batched: a batch does not run one engine round
trip per request.  It locks every session in the batch (one total
order -- session id), asks each session how many words it needs beyond
its readahead buffer
(:meth:`~repro.serve.session.SessionStream.plan_fill`, raw counts plus
conservative variate word estimates), fuses every engine-backed
session's ``(stream, offset, count)`` span into **one**
:meth:`~repro.engine.sharded.ShardedEngine.fetch_spans` round (one
request and one reply per engine shard), scatters the returned buffers into
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
  without limit; requests leave it only when a batch starts, so the
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.serve.protocol import ServeError
from repro.serve.session import SessionStream
from repro.utils.checks import check_positive

__all__ = ["TokenBucket", "BatchRequest", "BatchingExecutor",
           "BATCH_SIZE_BUCKETS", "BATCH_WORDS", "LATENCY_BUCKETS",
           "FUSED_SPAN_BUCKETS", "READAHEAD_WORDS"]

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


#: Default word cap of a session's readahead buffer
#: (``ServeConfig.readahead_max``): one refill, a 64-step walk over
#: 4096 lanes.
READAHEAD_WORDS = 4096

#: Words of demand after which the dispatcher stops adding requests to
#: a batch (the request that reaches it is still taken).  A batch holds
#: the event loop until it ends, so this bounds how long one batch of
#: many requests keeps HELLO, STATUS and socket reads waiting: eight
#: default refills, about 30 ms of generation on a 2-core host.  A full
#: batch of 512-word requests (64 of them) still fits.
BATCH_WORDS = 8 * READAHEAD_WORDS


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
    """Runs queued FETCH/VARIATE requests in batches on the event loop.

    Must be started (and closed) from within a running event loop.  Each
    batch runs synchronously on the loop thread and settles its
    requests' futures directly.

    Dispatch is work-conserving: each batch is the first queued request
    plus whatever else is already queued, up to ``max_batch`` requests
    and :data:`BATCH_WORDS` words, and the next batch is taken only
    once this one has run and the loop has read what arrived meanwhile.
    Batch size is set by load, not by a timer.

    :meth:`_execute` still takes the locks of the batch's sessions,
    because :class:`SessionStream`'s public methods stay thread-safe for
    callers on other threads.  A blocking acquire on the loop thread is
    only safe while no loop code holds a session lock across an
    ``await``: a coroutine parked with one would deadlock the next batch
    that touches its session.  That has to stay true.

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
        self._dispatcher: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._closing = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._closing = False
        self._dispatcher = self._loop.create_task(self._dispatch())

    async def aclose(self) -> None:
        """Stop dispatching; fail whatever is still queued.

        A batch runs without an ``await``, so the dispatcher can only be
        cancelled between batches: every request is either settled by
        its batch or still queued, and the queued ones fail here.
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

    # ------------------------------------------------------------------
    # Submission
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
        word fetches and variate ops share the queue and the batches
        (one backpressure story for both).
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
            "repro_serve_queue_depth",
            "FETCH/VARIATE requests queued behind the running batch",
        ).set(self.queue_depth)

    # ------------------------------------------------------------------
    # Dispatch and execution (both on the event loop)
    # ------------------------------------------------------------------

    async def _dispatch(self) -> None:
        assert self._queue is not None and self._loop is not None
        queue, loop = self._queue, self._loop
        while True:
            batch = [await queue.get()]
            words = _estimate_words(batch[0])
            while (words < BATCH_WORDS and len(batch) < self.max_batch
                   and not queue.empty()):
                batch.append(queue.get_nowait())
                words += _estimate_words(batch[-1])
            self._observe_depth()
            obs_metrics.histogram(
                "repro_serve_batch_size", BATCH_SIZE_BUCKETS,
                "FETCH requests taken per batch",
            ).observe(len(batch))
            obs_metrics.counter(
                "repro_serve_batches_total",
                "Batches run on the event loop",
            ).inc()
            self._execute(batch, loop)
            if not queue.empty():
                # queue.get() would return at once without yielding:
                # let the settled requests write their replies, and the
                # loop read the requests that came in meanwhile, before
                # the next batch.
                await _after_next_poll(loop)

    # -- the cross-session round planner --------------------------------

    def _prefill(self, batch: List[BatchRequest],
                 sessions: List[SessionStream]) -> None:
        """Fuse the batch's engine demand into single multi-span rounds.

        Caller holds every session's lock.  Each session's estimated
        word demand beyond its buffer becomes one ``(stream, offset,
        count)`` span; all spans against the same engine go out as one
        :meth:`fetch_spans` call (one request and one reply per
        shard), and each returned buffer lands in its session's
        readahead deque -- the serve step then slices zero-copy views
        out of it.  In-process sessions with readahead prefill from
        their own bank; a failed span is simply skipped here, and the
        serve step's direct fetch surfaces the error per request.
        """
        demand: Dict[int, int] = {}
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
        """Run one batch to the end and settle every request in it.

        Called once per batch, as it starts, on the loop thread
        (``loop``); nothing in here awaits.  Exceptions settle the
        requests they hit; ``KeyboardInterrupt`` and ``SystemExit``
        belong to the loop and propagate.
        """
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
                except Exception:  # noqa: BLE001 - planner is advisory
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
                    except Exception as exc:  # noqa: BLE001 - boundary
                        # Failures count toward latency too: a p99 that
                        # drops its slowest (failing) requests is a lie
                        # to the serve gate.
                        latency.observe(time.monotonic() - req.enqueued_at)
                        outcomes["error"].inc()
                        _resolve(req.future, None, exc)
                        continue
                    latency.observe(time.monotonic() - req.enqueued_at)
                    outcomes["ok"].inc()
                    _resolve(req.future, values, None)
            finally:
                for s in reversed(sessions):
                    s.lock.release()
        except Exception as exc:  # noqa: BLE001 - never lose a batch
            for req in batch:
                _resolve(req.future, None, exc)


async def _after_next_poll(loop: asyncio.AbstractEventLoop) -> None:
    """Resume once the loop has handled its next I/O poll.

    Each pass of the loop queues the callbacks of ready sockets first
    and due timers after them, so a zero-delay timer resumes behind the
    socket reads that piled up meanwhile, and the requests they carry
    join the next batch.  ``asyncio.sleep(0)`` would resume ahead of
    those reads, and back-to-back batches could then keep a request
    unread for several batches.
    """
    waiter = loop.create_future()
    loop.call_later(0, lambda: waiter.done() or waiter.set_result(None))
    await waiter


def _resolve(future: Optional[asyncio.Future], values, exc) -> None:
    """Settle ``future``, tolerating cancellation."""
    if future is None or future.done():
        return
    if exc is not None:
        future.set_exception(exc)
    else:
        future.set_result(values)
