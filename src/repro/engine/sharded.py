"""Process-sharded generation behind one canonical stream.

:class:`ShardedEngine` runs ``shards`` worker processes.  Worker ``i``
owns a :class:`~repro.core.parallel.AddressableExpanderPRNG` walker bank
-- the lane range ``[i * lanes, (i + 1) * lanes)`` of a virtual global
bank -- fed by the master seed's substream ``derive_seed(seed, i)``, so
shards are exactly as independent as any two
:func:`~repro.core.streams.spawn_streams` substreams.  Each worker
writes whole rounds into its own shared-memory
:class:`~repro.engine.ring.SharedRing`; the parent assembles the
engine's **bulk stream** by consuming one round from every ring in
shard order:

    round 0: shard 0 lanes, shard 1 lanes, ..., round 1: shard 0, ...

That stream is a pure function of ``(seed, shards, lanes, walk_length,
policy)`` -- :func:`serial_reference` produces the identical values in
process, and ``generate`` buffers round remainders so fetch sizing
cannot change it (the same stream contract the core obeys).

Workers also answer **named stream reads** (the serving path): a read
``(stream_seed, lanes, offset, count)`` names a stream, is routed to the
shard ``stream_seed % shards``, and is served from a per-stream walker
bank inside that worker -- built by the same
:func:`~repro.resilience.supervised.stream_bank` an in-process session
uses, which is what lets ``repro.serve`` sessions move onto the shard
pool without changing a single client-visible value.  Banks are
:class:`~repro.core.parallel.AddressableExpanderPRNG` streams (the
engine requires a fixed-consumption policy), and a read is a pure
function of its four numbers: the engine keeps no position of its own
for a named stream.  A worker whose bank is at a different position
seeks to the read's offset directly -- O(log offset) via the feed
jump-ahead -- so respawn cost is independent of stream age and any
slice is served without replay.  For the same reason a worker keeps
only the :data:`MAX_WORKER_STREAMS` banks it used last: an evicted
stream is rebuilt and seeks to its next read's offset.

Health follows :mod:`repro.resilience`: worker feeds run behind
:class:`~repro.resilience.supervised.SupervisedFeed` failover chains, a
worker that dies or misses its deadline is killed and surfaces as
:class:`~repro.resilience.errors.WorkerFailedError` (or is respawned
when ``auto_restart`` is on, with the engine reporting ``DEGRADED``;
work that fails on the respawned worker too gets the error, and is
never sent a third time), and ``repro_engine_*`` metrics/spans flow
through :mod:`repro.obs`.

NOTE: wall-clock speedup needs a core per shard; the reproduction host
has two, so shards beyond two share them --
``benchmarks/bench_engine_scaling.py`` measures the scaling where cores
exist.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import os
import pickle
import select
import signal
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.bitsource.base import BitSource
from repro.core.parallel import AddressableExpanderPRNG
from repro.core.streams import derive_seed
from repro.core.walk import DEFAULT_WALK_LENGTH, FIXED_CONSUMPTION_POLICIES
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.errors import WorkerFailedError
from repro.resilience.supervised import stream_bank
from repro.utils.checks import check_positive

from repro.engine.ring import RingHandle, SharedRing

__all__ = [
    "DEFAULT_ENGINE_LANES",
    "DEFAULT_RING_BURST",
    "DEFAULT_RING_SLOTS",
    "EngineConfig",
    "ShardedEngine",
    "serial_reference",
]

#: Lanes per shard: big enough to stay vectorized, small enough that a
#: round is quick to assemble and the rings stay compact.
DEFAULT_ENGINE_LANES = 4096

#: Rounds buffered per shard ring; the writer stalls when all are full,
#: which is the engine's built-in backpressure.
DEFAULT_RING_SLOTS = 4

#: Rounds packed into one ring slot (the burst width): one
#: semaphore/notify pair and one fused multi-round launch per burst,
#: instead of per round.  Bursts are transport framing only -- the
#: reader hands rounds out one at a time and restart positions stay
#: round-granular -- so the bulk stream is unchanged for any value.
DEFAULT_RING_BURST = 8

#: Worker poll interval while idle (ring full, no pending requests) or
#: while its reply waits on a full pipe; between polls the worker checks
#: that the process that started it is still there.
_IDLE_POLL_S = 0.02

#: Slice of every parent-side wait on a worker.  Between slices the
#: engine checks the worker process, so a dead one is noticed within
#: this long; ``fetch_timeout_s`` stays the deadline for a worker that
#: is alive but silent.  A reply already in the pipe ends the wait at
#: once, so the slice costs nothing on the normal path.
_LIVENESS_SLICE_S = 0.05

#: Head of every message on an engine pipe, requests and replies alike:
#: the byte lengths of the pickled ``(tag, payload)`` that follows it
#: and of the raw words after that.
_FRAME_HEAD = struct.Struct("<QQ")

#: Word cap for one ring burst (16 MiB of uint64): ``ring_burst`` is cut
#: back so one slot never holds more.  Named-stream reads have no cap:
#: a shard's reply carries all of its spans, however many words.
MAX_ROUND_WORDS = 1 << 21

#: Named-stream banks a worker keeps, least recently used evicted first:
#: about 6 MB at some 6 KB a bank.  Reads name their offset, so an
#: evicted stream is rebuilt and seeks there; no byte depends on it.
MAX_WORKER_STREAMS = 1024


@dataclass(frozen=True)
class EngineConfig:
    """Everything that identifies a shard pool *and* its streams.

    ``(seed, shards, lanes, walk_length, policy)`` are part of the bulk
    stream's identity; the rest is operational.
    """

    seed: int = 0
    shards: int = 2
    lanes: int = DEFAULT_ENGINE_LANES
    walk_length: int = DEFAULT_WALK_LENGTH
    #: Walk policy; must be fixed-consumption ('mod'/'lazy') -- engine
    #: streams are offset-addressable, which 'reject' cannot be.
    policy: str = "lazy"
    #: Rounds buffered per shard; ``0`` disables the bulk stream (a
    #: serve-only pool answers stream fetches but assembles no rounds).
    ring_slots: int = DEFAULT_RING_SLOTS
    #: Rounds per ring slot (burst width); the effective value is capped
    #: so one burst never exceeds :data:`MAX_ROUND_WORDS` words.
    #: Transport framing only -- never part of the stream's identity.
    ring_burst: int = DEFAULT_RING_BURST
    #: Install the SplitMix64/OS-entropy failover chain behind every
    #: worker feed (the feed is supervised either way).  Value-
    #: transparent while healthy, so it never changes the stream.
    failover: bool = True
    #: Deadline for one round / one fetch response from a worker that is
    #: alive but silent (a dead worker is noticed within a fraction of a
    #: second); on expiry the worker is killed, as if it had died.
    fetch_timeout_s: float = 60.0
    #: Respawn dead (or timed-out) workers (deterministic seek to the
    #: dead shard's position) instead of raising; the engine reports
    #: DEGRADED afterwards.
    auto_restart: bool = False
    #: Picklable ``seed -> BitSource`` override for the *primary* feed
    #: of every worker bank and stream (fault injection in tests).
    source_factory: Optional[Callable[[int], BitSource]] = None

    def __post_init__(self):
        check_positive("shards", self.shards)
        check_positive("lanes", self.lanes)
        check_positive("walk_length", self.walk_length)
        if self.policy not in FIXED_CONSUMPTION_POLICIES:
            raise ValueError(
                f"engine streams are offset-addressable and need a "
                f"fixed-consumption policy {FIXED_CONSUMPTION_POLICIES}, "
                f"got {self.policy!r}"
            )
        if self.ring_slots < 0:
            raise ValueError(
                f"ring_slots must be >= 0, got {self.ring_slots}"
            )
        check_positive("ring_burst", self.ring_burst)
        if self.fetch_timeout_s <= 0:
            raise ValueError(
                f"fetch_timeout_s must be > 0, got {self.fetch_timeout_s}"
            )


def _effective_burst(config: EngineConfig) -> int:
    """Rounds per ring slot, capped so a burst stays under the word cap."""
    return max(1, min(config.ring_burst, MAX_ROUND_WORDS // config.lanes))


def serial_reference(config: EngineConfig, n: int) -> np.ndarray:
    """The exact bulk stream the shard pool produces, single-process.

    Used by tests to prove the decomposition changes nothing: round
    ``r`` of the engine is shard 0's round ``r``, then shard 1's, ...
    Shard ``i``'s bank is the named stream ``(derive_seed(config.seed,
    i), config.lanes)``.
    """
    check_positive("n", n)
    banks = [
        stream_bank(derive_seed(config.seed, i), config.lanes,
                    config.source_factory, config.failover,
                    config.walk_length, config.policy)
        for i in range(config.shards)
    ]
    parts: List[np.ndarray] = []
    total = 0
    while total < n:
        for bank in banks:
            vals = bank.next_round()
            parts.append(vals)
            total += vals.size
    return np.concatenate(parts)[:n]


# ----------------------------------------------------------------------
# Framed pipes: one wire format, both directions
# ----------------------------------------------------------------------

class _FrameWriter:
    """The sending end of a one-way engine pipe, written without blocking.

    :meth:`send` frames one message -- head, pickled ``(tag, payload)``,
    then the raw words -- and queues it.  The words go out as their own
    bytes, not inside the pickle, so the reader receives them straight
    into the array it returns.  Calling the writer is one bounded wait:
    it writes what the pipe takes and returns ``True`` once everything
    queued is out, or ``None`` if ``timeout`` passes first.  A reader
    that is gone raises :class:`BrokenPipeError`.
    """

    def __init__(self, conn):
        self.conn = conn
        os.set_blocking(conn.fileno(), False)
        self._poll = select.poll()
        self._poll.register(conn.fileno(), select.POLLOUT)
        self._views: List[memoryview] = []

    def send(self, tag: str, payload=None,
             words: Optional[np.ndarray] = None) -> None:
        meta = pickle.dumps((tag, payload))
        body = memoryview(b"" if words is None else words).cast("B")
        self._views += [
            memoryview(_FRAME_HEAD.pack(len(meta), body.nbytes) + meta), body
        ]

    def __call__(self, timeout: float) -> Optional[bool]:
        deadline = time.monotonic() + timeout
        while self._views:
            try:
                sent = os.writev(self.conn.fileno(), self._views)
            except BlockingIOError:
                sent = 0
            while self._views and sent >= self._views[0].nbytes:
                sent -= self._views.pop(0).nbytes
            if self._views:
                self._views[0] = self._views[0][sent:]
                left = deadline - time.monotonic()
                if left <= 0 or not self._poll.poll(left * 1000):
                    return None
        return True


class _FrameReader:
    """The receiving end of a one-way engine pipe.

    Called as one bounded wait: the next whole message as ``(tag,
    payload, words)``, or ``None`` if none completes within ``timeout``;
    :class:`EOFError` once no writer is left.  The pipe is read without
    blocking, and a half-read message stays here between calls, so a
    writer that dies part-way through a message -- any message bigger
    than the pipe buffer can be caught there -- never blocks the
    reader: the wait just ends, and the caller checks the other process.
    """

    def __init__(self, conn):
        self.conn = conn
        os.set_blocking(conn.fileno(), False)
        self._pipe = io.FileIO(conn.fileno(), "rb", closefd=False)
        self._head = bytearray()
        self._words: Optional[np.ndarray] = None
        self._filled = 0

    def __call__(self, timeout: float):
        deadline = time.monotonic() + timeout
        while True:
            got = self._read()
            if got is None:  # nothing in the pipe yet
                if not self.conn.poll(max(0.0, deadline - time.monotonic())):
                    return None
            elif not got:
                raise EOFError("engine pipe closed by its writer")
            elif self._words is not None \
                    and self._filled == self._words.nbytes:
                tag, payload = pickle.loads(self._head[_FRAME_HEAD.size:])
                words = self._words
                self._head, self._words, self._filled = bytearray(), None, 0
                return tag, payload, words

    def _read(self) -> Optional[int]:
        """Read what the pipe holds of the current message.

        Returns the bytes read: ``0`` at EOF, ``None`` if the pipe is
        empty.
        """
        if self._words is not None:
            view = memoryview(self._words).cast("B")
            got = self._pipe.readinto(view[self._filled:])
            self._filled += got or 0
            return got
        size = _FRAME_HEAD.size
        if len(self._head) >= size:
            size += _FRAME_HEAD.unpack_from(self._head)[0]
        chunk = self._pipe.read(size - len(self._head))
        if chunk is None:
            return None
        self._head += chunk
        if len(self._head) == size > _FRAME_HEAD.size:
            # The pickle is in; the words (maybe none) come next.
            nbytes = _FRAME_HEAD.unpack_from(self._head)[1]
            self._words = np.empty(nbytes // 8, dtype=np.uint64)
        return len(chunk)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

def _picklable(exc: BaseException):
    """The exception itself if it survives pickling, else a string."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return f"{type(exc).__name__}: {exc}"


def _serve_request(
    req,
    streams: OrderedDict[Tuple[int, int], AddressableExpanderPRNG],
    config: EngineConfig,
    reply,
) -> None:
    """Answer one ``("fetch", spans)`` request with exactly one reply.

    The request carries all of the caller's spans for this shard, and
    every span is generated into one output buffer, back to back, and
    shipped as one ``okv`` reply.  Spans are independent streams, so a
    failed span is recorded in ``metas`` (its slot in the buffer is
    simply not filled) and the rest of the request still succeeds.
    ``streams`` keeps the :data:`MAX_WORKER_STREAMS` banks used last.
    """
    tag, spans, _ = req
    try:
        if tag != "fetch":
            raise ValueError(f"unknown engine request {tag!r}")
        buf = np.empty(sum(s[3] for s in spans), dtype=np.uint64)
        metas: list = []
        pos = 0
        for stream_seed, lanes, offset, n in spans:
            try:
                key = (stream_seed, lanes)
                prng = streams.get(key)
                if prng is None:
                    prng = streams[key] = stream_bank(
                        stream_seed, lanes, config.source_factory,
                        config.failover, config.walk_length, config.policy,
                    )
                    if len(streams) > MAX_WORKER_STREAMS:
                        streams.popitem(last=False)
                else:
                    streams.move_to_end(key)
                if prng.tell() != offset:
                    # Fresh bank behind a long-lived stream (after a
                    # restart or an eviction), or a read elsewhere in
                    # the stream: jump straight there -- O(log offset),
                    # never a replay of the already-served prefix.
                    prng.seek(offset)
                if n:
                    prng.generate_into(buf[pos:pos + n])
                metas.append(n)
                pos += n
            except Exception as exc:  # noqa: BLE001 - shipped per span
                metas.append(_picklable(exc))
    except Exception as exc:  # noqa: BLE001 - shipped to the caller
        reply("err", _picklable(exc))
        return
    reply("okv", metas, buf[:pos])


def _shard_main(config: EngineConfig, shard_index: int,
                ring_handle: Optional[RingHandle], requests, replies,
                resume_rounds: int) -> None:
    """Worker body: produce ring rounds, answer stream fetches.

    ``resume_rounds`` > 0 means this process replaces a dead shard: the
    bank seeks straight to that round boundary -- O(log offset), so a
    respawn costs the same whether the shard died in round 3 or round
    3 billion -- and the ring resumes at exactly the round the reader
    expects.

    Requests arrive on ``requests``, and replies, the ``ready`` one
    first, go to ``replies``: two one-way pipes in the same framing.
    Nothing here touches a lock the parent or another worker waits on:
    a worker SIGKILLed inside a shared ``Event`` would die holding the
    event's lock, and everyone else would block on it forever.

    The worker leaves once the process that started it is gone, checked
    wherever it waits: idle, behind a full ring, or behind a full reply
    pipe.  EOF on its request pipe cannot tell it that, since under
    fork it holds a copy of the pipe's write end itself, and so does
    every worker started after it.

    A forked worker also inherits the event loop's signal handlers and
    wakeup fd, through which a SIGTERM to it would shut ``repro serve``
    down: so SIGTERM and SIGINT go back to their defaults first.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    parent = mp.parent_process().pid
    bank = (
        stream_bank(derive_seed(config.seed, shard_index), config.lanes,
                    config.source_factory, config.failover,
                    config.walk_length, config.policy)
        if ring_handle is not None else None
    )
    if bank is not None and resume_rounds:
        bank.seek(resume_rounds * config.lanes)
    writer = ring_handle.attach() if ring_handle is not None else None
    streams: OrderedDict[Tuple[int, int], AddressableExpanderPRNG] = \
        OrderedDict()
    inbox, outbox = _FrameReader(requests), _FrameWriter(replies)

    def reply(tag: str, payload=None,
              words: Optional[np.ndarray] = None) -> None:
        outbox.send(tag, payload, words)
        while outbox(_IDLE_POLL_S) is None:
            if os.getppid() != parent:
                raise BrokenPipeError("the engine's process is gone")

    try:
        reply("ready")
        while True:
            produced = False
            if writer is not None:
                slot = writer.try_reserve()
                if slot is not None:
                    # One fused multi-round launch fills the whole
                    # burst in place (zero-alloc: the slot is a view
                    # into shared memory), then one notify publishes
                    # every round in it.
                    bank.generate_into(slot)
                    writer.commit()
                    produced = True
            req = inbox(0.0 if produced else _IDLE_POLL_S)
            if req is not None:
                _serve_request(req, streams, config, reply)
            elif os.getppid() != parent:
                return
    except (EOFError, BrokenPipeError):
        return  # the parent closed this worker's pipes, or is gone
    finally:
        if writer is not None:
            writer.close()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------

class ShardedEngine:
    """A pool of generation shards behind one stream-exact interface.

    Use as a context manager, or call :meth:`close` explicitly; worker
    processes and shared-memory rings are real OS resources.
    """

    def __init__(self, config: Optional[EngineConfig] = None, **overrides):
        if config is None:
            config = EngineConfig(**overrides)
        elif overrides:
            raise TypeError("pass either a config or keyword overrides")
        self.config = config
        self._ctx = (
            mp.get_context("fork")
            if "fork" in mp.get_all_start_methods()
            else mp.get_context("spawn")
        )
        n = config.shards
        self._procs: List[Optional[mp.Process]] = [None] * n
        self._rings: List[Optional[SharedRing]] = [None] * n
        self._requests: List[Optional[_FrameWriter]] = [None] * n
        self._replies: List[Optional[_FrameReader]] = [None] * n
        #: Why each shard went down, for every request it then refuses.
        self._failures: List[Optional[str]] = [None] * n
        #: Rounds of each shard the reader has consumed -- the restart
        #: seek target (a respawned worker jumps straight there).
        self._rounds_consumed = [0] * n
        #: Rounds per ring slot (burst width), after the word cap.
        self._burst = _effective_burst(config)
        #: Read cursor inside each shard's current burst.  Reset on
        #: respawn: a fresh ring's first burst starts at exactly
        #: ``_rounds_consumed[i]``, so the partially-read burst that
        #: died with the old ring is regenerated from its unread round.
        self._burst_pos = [0] * n
        self._shard_locks = [threading.Lock() for _ in range(n)]
        self._gen_lock = threading.Lock()
        self._remainder = np.empty(0, dtype=np.uint64)
        self.rounds_assembled = 0
        self.restarts = 0
        self._closed = False
        obs_metrics.gauge(
            "repro_engine_shards", "Worker shards in the generation engine"
        ).set(n)
        try:
            for i in range(n):
                self._spawn(i, resume_rounds=0)
        except BaseException:
            self.close()
            raise

    # -- lifecycle -----------------------------------------------------

    def _spawn(self, i: int, resume_rounds: int) -> None:
        cfg = self.config
        ring = (
            SharedRing(cfg.ring_slots, cfg.lanes, self._ctx,
                       rounds_per_slot=self._burst)
            if cfg.ring_slots
            else None
        )
        self._burst_pos[i] = 0
        requests, to_worker = self._ctx.Pipe(duplex=False)
        from_worker, replies = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_shard_main,
            args=(cfg, i, ring.handle() if ring else None, requests, replies,
                  resume_rounds),
            daemon=True,
            name=f"repro-engine-shard-{i}",
        )
        proc.start()
        requests.close()  # the worker's ends
        replies.close()
        self._rings[i], self._procs[i] = ring, proc
        self._requests[i] = _FrameWriter(to_worker)
        self._replies[i] = _FrameReader(from_worker)
        if self._await_worker(i, self._replies[i]) is None:
            self._reap(i, "during startup")
            raise WorkerFailedError(
                f"engine shard {i} {self._failures[i]} "
                f"(resume_rounds={resume_rounds})",
                worker_index=i,
            )

    def _reap(self, i: int, doing: Optional[str] = None) -> None:
        """Kill shard ``i``'s process and release its ring and pipes;
        ``doing`` names what it failed at, for every error it causes.

        SIGKILL, not SIGTERM: it also ends a worker that is stopped, and
        a worker has nothing to clean up that this does not release.
        """
        proc = self._procs[i]
        if proc is not None:
            if doing is not None:
                # A dying worker closes its pipes before it can be
                # reaped: give it one slice to finish exiting, so its
                # death is not reported as a timeout.
                proc.join(_LIVENESS_SLICE_S)
                self._failures[i] = (
                    f"timed out {doing} after {self.config.fetch_timeout_s}s"
                    f" (process alive but unresponsive)"
                    if proc.is_alive()
                    else f"died {doing} (exitcode={proc.exitcode})"
                )
            proc.kill()
            proc.join(timeout=5)
        if self._rings[i] is not None:
            self._rings[i].close(unlink=True)
        for end in (self._requests[i], self._replies[i]):
            if end is not None:
                end.conn.close()
        self._procs[i] = self._rings[i] = None
        self._requests[i] = self._replies[i] = None

    def _await_worker(self, i: int, attempt: Callable[[float], object]):
        """Wait on shard ``i`` in slices, watching its process.

        ``attempt(timeout)`` is one bounded wait that returns ``None``
        when nothing happened yet.  Returns its first other result, or
        ``None`` once the process is dead, its end of the pipe is
        closed or ``fetch_timeout_s`` has passed -- the caller then
        hands the shard to :meth:`_shard_down`.
        """
        deadline = time.monotonic() + self.config.fetch_timeout_s
        while True:
            left = deadline - time.monotonic()
            try:
                got = attempt(max(0.0, min(_LIVENESS_SLICE_S, left)))
            except (EOFError, BrokenPipeError):
                return None
            if got is not None:
                return got
            proc = self._procs[i]
            if left <= 0 or proc is None or not proc.is_alive():
                return None

    def _send(self, i: int, tag: str, payload=None) -> bool:
        """Write one request to shard ``i``, waiting on a full pipe
        through :meth:`_await_worker`; ``False`` if the shard is down."""
        out = self._requests[i]
        if out is None:
            return False
        out.send(tag, payload)
        return self._await_worker(i, out) is not None

    def _shard_down(self, i: int, doing: str) -> None:
        """Shard ``i`` died or missed ``fetch_timeout_s``: one path for
        both, never a hang.

        The worker is killed and its pipes are dropped unread, so a late
        reply can never answer a later request.  With ``auto_restart``
        the shard is respawned, seeking to where the dead one stopped,
        and the caller may give the same work to the new worker once
        (absolute offsets keep that byte-exact); otherwise this raises,
        and so does every later request to the shard.
        """
        self._reap(i, doing)
        if not self.config.auto_restart or self._closed:
            raise WorkerFailedError(
                f"engine shard {i} {self._failures[i]}; no partial "
                f"results were returned",
                worker_index=i,
            )
        obs_metrics.counter(
            "repro_engine_restarts_total", "Engine shards respawned"
        ).inc()
        self.restarts += 1
        with span("engine.restart", shard=i,
                  resume_rounds=self._rounds_consumed[i]):
            self._spawn(i, resume_rounds=self._rounds_consumed[i])

    def _failed_again(self, i: int) -> WorkerFailedError:
        """The error for work whose respawned worker failed it too: it
        is not sent a third time (the shard is respawned for later
        work), so work that kills every worker cannot loop forever."""
        return WorkerFailedError(
            f"engine shard {i} {self._failures[i]} on work its previous "
            f"worker had failed too; no partial results were returned",
            worker_index=i,
        )

    def close(self) -> None:
        """Stop all workers and release rings and pipes (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for i in range(self.config.shards):
            self._reap(i)
        self._failures = ["was closed"] * self.config.shards

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass

    # -- bulk stream ---------------------------------------------------

    def _peek_round(self) -> list:
        """Zero-copy ring views of every shard's next round, shard-major.

        Blocks until *all* shards have a round ready, reviving a dead
        shard once per round; nothing is consumed, so a failure mid-peek
        leaves every ring intact (the no-partial-results contract).
        """
        cfg = self.config
        lanes = cfg.lanes
        parts = []
        for i in range(cfg.shards):
            for _ in range(2):  # the worker, then at most one respawn
                ring = self._rings[i]
                view = (
                    self._await_worker(i, ring.peek)
                    if ring is not None else None
                )
                if view is not None:
                    break
                self._shard_down(i, "producing a round")
            else:
                raise self._failed_again(i)
            # The slot holds a burst; hand out this shard's next unread
            # round of it.  Peek is idempotent, so re-peeking the same
            # slot just re-slices at the same cursor.
            pos = self._burst_pos[i]
            parts.append(view[pos * lanes:(pos + 1) * lanes])
        return parts

    def _consume_round(self) -> None:
        """Release the round returned by the last :meth:`_peek_round`.

        The underlying ring slot is only handed back to the writer once
        every round of its burst has been consumed.
        """
        for i in range(self.config.shards):
            self._burst_pos[i] += 1
            if self._burst_pos[i] >= self._burst:
                self._rings[i].consume()
                self._burst_pos[i] = 0
            self._rounds_consumed[i] += 1
        self.rounds_assembled += 1
        obs_metrics.counter(
            "repro_engine_rounds_total", "Engine rounds assembled"
        ).inc()

    def _next_round(self) -> np.ndarray:
        """Assemble one engine round: every shard's round, shard-major."""
        parts = self._peek_round()
        out = np.concatenate(parts)  # one copy, straight from the rings
        self._consume_round()
        return out

    def generate_into(self, out: np.ndarray) -> None:
        """Fill ``out`` with the next ``out.size`` numbers of the stream.

        Zero-copy variant of :meth:`generate`: full rounds are copied
        straight from the shards' ring views into the caller's buffer
        (no intermediate round array); only a trailing partial round
        goes through the remainder buffer.  ``out`` must be a
        one-dimensional, C-contiguous, writeable ``uint64`` array.
        """
        if not isinstance(out, np.ndarray):
            raise TypeError(f"out must be a numpy array, got {type(out)!r}")
        if out.dtype != np.uint64:
            raise TypeError(f"out must have dtype uint64, got {out.dtype}")
        if out.ndim != 1:
            raise ValueError(f"out must be one-dimensional, got shape {out.shape}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if not out.flags.writeable:
            raise ValueError("out must be writeable")
        if not self.config.ring_slots:
            raise RuntimeError(
                "bulk stream disabled: this engine was built with "
                "ring_slots=0 (serve-only)"
            )
        n = out.size
        round_size = self.config.shards * self.config.lanes
        with self._gen_lock:
            with span("engine.generate", n=n, shards=self.config.shards):
                pos = 0
                if self._remainder.size:
                    take = min(self._remainder.size, n)
                    out[:take] = self._remainder[:take]
                    self._remainder = self._remainder[take:]
                    pos = take
                while n - pos >= round_size:
                    for view in self._peek_round():
                        out[pos : pos + view.size] = view
                        pos += view.size
                    self._consume_round()
                if pos < n:
                    vals = self._next_round()
                    take = n - pos
                    out[pos:] = vals[:take]
                    self._remainder = vals[take:].copy()
            obs_metrics.counter(
                "repro_engine_numbers_total", "Numbers served (bulk stream)"
            ).inc(n)

    def generate(self, n: int) -> np.ndarray:
        """The next ``n`` numbers of the engine's bulk stream.

        Fetch-size transparent: remainders of assembled rounds are
        buffered, so any split of ``n`` across calls yields the same
        stream (equal to :func:`serial_reference`).
        """
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        out = np.empty(n, dtype=np.uint64)
        self.generate_into(out)
        return out

    # -- named streams (the serving path) ------------------------------

    def stream_shard(self, stream_seed: int) -> int:
        """Which shard owns the stream seeded ``stream_seed``."""
        return stream_seed % self.config.shards

    def fetch_spans(
        self, spans: List[Tuple[int, int, int, int]]
    ) -> List[object]:
        """Serve many named-stream reads, one request and one reply per
        shard.

        ``spans`` is a sequence of ``(stream_seed, lanes, offset,
        count)`` tuples, each a pure read of ``count`` words of the
        stream ``(stream_seed, lanes)`` from the absolute word
        ``offset``.  Returns a list aligned with ``spans``: a ``uint64``
        array per served span, or an ``Exception`` instance for a span
        that failed -- callers decide whether a partial batch is fatal.

        A shard that dies or misses ``fetch_timeout_s`` is killed, then
        respawned and sent the same request once more under
        ``auto_restart`` (absolute offsets keep that byte-exact).
        Otherwise, or if the respawned worker fails it too, every span
        the shard owned gets its WorkerFailedError.
        Thread-safe: shard locks are taken in ascending shard order,
        the same total order every other engine entry point uses.
        """
        spans = list(spans)
        results: List[object] = [None] * len(spans)
        if not spans:
            return results
        for stream_seed, lanes, offset, n in spans:
            if n < 0:
                raise ValueError(f"count must be non-negative, got {n}")
            check_positive("lanes", lanes)
            if offset is None or offset < 0:
                raise ValueError(
                    f"offset must be a non-negative word offset, "
                    f"got {offset}"
                )
        by_shard: Dict[int, List[int]] = {}
        for idx, sp in enumerate(spans):
            by_shard.setdefault(self.stream_shard(sp[0]), []).append(idx)
        shard_ids = sorted(by_shard)
        total_words = sum(sp[3] for sp in spans)
        acquired: List[int] = []
        try:
            for i in shard_ids:
                self._shard_locks[i].acquire()
                acquired.append(i)
            with span("engine.fetch_spans", shards=len(shard_ids),
                      spans=len(spans), words=total_words):
                # Every request goes out before any reply is read, so
                # the shards generate concurrently.
                requests = {
                    i: [spans[idx] for idx in by_shard[i]] for i in shard_ids
                }
                sent = {i: self._send(i, "fetch", requests[i])
                        for i in shard_ids}
                obs_metrics.counter(
                    "repro_engine_fused_rounds_total",
                    "Fused multi-span worker requests dispatched",
                ).inc(len(shard_ids))
                for i in shard_ids:
                    try:
                        status, metas, words = self._await_reply(
                            i, requests[i], sent[i]
                        )
                    except WorkerFailedError as exc:
                        status, metas = "err", exc
                    if status == "err":  # the whole request failed
                        metas = [metas] * len(by_shard[i])
                    pos = 0
                    for idx, meta in zip(by_shard[i], metas):
                        if isinstance(meta, int):
                            results[idx] = words[pos:pos + meta]
                            pos += meta
                        elif isinstance(meta, BaseException):
                            results[idx] = meta
                        else:
                            results[idx] = WorkerFailedError(
                                f"engine shard {i} failed a span: {meta}",
                                worker_index=i,
                            )
        finally:
            for i in reversed(acquired):
                self._shard_locks[i].release()
        served = sum(
            r.size for r in results if isinstance(r, np.ndarray)
        )
        obs_metrics.counter(
            "repro_engine_fetch_words_total",
            "Numbers served to named streams",
        ).inc(served)
        return results

    def _await_reply(self, i: int, request: list, sent: bool):
        """Shard ``i``'s one reply to ``request``, which ``sent`` says
        went out.  A shard that misses it goes down; once respawned it
        is sent the same request once more.  Without ``auto_restart``,
        or when the respawned worker misses it too, a
        :class:`WorkerFailedError` is raised.  Caller holds the shard's
        lock."""
        for resend in (False, True):
            if resend:
                sent = self._send(i, "fetch", request)
            reply = self._await_worker(i, self._replies[i]) if sent else None
            if reply is not None:
                return reply
            self._shard_down(i, "serving a fetch")
        raise self._failed_again(i)

    def fetch_stream(self, stream_seed: int, lanes: int, n: int,
                     offset: int) -> np.ndarray:
        """Words ``[offset, offset + n)`` of the named stream
        (thread-safe): a one-span :meth:`fetch_spans` call.

        Byte-identical to the same ``AddressableExpanderPRNG`` bank run
        in process and read at ``offset``, whatever the fetch sizing or
        worker restarts; any slice costs one O(log offset) seek, never
        a replay.
        """
        [result] = self.fetch_spans([(stream_seed, lanes, offset, n)])
        if isinstance(result, BaseException):
            raise result
        return result

    # -- introspection -------------------------------------------------

    @property
    def shards_alive(self) -> List[bool]:
        return [p is not None and p.is_alive() for p in self._procs]

    @property
    def health(self) -> str:
        """``OK`` / ``DEGRADED`` / ``FAILED`` in the resilience idiom:
        dead shard -> FAILED (DEGRADED if auto_restart will revive it);
        any past restart is sticky DEGRADED."""
        alive = self.shards_alive
        if not all(alive):
            return "DEGRADED" if self.config.auto_restart else "FAILED"
        return "DEGRADED" if self.restarts else "OK"

    def describe(self) -> dict:
        """STATUS-op view of the pool (no seed material exposed)."""
        return {
            "shards": self.config.shards,
            "lanes_per_shard": self.config.lanes,
            "policy": self.config.policy,
            "ring_burst": self._burst,
            "rounds_assembled": self.rounds_assembled,
            "restarts": self.restarts,
            "alive": self.shards_alive,
            "health": self.health,
        }

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ShardedEngine(shards={self.config.shards}, "
            f"lanes={self.config.lanes}, health={self.health})"
        )
