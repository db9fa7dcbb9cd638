"""The on-demand RNG service: asyncio TCP server over expander streams.

This is the network face of the paper's ``GetNextRand()`` contract: any
number of remote consumers draw numbers *on demand*, each from an
independent, reproducible expander stream ([``session.py``]), with
requests run in batches on the event loop itself ([``batching.py``])
and overload shed explicitly as ``BUSY`` instead of buffered without
bound.  A running batch holds the loop, so HELLO, STATUS and socket
reads wait behind it -- at about one request per batch, at most one
readahead refill -- and an engine-backed batch holds it while the
engine's workers answer.

Layering (nothing here generates a number or computes a metric itself):

* streams -- :mod:`repro.serve.session` on top of ``derive_seed``;
* execution -- :class:`~repro.serve.batching.BatchingExecutor`, one
  batch at a time on the event loop;
* resilience -- each session's feed is a
  :class:`~repro.resilience.supervised.SupervisedFeed`; a dying bit
  source degrades the session (visible in ``STATUS``) instead of
  killing it;
* observability -- counters/histograms through
  :mod:`repro.obs.metrics`, exported by the existing Prometheus/JSONL
  exporters;
* statistical health -- each session carries a
  :class:`repro.obs.sentinel.StreamSentinel` (read-only: served values
  are byte-identical with it on or off) whose sticky
  STAT_SUSPECT/STAT_BAD verdict folds into session and server health
  and the ``STATUS`` body, so a silently-degraded stream fails health
  checks even when the resilience layer sees a live feed.

:func:`serve_background` runs a server on a daemon thread with its own
event loop -- the handle used by the blocking client tests, the
examples, the throughput benchmark, and ``repro fetch`` smoke tests.
"""

from __future__ import annotations

import asyncio
import json
import struct
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Set

from repro.bitsource.base import BitSource
from repro.obs import metrics as obs_metrics
from repro.resilience.supervised import FeedHealth
from repro.serve import protocol as proto
from repro.serve.batching import (
    READAHEAD_WORDS,
    BatchingExecutor,
    TokenBucket,
)
from repro.serve.session import DEFAULT_SESSION_LANES, SessionStream

__all__ = ["ServeConfig", "RNGServer", "BackgroundServer", "serve_background"]


@dataclass
class ServeConfig:
    """Everything a server instance needs, in one reviewable place."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (read it back from ``RNGServer.port``).
    port: int = 0
    master_seed: int = 1
    #: Walker lanes per session stream (part of the stream identity).
    lanes: int = DEFAULT_SESSION_LANES
    #: Most in-flight FETCHes per session before ``BUSY``.
    max_session_queue: int = 8
    #: Global bound on queued requests before ``BUSY``.
    max_global_queue: int = 256
    #: Token-bucket refill in numbers/second per session; ``None`` = off.
    rate: Optional[float] = None
    #: Token-bucket capacity in numbers; defaults to one second of rate.
    burst: Optional[float] = None
    #: Most queued requests the dispatcher takes into one batch.
    max_batch: int = 64
    #: ``seed -> BitSource`` for each session's primary feed.
    source_factory: Optional[Callable[[int], BitSource]] = None
    #: Install the SplitMix64/OS-entropy failover chain per session.
    failover: bool = True
    #: Largest single FETCH accepted (numbers).
    max_fetch: int = 1 << 20
    #: > 0 backs all sessions with a :class:`repro.engine.ShardedEngine`
    #: shard pool of that many worker processes (serve-only: no bulk
    #: rings).  Session values are byte-identical to the in-process
    #: path; ``source_factory`` must then be picklable.
    engine_shards: int = 0
    #: Attach a statistical sentinel to every session stream.  The
    #: sentinel only reads and copies the served words (values are
    #: byte-identical with it on or off); its sticky verdict folds into
    #: session and server health and the STATUS payload.
    sentinel: bool = True
    #: Sentinel sampling: keep one served word in this many.
    sentinel_sample: int = 16
    #: Sampled words per evaluated sentinel window.
    sentinel_window: int = 4096
    #: Word cap of each session's readahead buffer.  The batching
    #: planner prefills up to this many words ahead of a session's
    #: served position (demand-pure schedule), so hot sessions answer
    #: from memory and cold misses ride the fused cross-session engine
    #: round.  ``0`` disables readahead; served bytes are identical
    #: either way.
    readahead_max: int = READAHEAD_WORDS
    #: Durable session journal (:mod:`repro.serve.journal`).  When set,
    #: session creation and every delivered word offset are appended
    #: (fsync'd) to this file, and startup recovers the journal: every
    #: journaled session is rebuilt and seeked to its acked offset, so a
    #: ``kill -9`` costs nothing but the torn tail of the log.  ``None``
    #: serves memory-only (a restart forgets sessions; clients can still
    #: RESUME at their own offsets since streams are pure functions of
    #: ``(master_seed, session_id, lanes)``).
    journal_path: Optional[str] = None
    #: ``fsync`` the journal on every append (durability vs. latency).
    journal_fsync: bool = True


@dataclass
class _ServedSession:
    """Server-side accounting around one :class:`SessionStream`."""

    stream: SessionStream
    bucket: TokenBucket
    inflight: int = 0


class RNGServer:
    """Asyncio TCP server speaking :mod:`repro.serve.protocol`."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        if self.config.max_fetch > proto.MAX_FETCH_COUNT:
            raise ValueError(
                f"max_fetch {self.config.max_fetch} exceeds the frame cap "
                f"{proto.MAX_FETCH_COUNT}"
            )
        self.executor = BatchingExecutor(
            max_queue=self.config.max_global_queue,
            max_batch=self.config.max_batch,
        )
        self.engine = None
        if self.config.engine_shards > 0:
            from repro.engine import EngineConfig, ShardedEngine

            self.engine = ShardedEngine(EngineConfig(
                seed=self.config.master_seed,
                shards=self.config.engine_shards,
                ring_slots=0,  # serve-only: no bulk stream
                failover=self.config.failover,
                source_factory=self.config.source_factory,
                # Respawn dead shards (deterministic fast-forward) rather
                # than fail their sessions' fetches.
                auto_restart=True,
            ))
        self.sessions: Dict[str, _ServedSession] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self.port: Optional[int] = None
        self._started_at = time.monotonic()
        # Authoritative plain-int counters so STATUS works even when the
        # obs registry is the disabled no-op.
        self.requests_total = 0
        self.numbers_total = 0
        self.busy_total = 0
        self.errors_total = 0
        self.journal = None
        self.recovered_sessions = 0
        if self.config.journal_path is not None:
            from repro.serve.journal import SessionJournal

            self.journal = SessionJournal.open(
                self.config.journal_path, fsync=self.config.journal_fsync
            )
            self._recover_sessions()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        await self.executor.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_at = time.monotonic()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def aclose(self) -> None:
        """Stop accepting, drop connections, drain the executor.

        This is the graceful-drain path (SIGTERM, ``--duration`` expiry,
        tests): in-flight batches finish, the journal gets its clean
        shutdown marker, and only then do resources go away.  Crash-only
        means recovery never *depends* on any of this having run.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.close()
        await self.executor.aclose()
        if self.engine is not None:
            self.engine.close()
        if self.journal is not None:
            self.journal.log_shutdown()
            self.journal.close()
            self.journal = None

    # ------------------------------------------------------------------
    # Sessions
    # ------------------------------------------------------------------

    def _make_sentinel(self, session_id: str):
        """One per-session sentinel, or ``None`` when disabled."""
        if not self.config.sentinel:
            return None
        from repro.obs.sentinel import SentinelConfig, StreamSentinel

        return StreamSentinel(
            SentinelConfig(
                window_words=self.config.sentinel_window,
                sample_every=self.config.sentinel_sample,
                seed=self.config.master_seed,
            ),
            name=session_id,
        )

    def _get_or_create_session(
        self, session_id: str, lanes: Optional[int] = None,
        journal: bool = True,
    ) -> _ServedSession:
        served = self.sessions.get(session_id)
        if served is None:
            lanes = self.config.lanes if lanes is None else lanes
            served = _ServedSession(
                stream=SessionStream(
                    session_id,
                    master_seed=self.config.master_seed,
                    lanes=lanes,
                    source_factory=self.config.source_factory,
                    failover=self.config.failover,
                    engine=self.engine,
                    sentinel=self._make_sentinel(session_id),
                    readahead_max=self.config.readahead_max,
                ),
                bucket=TokenBucket(self.config.rate, self.config.burst),
            )
            self.sessions[session_id] = served
            if journal and self.journal is not None:
                self.journal.log_session(session_id, lanes)
            obs_metrics.counter(
                "repro_serve_sessions_total", "Sessions ever created"
            ).inc()
            obs_metrics.gauge(
                "repro_serve_sessions_active", "Live session streams"
            ).set(len(self.sessions))
        return served

    def _recover_sessions(self) -> None:
        """Rebuild every journaled session at its acked word offset.

        Runs once at startup, right after the journal's recovery scan.
        The stream itself is a pure function of
        ``(master_seed, session_id, lanes)``, so rebuilding + one
        O(log offset) seek lands each session byte-exactly where its
        last acked delivery left it -- no replay, no stored state words.
        Sentinels are re-armed fresh: statistical verdicts are about the
        *running* stream and deliberately do not survive a restart.
        """
        for session_id, entry in sorted(self.journal.recovered.sessions.items()):
            served = self._get_or_create_session(
                session_id, lanes=entry["lanes"] or None, journal=False
            )
            if entry["offset"]:
                served.stream.seek(entry["offset"])
            self.recovered_sessions += 1

    def _journal_ack(self, session: _ServedSession) -> None:
        """Persist the session's delivered word offset (post-send)."""
        if self.journal is not None:
            self.journal.log_ack(
                session.stream.session_id, session.stream.words_served
            )

    def _resume_session(self, session_id: str, offset: int) -> _ServedSession:
        """RESUME: establish the session at word ``offset`` (a u64).

        Establishes the session (creating it if the restart forgot it),
        seeks the stream to the client's offset, re-arms the statistical
        sentinel (its windows describe the pre-resume past), and
        journals the new offset so a second crash recovers to it.
        """
        served = self._get_or_create_session(session_id)
        served.stream.seek(offset)
        if self.config.sentinel:
            served.stream.sentinel = self._make_sentinel(session_id)
        self._journal_ack(served)
        obs_metrics.counter(
            "repro_serve_resumes_total", "RESUME ops handled"
        ).inc()
        return served

    @property
    def health(self) -> str:
        """Worst health across all sessions (and the shard pool)."""
        worst = FeedHealth.OK
        if self.engine is not None:
            worst = max(worst, FeedHealth[self.engine.health])
        for served in self.sessions.values():
            worst = max(worst, FeedHealth[served.stream.health])
        return worst.name

    def sentinel_summary(self) -> dict:
        """Fleet view of the per-session sentinels (STATUS `sentinel`).

        ``worst`` is the worst sticky verdict across sessions;
        ``suspect``/``bad`` count sessions in each state; window and
        failure totals aggregate over all sessions.
        """
        summary = {
            "enabled": bool(self.config.sentinel),
            "worst": "STAT_OK",
            "suspect": 0,
            "bad": 0,
            "windows_total": 0,
            "failures_total": 0,
        }
        if not self.config.sentinel:
            return summary
        from repro.obs.sentinel import Verdict

        worst = Verdict.STAT_OK
        for served in self.sessions.values():
            sentinel = served.stream.sentinel
            if sentinel is None:
                continue
            verdict = sentinel.verdict
            worst = max(worst, verdict)
            if verdict is Verdict.STAT_SUSPECT:
                summary["suspect"] += 1
            elif verdict is Verdict.STAT_BAD:
                summary["bad"] += 1
            state = sentinel.state()
            summary["windows_total"] += state["windows"]
            summary["failures_total"] += state["failures"]
        summary["worst"] = worst.name
        return summary

    def status_doc(self, session: Optional[_ServedSession] = None) -> dict:
        doc = {
            "ok": True,
            "op": "status",
            "server": {
                "sessions": len(self.sessions),
                "queue_depth": self.executor.queue_depth,
                "health": self.health,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "requests_total": self.requests_total,
                "numbers_total": self.numbers_total,
                "busy_total": self.busy_total,
                "errors_total": self.errors_total,
                "max_session_queue": self.config.max_session_queue,
                "max_global_queue": self.config.max_global_queue,
                "sentinel": self.sentinel_summary(),
            },
        }
        if self.config.journal_path is not None:
            doc["server"]["journal"] = {
                "path": self.config.journal_path,
                "fsync": self.config.journal_fsync,
                "recovered_sessions": self.recovered_sessions,
                "appends": 0 if self.journal is None else self.journal.appends,
            }
        if self.engine is not None:
            doc["engine"] = self.engine.describe()
        if session is not None:
            doc["session"] = session.stream.describe()
        registry = obs_metrics.get_registry()
        if registry.enabled:
            doc["metrics"] = {
                name: value
                for name, value in registry.snapshot().items()
                if name.startswith("repro_serve_")
            }
        return doc

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        connections = obs_metrics.gauge(
            "repro_serve_connections_active", "Open client connections"
        )
        connections.set(len(self._writers))
        try:
            first = await reader.read(1)
            if not first:
                return
            codec = _JsonCodec if first == b"{" else _BinaryCodec
            await self._serve(codec(reader, writer, first))
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            proto.ProtocolError,
        ):
            pass  # client went away or spoke garbage; nothing to salvage
        finally:
            self._writers.discard(writer)
            connections.set(len(self._writers))
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve(self, codec) -> None:
        """The op handler behind both wire modes.

        ``codec`` only turns bytes into ``(op, args)`` and replies back
        into bytes; everything else is decided here, once: session
        attach, the argument rules of :mod:`repro.serve.protocol`,
        BUSY, which failures are the client's (answered with an error)
        and which are the server's (also counted in ``errors_total``),
        and the journal ack after a delivery.  A connection closes on
        BYE, on EOF, on what its codec cannot decode, and on a refused
        op the codec lists in ``closes_on_error``.
        """
        session: Optional[_ServedSession] = None
        while True:
            request = await codec.read()
            if request is None:
                return
            op, raw = request
            try:
                args = codec.decode(op, raw)
                if op in ("hello", "resume"):
                    session_id = proto.check_session_id(args[0])
                    reply = {"ok": True, "op": op, "session": session_id}
                    if op == "hello":
                        session = self._get_or_create_session(session_id)
                    else:
                        offset = reply["offset"] = proto.check_offset(args[1])
                        session = self._resume_session(session_id, offset)
                    reply["stream_index"] = session.stream.index
                    reply["lanes"] = session.stream.lanes
                elif op == "fetch":
                    reply = await self._fetch(session, *args)
                elif op == "variate":
                    count, dist, params = args
                    values, words = await self._fetch(
                        session, count, proto.check_dist(dist), params
                    )
                    reply = (dist, words, values)
                elif op == "status":
                    reply = self.status_doc(session)
                else:
                    reply = {"ok": True, "op": "bye"}
            except proto.ServerBusyError as exc:
                await codec.send_busy(str(exc))
                continue
            except (proto.ServeError, ValueError) as exc:
                await codec.send_error(str(exc))
                if op in codec.closes_on_error:
                    return
                continue
            except Exception as exc:  # degraded/failed feed et al.
                self.errors_total += 1
                obs_metrics.counter(
                    "repro_serve_errors_total",
                    "requests failed server-side",
                ).inc()
                await codec.send_error(f"{type(exc).__name__}: {exc}")
                continue
            await codec.send(op, reply)
            if op in ("fetch", "variate"):
                # Journal *after* the send: the acked offset never runs
                # ahead of what actually left the socket, so recovery
                # can only under-count -- and a RESUME at the client's
                # own offset closes even that gap.  Typed deliveries ack
                # their word offset exactly like raw ones.
                self._journal_ack(session)
            if op == "bye":
                return

    async def _fetch(
        self,
        session: Optional[_ServedSession],
        count,
        dist: Optional[str] = None,
        params=None,
    ):
        """Shared FETCH/VARIATE semantics.

        ``dist is None`` serves raw words (a uint64 array); otherwise
        typed variates (``(values, word_offset)``).  Both paths share
        the rate bucket (charged per value), the session in-flight cap,
        and the global queue; a shed request raises
        :class:`~repro.serve.protocol.ServerBusyError`.
        """
        if session is None:
            raise proto.SessionRequiredError("FETCH before HELLO")
        count = proto.check_count(count)
        if count > self.config.max_fetch:
            raise proto.ProtocolError(
                f"fetch count must be in [1, {self.config.max_fetch}], "
                f"got {count}"
            )
        if params is not None and not isinstance(params, dict):
            raise proto.ProtocolError("params must be an object")
        self.requests_total += 1
        obs_metrics.counter(
            "repro_serve_requests_total", "FETCH requests received"
        ).inc()
        future = None
        if not session.bucket.try_acquire(count):
            busy_reason = "rate-limited"
        elif session.inflight >= self.config.max_session_queue:
            busy_reason = "session queue full"
        else:
            future = self.executor.try_submit(
                session.stream, count, dist=dist, params=params
            )
            busy_reason = "server queue full"
        if future is None:
            self.busy_total += 1
            obs_metrics.counter(
                "repro_serve_busy_total", "FETCH requests shed as BUSY"
            ).inc()
            raise proto.ServerBusyError(busy_reason)
        session.inflight += 1
        try:
            result = await future
        finally:
            session.inflight -= 1
        served = len(result) if dist is None else len(result[0])
        self.numbers_total += served
        obs_metrics.counter(
            "repro_serve_numbers_total", "Numbers served to clients"
        ).inc(served)
        if dist is not None:
            obs_metrics.counter(
                "repro_serve_variates_total", "Typed variates served"
            ).inc(served)
        return result


class _BinaryCodec:
    """Length-prefixed frames (the protocol proper) <-> ``(op, args)``."""

    OPS = {
        proto.OP_HELLO: "hello",
        proto.OP_FETCH: "fetch",
        proto.OP_VARIATE: "variate",
        proto.OP_RESUME: "resume",
        proto.OP_STATUS: "status",
        proto.OP_BYE: "bye",
    }
    #: A refused HELLO ends a binary connection (after its ERROR frame).
    closes_on_error = ("hello",)

    def __init__(self, reader, writer, first: bytes):
        self.reader = reader
        self.writer = writer
        # The mode sniff consumed the first length byte.
        self._head = first

    async def read(self):
        """The next ``(op, payload)``; ``None`` once the client hangs up.

        A frame that cannot be a request -- bad length, unknown opcode,
        a FETCH payload that is not one u32 -- raises ProtocolError,
        which drops the connection without a reply.
        """
        head, self._head = self._head, b""
        try:
            opcode, payload = await proto.read_frame(self.reader, head)
        except asyncio.IncompleteReadError:
            return None
        op = self.OPS.get(opcode)
        if op is None:
            raise proto.ProtocolError(f"unknown opcode {opcode:#x}")
        if op == "fetch" and len(payload) != 4:
            raise proto.ProtocolError("FETCH payload must be 4 bytes")
        return op, payload

    @staticmethod
    def decode(op: str, payload: bytes) -> tuple:
        if op == "hello":
            return (payload,)
        if op == "fetch":
            return struct.unpack("!I", payload)
        if op == "variate":
            dist, count, params = proto.unpack_variate(payload)
            return count, dist, params
        if op == "resume":
            return proto.unpack_resume(payload)
        return ()

    async def _frame(self, opcode: int, payload: bytes) -> None:
        self.writer.write(proto.pack_frame(opcode, payload))
        await self.writer.drain()

    async def send_error(self, message: str) -> None:
        await self._frame(proto.OP_ERROR, message.encode("utf-8"))

    async def send_busy(self, reason: str) -> None:
        await self._frame(proto.OP_BUSY, reason.encode("utf-8"))

    async def send(self, op: str, reply) -> None:
        """Values go out zero-copy, everything else as a JSON frame.

        A VALUES reply is two buffers and a VARIATES reply three -- the
        frame header, the 9-byte typed prefix (dist id + the session's
        word offset after the op), and the payload, a memoryview over
        the result array byte-swapped in place (the fetch path owns the
        array and never re-reads it).
        """
        if op == "fetch":
            payload = proto.values_payload(reply)
            self.writer.write(
                proto.frame_header(proto.OP_VALUES, payload.nbytes)
            )
        elif op == "variate":
            dist, words, values = reply
            prefix = proto.variates_prefix(dist, words)
            payload = proto.variates_payload(values)
            self.writer.write(proto.frame_header(
                proto.OP_VARIATES, len(prefix) + payload.nbytes
            ))
            self.writer.write(prefix)
        else:
            doc = json.dumps(reply, sort_keys=True).encode("utf-8")
            await self._frame(proto.OP_JSON, doc)
            return
        self.writer.write(payload)
        await self.writer.drain()


class _JsonCodec:
    """The JSON-lines debug mode: one JSON object per line each way."""

    #: Every refused op leaves a JSON-lines connection open.
    closes_on_error = ()

    def __init__(self, reader, writer, first: bytes):
        self.reader = reader
        self.writer = writer
        self._pending = first

    async def read(self):
        """The next ``(op, message)``; ``None`` at EOF or a blank line.

        A line that is not a JSON object is answered with an error, and
        the connection closes.
        """
        line = self._pending + await self.reader.readline()
        self._pending = b""
        if not line.strip():
            return None
        try:
            msg = json.loads(line.decode("utf-8"))
            if not isinstance(msg, dict):
                raise ValueError("message must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            await self.send_error(f"bad JSON: {exc}")
            return None
        return msg.get("op"), msg

    @staticmethod
    def decode(op, msg: dict) -> tuple:
        if op == "hello":
            return (msg.get("session", ""),)
        if op == "fetch":
            return (msg.get("n"),)
        if op == "variate":
            return msg.get("n"), msg.get("dist"), msg.get("params", {})
        if op == "resume":
            return msg.get("session", ""), msg.get("offset", 0)
        if op in ("status", "bye"):
            return ()
        raise proto.ProtocolError(f"unknown op {op!r}")

    async def _line(self, doc: dict) -> None:
        self.writer.write(proto.json_line(doc))
        await self.writer.drain()

    async def send_error(self, message: str) -> None:
        await self._line({"ok": False, "error": message})

    async def send_busy(self, reason: str) -> None:
        await self._line({"ok": False, "busy": True, "reason": reason})

    async def send(self, op: str, reply) -> None:
        if op == "fetch":
            reply = {"ok": True, "op": op, "values": [int(v) for v in reply]}
        elif op == "variate":
            dist, words, values = reply
            convert = float if values.dtype.kind == "f" else int
            reply = {
                "ok": True, "op": op, "dist": dist, "words": words,
                "values": [convert(v) for v in values],
            }
        await self._line(reply)


class BackgroundServer:
    """An :class:`RNGServer` on a daemon thread with its own event loop.

    Context-manager handle used by blocking clients, tests, examples,
    and the throughput benchmark::

        with serve_background(ServeConfig(master_seed=7)) as handle:
            client = ServeClient(handle.host, handle.port, session="a")
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.server: Optional[RNGServer] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._startup_error: Optional[BaseException] = None

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        assert self.server is not None and self.server.port is not None
        return self.server.port

    def _main(self) -> None:
        async def run() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            server = RNGServer(self.config)
            try:
                await server.start()
            except BaseException as exc:  # bind failure etc.
                self._startup_error = exc
                self._ready.set()
                return
            self.server = server
            self._ready.set()
            try:
                await self._stop.wait()
            finally:
                await server.aclose()

        asyncio.run(run())

    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._main, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise self._startup_error
        if self.server is None:
            raise proto.ServeError("server failed to start within 30s")
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None


def serve_background(config: Optional[ServeConfig] = None) -> BackgroundServer:
    """A ready-to-``with`` background server handle."""
    return BackgroundServer(config)
