"""The on-demand RNG service: asyncio TCP server over expander streams.

This is the network face of the paper's ``GetNextRand()`` contract: any
number of remote consumers draw numbers *on demand*, each from an
independent, reproducible expander stream ([``session.py``]), with
requests run in batches on one executor thread ([``batching.py``]) and
overload shed explicitly as ``BUSY`` instead of buffered without bound.

Layering (nothing here generates a number or computes a metric itself):

* streams -- :mod:`repro.serve.session` on top of ``derive_seed``;
* execution -- :class:`~repro.serve.batching.BatchingExecutor` on one
  executor thread, off the event loop;
* resilience -- each session's feed is a
  :class:`~repro.resilience.supervised.SupervisedFeed`; a dying bit
  source degrades the session (visible in ``STATUS``) instead of
  killing it;
* observability -- counters/histograms through
  :mod:`repro.obs.metrics`, exported by the existing Prometheus/JSONL
  exporters;
* statistical health -- each session carries a
  :class:`repro.obs.sentinel.StreamSentinel` (tap-only: served values
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
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set

from repro.bitsource.base import BitSource
from repro.obs import metrics as obs_metrics
from repro.resilience.supervised import FeedHealth, RetryPolicy
from repro.serve import protocol as proto
from repro.serve.batching import BatchingExecutor, TokenBucket
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
    retry_policy: Optional[RetryPolicy] = None
    #: Largest single FETCH accepted (numbers).
    max_fetch: int = 1 << 20
    #: > 0 backs all sessions with a :class:`repro.engine.ShardedEngine`
    #: shard pool of that many worker processes (serve-only: no bulk
    #: rings).  Session values are byte-identical to the in-process
    #: path; ``source_factory`` must then be picklable.
    engine_shards: int = 0
    #: Respawn dead engine shards (deterministic fast-forward) instead
    #: of failing their sessions' fetches.
    engine_auto_restart: bool = True
    #: Attach a statistical sentinel to every session stream.  The
    #: sentinel is tap-only (reads and copies; served values are
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
    readahead_max: int = 4096
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
    connections: int = 0
    created_at: float = field(default_factory=time.monotonic)


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
                supervised=self.config.failover,
                source_factory=self.config.source_factory,
                auto_restart=self.config.engine_auto_restart,
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
            sentinel = self._make_sentinel(session_id)
            if self.engine is not None:
                stream = SessionStream(
                    session_id,
                    master_seed=self.config.master_seed,
                    lanes=lanes,
                    engine=self.engine,
                    sentinel=sentinel,
                    readahead_max=self.config.readahead_max,
                )
            else:
                stream = SessionStream(
                    session_id,
                    master_seed=self.config.master_seed,
                    lanes=lanes,
                    source_factory=self.config.source_factory,
                    failover=self.config.failover,
                    retry_policy=self.config.retry_policy,
                    sentinel=sentinel,
                    readahead_max=self.config.readahead_max,
                )
            served = _ServedSession(
                stream=stream,
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
        """RESUME semantics shared by the binary and JSON handlers.

        Establishes the session (creating it if the restart forgot it),
        seeks the stream to the client's offset, re-arms the statistical
        sentinel (its windows describe the pre-resume past), and
        journals the new offset so a second crash recovers to it.
        """
        if offset < 0:
            raise proto.ProtocolError(
                f"resume offset must be non-negative, got {offset}"
            )
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
            if first == b"{":
                await self._serve_json(reader, writer, first)
            else:
                await self._serve_binary(reader, writer, first)
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

    async def _fetch(
        self,
        session: Optional[_ServedSession],
        count: int,
        dist: Optional[str] = None,
        params: Optional[dict] = None,
    ):
        """Shared FETCH/VARIATE semantics; ``(result, busy_reason)``.

        ``dist is None`` serves raw words (result: uint64 array);
        otherwise typed variates (result: ``(values, word_offset)``).
        Both paths share the rate bucket (charged per value), the
        session in-flight cap, and the global queue.
        """
        if session is None:
            raise proto.SessionRequiredError("FETCH before HELLO")
        if not 1 <= count <= self.config.max_fetch:
            raise proto.ProtocolError(
                f"fetch count must be in [1, {self.config.max_fetch}], "
                f"got {count}"
            )
        self.requests_total += 1
        obs_metrics.counter(
            "repro_serve_requests_total", "FETCH requests received"
        ).inc()
        busy_reason = None
        future = None
        if not session.bucket.try_acquire(count):
            busy_reason = "rate-limited"
        elif session.inflight >= self.config.max_session_queue:
            busy_reason = "session queue full"
        else:
            future = self.executor.try_submit(
                session.stream, count, dist=dist, params=params
            )
            if future is None:
                busy_reason = "server queue full"
        if busy_reason is not None:
            self.busy_total += 1
            obs_metrics.counter(
                "repro_serve_busy_total", "FETCH requests shed as BUSY"
            ).inc()
            return None, busy_reason
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
        return result, None

    def _record_error(self) -> None:
        self.errors_total += 1
        obs_metrics.counter(
            "repro_serve_errors_total", "FETCH requests failed server-side"
        ).inc()

    # -- binary mode ---------------------------------------------------

    async def _serve_binary(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first_byte: bytes,
    ) -> None:
        session: Optional[_ServedSession] = None
        # The mode sniff consumed the first length byte; complete that
        # header by hand, then fall into the regular framed loop.
        pending_header: Optional[bytes] = (
            first_byte + await reader.readexactly(3)
        )
        try:
            while True:
                if pending_header is not None:
                    (body_len,) = struct.unpack("!I", pending_header)
                    pending_header = None
                    if not 1 <= body_len <= proto.MAX_FRAME_BYTES:
                        raise proto.ProtocolError(
                            f"bad frame length {body_len}"
                        )
                    body = await reader.readexactly(body_len)
                    opcode, payload = body[0], body[1:]
                else:
                    try:
                        opcode, payload = await proto.read_frame(reader)
                    except asyncio.IncompleteReadError as exc:
                        if exc.partial:
                            raise proto.ProtocolError(
                                "connection closed mid-frame"
                            ) from exc
                        return  # clean EOF between frames
                if opcode == proto.OP_HELLO:
                    if not payload or len(payload) > proto.MAX_SESSION_ID_BYTES:
                        await self._send(
                            writer, proto.OP_ERROR, b"bad session id"
                        )
                        return
                    session_id = payload.decode("utf-8", errors="replace")
                    if session is not None:
                        session.connections -= 1
                    session = self._get_or_create_session(session_id)
                    session.connections += 1
                    ack = {
                        "ok": True,
                        "op": "hello",
                        "session": session_id,
                        "stream_index": session.stream.index,
                        "lanes": self.config.lanes,
                    }
                    await self._send(
                        writer, proto.OP_JSON,
                        json.dumps(ack, sort_keys=True).encode("utf-8"),
                    )
                elif opcode == proto.OP_FETCH:
                    if len(payload) != 4:
                        raise proto.ProtocolError(
                            "FETCH payload must be 4 bytes"
                        )
                    (count,) = struct.unpack("!I", payload)
                    try:
                        values, busy = await self._fetch(session, count)
                    except (proto.SessionRequiredError,
                            proto.ProtocolError) as exc:
                        await self._send(
                            writer, proto.OP_ERROR, str(exc).encode("utf-8")
                        )
                        continue
                    except Exception as exc:  # degraded/failed feed et al.
                        self._record_error()
                        await self._send(
                            writer, proto.OP_ERROR,
                            f"{type(exc).__name__}: {exc}".encode("utf-8"),
                        )
                        continue
                    if busy is not None:
                        await self._send(
                            writer, proto.OP_BUSY, busy.encode("utf-8")
                        )
                    else:
                        await self._send_values(writer, values)
                        # Journal *after* the send: the acked offset
                        # never runs ahead of what actually left the
                        # socket, so recovery can only under-count --
                        # and a RESUME at the client's own offset
                        # closes even that gap.
                        self._journal_ack(session)
                elif opcode == proto.OP_VARIATE:
                    try:
                        dist, count, params = proto.unpack_variate(payload)
                        result, busy = await self._fetch(
                            session, count, dist=dist, params=params
                        )
                    except (proto.SessionRequiredError,
                            proto.ProtocolError) as exc:
                        await self._send(
                            writer, proto.OP_ERROR, str(exc).encode("utf-8")
                        )
                        continue
                    except ValueError as exc:  # bad sampler parameters
                        await self._send(
                            writer, proto.OP_ERROR, str(exc).encode("utf-8")
                        )
                        continue
                    except Exception as exc:  # degraded/failed feed et al.
                        self._record_error()
                        await self._send(
                            writer, proto.OP_ERROR,
                            f"{type(exc).__name__}: {exc}".encode("utf-8"),
                        )
                        continue
                    if busy is not None:
                        await self._send(
                            writer, proto.OP_BUSY, busy.encode("utf-8")
                        )
                    else:
                        values, words = result
                        await self._send_variates(writer, dist, words, values)
                        # Word-offset ack, post-send, exactly like FETCH:
                        # the journal format does not know (or need to
                        # know) that this delivery was typed.
                        self._journal_ack(session)
                elif opcode == proto.OP_RESUME:
                    try:
                        session_id, offset = proto.unpack_resume(payload)
                        if session is not None:
                            session.connections -= 1
                            session = None
                        session = self._resume_session(session_id, offset)
                        session.connections += 1
                    except proto.ProtocolError as exc:
                        await self._send(
                            writer, proto.OP_ERROR, str(exc).encode("utf-8")
                        )
                        continue
                    ack = {
                        "ok": True,
                        "op": "resume",
                        "session": session_id,
                        "offset": offset,
                        "stream_index": session.stream.index,
                        "lanes": session.stream.lanes,
                    }
                    await self._send(
                        writer, proto.OP_JSON,
                        json.dumps(ack, sort_keys=True).encode("utf-8"),
                    )
                elif opcode == proto.OP_STATUS:
                    doc = self.status_doc(session)
                    await self._send(
                        writer, proto.OP_JSON,
                        json.dumps(doc, sort_keys=True).encode("utf-8"),
                    )
                elif opcode == proto.OP_BYE:
                    await self._send(
                        writer, proto.OP_JSON, b'{"ok": true, "op": "bye"}'
                    )
                    return
                else:
                    raise proto.ProtocolError(f"unknown opcode {opcode:#x}")
        finally:
            if session is not None:
                session.connections -= 1

    async def _send(
        self, writer: asyncio.StreamWriter, opcode: int, payload: bytes
    ) -> None:
        writer.write(proto.pack_frame(opcode, payload))
        await writer.drain()

    async def _send_values(
        self, writer: asyncio.StreamWriter, values
    ) -> None:
        """Frame a VALUES response with zero intermediate copies.

        The header and the payload are written as two buffers; the
        payload memoryview aliases the (byte-swapped in place) result
        array, which the fetch path owns and never re-reads.
        """
        payload = proto.values_payload(values)
        writer.write(proto.frame_header(proto.OP_VALUES, payload.nbytes))
        writer.write(payload)
        await writer.drain()

    async def _send_variates(
        self, writer: asyncio.StreamWriter, dist: str, words: int, values
    ) -> None:
        """Frame a VARIATES response; same zero-copy path as VALUES.

        Three buffers -- frame header, the 9-byte typed prefix (dist id
        + the session's word offset after the op), and the in-place
        byte-swapped value array.
        """
        prefix = proto.variates_prefix(dist, words)
        payload = proto.variates_payload(values)
        writer.write(proto.frame_header(
            proto.OP_VARIATES, len(prefix) + payload.nbytes
        ))
        writer.write(prefix)
        writer.write(payload)
        await writer.drain()

    # -- JSON-lines debug mode -----------------------------------------

    async def _serve_json(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        first_byte: bytes,
    ) -> None:
        session: Optional[_ServedSession] = None
        buffered = first_byte

        async def reply(doc: dict) -> None:
            writer.write(proto.json_line(doc))
            await writer.drain()

        try:
            while True:
                line = buffered + await reader.readline()
                buffered = b""
                if not line.strip():
                    return
                try:
                    msg = json.loads(line.decode("utf-8"))
                    if not isinstance(msg, dict):
                        raise ValueError("message must be a JSON object")
                    op = msg.get("op")
                except (ValueError, UnicodeDecodeError) as exc:
                    await reply({"ok": False, "error": f"bad JSON: {exc}"})
                    return
                if op == "hello":
                    session_id = str(msg.get("session", ""))
                    if not session_id:
                        await reply(
                            {"ok": False, "error": "missing session id"}
                        )
                        continue
                    if session is not None:
                        session.connections -= 1
                    session = self._get_or_create_session(session_id)
                    session.connections += 1
                    await reply({
                        "ok": True,
                        "op": "hello",
                        "session": session_id,
                        "stream_index": session.stream.index,
                        "lanes": self.config.lanes,
                    })
                elif op == "fetch":
                    try:
                        count = int(msg.get("n", 0))
                        values, busy = await self._fetch(session, count)
                    except proto.ServeError as exc:
                        await reply({"ok": False, "error": str(exc)})
                        continue
                    except Exception as exc:
                        self._record_error()
                        await reply({
                            "ok": False,
                            "error": f"{type(exc).__name__}: {exc}",
                        })
                        continue
                    if busy is not None:
                        await reply(
                            {"ok": False, "busy": True, "reason": busy}
                        )
                    else:
                        await reply({
                            "ok": True,
                            "op": "fetch",
                            "values": [int(v) for v in values],
                        })
                        self._journal_ack(session)
                elif op == "variate":
                    try:
                        dist = str(msg.get("dist", ""))
                        count = int(msg.get("n", 0))
                        if dist not in proto.DIST_IDS:
                            raise proto.ProtocolError(
                                f"unknown distribution {dist!r}"
                            )
                        raw_params = msg.get("params", {})
                        if not isinstance(raw_params, dict):
                            raise proto.ProtocolError(
                                "params must be an object"
                            )
                        result, busy = await self._fetch(
                            session, count, dist=dist, params=raw_params
                        )
                    except (proto.ServeError, ValueError) as exc:
                        await reply({"ok": False, "error": str(exc)})
                        continue
                    except Exception as exc:
                        self._record_error()
                        await reply({
                            "ok": False,
                            "error": f"{type(exc).__name__}: {exc}",
                        })
                        continue
                    if busy is not None:
                        await reply(
                            {"ok": False, "busy": True, "reason": busy}
                        )
                    else:
                        values, words = result
                        await reply({
                            "ok": True,
                            "op": "variate",
                            "dist": dist,
                            "words": words,
                            "values": [
                                float(v) if values.dtype.kind == "f"
                                else int(v)
                                for v in values
                            ],
                        })
                        self._journal_ack(session)
                elif op == "resume":
                    session_id = str(msg.get("session", ""))
                    if not session_id:
                        await reply(
                            {"ok": False, "error": "missing session id"}
                        )
                        continue
                    try:
                        offset = int(msg.get("offset", 0))
                        if session is not None:
                            session.connections -= 1
                            session = None
                        session = self._resume_session(session_id, offset)
                        session.connections += 1
                    except (proto.ProtocolError, ValueError) as exc:
                        await reply({"ok": False, "error": str(exc)})
                        continue
                    await reply({
                        "ok": True,
                        "op": "resume",
                        "session": session_id,
                        "offset": offset,
                        "stream_index": session.stream.index,
                        "lanes": session.stream.lanes,
                    })
                elif op == "status":
                    await reply(self.status_doc(session))
                elif op == "bye":
                    await reply({"ok": True, "op": "bye"})
                    return
                else:
                    await reply({"ok": False, "error": f"unknown op {op!r}"})
        finally:
            if session is not None:
                session.connections -= 1


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
