"""Serve workloads: one load-generator process, two closed-loop connections.

The server is ``repro serve`` with its default ``ServeConfig``, run by
``launcher.py`` in a process of its own; ``serve-engine`` adds
``--engine-shards 2``.  The load generator is this process: two
threads, each owning one connection and half of the session pool (see
``traffic.py``), each sending its next request only once the previous
reply has fully arrived -- a caller of ``GetNextRand`` blocks on its
numbers.  Replies are kept as raw bytes while the phase is timed, and
decoded, checked and replayed only afterwards, so the client stays
light.
"""

from __future__ import annotations

import json
import pickle
import re
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Tuple

import check
import common
import report
import traffic
from common import BENCH_DIR, BenchError
from repro.serve import protocol as proto
from tracer import breakdown, inclusive, load_spans

SHARDS = {"serve-local": 0, "serve-engine": 2}
#: Nominal rate (numbers/s on a 2-core host) that turns ``--seconds``
#: into a fixed number of visits; both serve workloads get the same
#: traffic.
NOMINAL = 100_000
#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: Session of the cold-start probe; outside the traffic's pool.
SETUP_SESSION = "bench-setup"
#: Socket deadline for one round trip; a miss is a failed op.
TIMEOUT_S = 30.0
#: Seconds a server may take to print its port.
START_DEADLINE_S = 60.0
#: Seconds each half of the replay may take before it is killed.
REPLAY_DEADLINE_S = 150


def visits_for(seconds: float) -> int:
    """Visits per connection: the fixed work ``--seconds`` stands for."""
    per_visit = traffic.REQUESTS_PER_VISIT * traffic.COUNT
    return max(1, round(seconds * NOMINAL / (per_visit * traffic.CONNECTIONS)))


class Server:
    """``repro serve`` in a child process, on an ephemeral port."""

    def __init__(self, seed: int, shards: int,
                 trace_out: Optional[str] = None):
        argv = [sys.executable, str(BENCH_DIR / "launcher.py"),
                "--seed", str(seed), "--engine-shards", str(shards)]
        if trace_out is not None:
            argv += ["--trace-out", trace_out]
        self.started = time.monotonic()
        self.proc = common.spawn(argv, stdout=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE)
        self.pid = self.proc.pid
        self.port: Optional[int] = None
        self.log: List[str] = []
        self._ready = threading.Event()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()

    def _drain(self) -> None:
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace")
            self.log.append(line)
            if self.port is None:
                m = re.search(r"listening on \S+:(\d+)", line)
                if m:
                    self.port = int(m.group(1))
                    self._ready.set()
        self._ready.set()  # EOF: the server is gone

    def wait_port(self) -> int:
        self._ready.wait(START_DEADLINE_S)
        if self.port is None:
            raise BenchError(
                "server did not start: " + "".join(self.log[-20:])
            )
        return self.port

    def stop(self) -> None:
        """SIGTERM (graceful drain), then make sure its group is gone."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        common.stop_group(self.proc)
        self._reader.join(timeout=TIMEOUT_S)
        self.proc.stderr.close()


class Connection:
    """A blocking client socket speaking the binary protocol."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def roundtrip(self, frame: bytes) -> Tuple[int, bytes]:
        self.sock.sendall(frame)
        return proto.read_frame_socket(self.sock)

    def status(self) -> dict:
        opcode, payload = self.roundtrip(proto.pack_frame(proto.OP_STATUS))
        if opcode != proto.OP_JSON:
            raise BenchError(f"STATUS answered with opcode {opcode:#x}")
        return proto.decode_json_payload(payload)

    def close(self) -> None:
        try:
            self.roundtrip(proto.pack_frame(proto.OP_BYE))
        except (OSError, proto.ProtocolError):
            pass
        finally:
            self.sock.close()


class Exchange(NamedTuple):
    """One round trip, as the client saw it."""

    session: str
    #: Request index within the session; -1 for a HELLO.
    index: int
    dist: Optional[str]
    count: int
    sent: float
    received: float
    #: Reply opcode, or -1 if the round trip raised.
    opcode: int
    payload: bytes
    #: Inside the timed phase (not the warm-up or a cold-start probe).
    timed: bool = False


def _drive(conn: Connection, warmup, timed, start: threading.Barrier,
           measure: threading.Barrier, out: List[Exchange],
           errors: List[str]) -> None:
    """One closed-loop connection: its warm-up visits, then its timed ones.

    ``measure`` holds both connections until both have warmed up, so the
    timed phase starts from one instant.
    """
    fetch = proto.pack_fetch(traffic.COUNT)
    variate = proto.pack_variate(traffic.VARIATE_DIST, traffic.COUNT,
                                 traffic.VARIATE_PARAMS)
    counters: Dict[str, int] = defaultdict(int)
    try:
        start.wait()
        for visits, is_timed in ((warmup, False), (timed, True)):
            if is_timed:
                measure.wait()
            for visit in visits:
                steps = [(-1, None, 0, proto.pack_hello(visit.session))]
                for req in visit.requests:
                    steps.append((counters[visit.session], req.dist,
                                  req.count,
                                  fetch if req.dist is None else variate))
                    counters[visit.session] += 1
                for index, dist, count, frame in steps:
                    sent = time.monotonic()
                    try:
                        opcode, payload = conn.roundtrip(frame)
                    except (OSError, proto.ProtocolError) as exc:
                        out.append(Exchange(visit.session, index, dist, count,
                                            sent, time.monotonic(), -1, b"",
                                            is_timed))
                        errors.append(f"{type(exc).__name__}: {exc}")
                        measure.abort()
                        return
                    out.append(Exchange(visit.session, index, dist, count,
                                        sent, time.monotonic(), opcode,
                                        payload, is_timed))
    except threading.BrokenBarrierError:
        errors.append("the other connection failed")


class Phase(NamedTuple):
    #: Per connection, in order.
    exchanges: List[List[Exchange]]
    errors: List[str]
    #: From the end of the warm-up to the last timed reply.
    wall_s: float
    #: CPU over the timed phase: the server process itself, and the
    #: rest of its process tree (engine workers).
    server_cpu_s: float
    worker_cpu_s: float
    tree_hwm_kb: int
    server_hwm_kb: int
    status: dict


def _phase(server: Server, schedule: traffic.Schedule) -> Phase:
    """Drive the whole schedule against ``server`` and read its costs."""
    n = len(schedule.timed)
    marks: dict = {}

    def mark() -> None:  # runs once, as the warm-up ends
        marks["cpu"] = common.tree_cpu_s(server.pid)
        marks["t"] = time.monotonic()

    conns = [Connection(server.port) for _ in range(n)]
    try:
        start = threading.Barrier(n + 1, timeout=TIMEOUT_S)
        measure = threading.Barrier(n, action=mark)
        outs: List[List[Exchange]] = [[] for _ in range(n)]
        errors: List[str] = []
        threads = [
            threading.Thread(target=_drive, args=(
                conns[c], schedule.warmup[c], schedule.timed[c], start,
                measure, outs[c], errors,
            ))
            for c in range(n)
        ]
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join()
        cpu1 = common.tree_cpu_s(server.pid)
        probe = Connection(server.port)
        try:
            status = probe.status()
        finally:
            probe.close()
        tree_hwm = common.tree_hwm_kb(server.pid)
        server_hwm = common.proc_status_kb(server.pid, "VmHWM")
    finally:
        for conn in conns:
            conn.close()
    if "t" not in marks:
        raise BenchError("the timed phase never started: " + "; ".join(errors))
    cpu0 = marks["cpu"]
    wall = max(e.received for out in outs for e in out if e.timed) - marks["t"]
    own = common.cpu_delta({server.pid: cpu0.get(server.pid, 0.0)},
                           {server.pid: cpu1[server.pid]})
    return Phase(
        exchanges=outs, errors=errors, wall_s=wall, server_cpu_s=own,
        worker_cpu_s=common.cpu_delta(cpu0, cpu1) - own,
        tree_hwm_kb=tree_hwm, server_hwm_kb=server_hwm, status=status,
    )


class ColdStart(NamedTuple):
    server: Server
    seconds: float
    rss_kb: int
    exchanges: List[Exchange]


def _cold_start(seed: int, shards: int,
                trace_out: Optional[str] = None) -> ColdStart:
    """Start a server and time it to its first FETCH reply."""
    server = Server(seed, shards, trace_out)
    try:
        conn = Connection(server.wait_port())
        try:
            exchanges = []
            for index, frame in ((-1, proto.pack_hello(SETUP_SESSION)),
                                 (0, proto.pack_fetch(traffic.COUNT))):
                sent = time.monotonic()
                opcode, payload = conn.roundtrip(frame)
                exchanges.append(Exchange(
                    SETUP_SESSION, index, None, traffic.COUNT * (index >= 0),
                    sent, time.monotonic(), opcode, payload,
                ))
            seconds = exchanges[-1].received - server.started
            rss = common.proc_status_kb(server.pid, "VmRSS")
        finally:
            conn.close()
    except BaseException:
        server.stop()
        raise
    return ColdStart(server, seconds, rss, exchanges)


class Tally(NamedTuple):
    #: Every exchange: HELLOs and requests, warm-up and timed.
    attempted: int
    failed: int
    busy: int
    server_errors: int
    requests: int
    #: ``(session, ops)`` in replay order (see ``check.serve``).
    log: List[tuple]
    lanes: Optional[int]
    variates: int
    variate_words: int
    delivered_words: int
    #: Successful timed requests only; ``timed`` holds their
    #: ``(sent, received, numbers)`` in the order they were sent.
    numbers: int
    latencies: List[float]
    roots: Dict[tuple, Tuple[float, float]]
    timed: List[Tuple[float, float, int]]


def _tally(connections: List[List[Exchange]]) -> Tally:
    """Decode and account every exchange (after the timed phase)."""
    attempted = failed = busy = server_errors = requests = numbers = 0
    variates = variate_words = 0
    latencies: List[float] = []
    roots: Dict[tuple, Tuple[float, float]] = {}
    timed: List[Tuple[float, float, int]] = []
    log: Dict[str, list] = {}
    words: Dict[str, int] = defaultdict(int)
    lanes = None
    for exchanges in connections:
        for e in exchanges:
            attempted += 1
            if e.index < 0:
                ok = e.opcode == proto.OP_JSON
                if ok:
                    ack = proto.decode_json_payload(e.payload)
                    ok = (ack.get("ok") is True
                          and ack.get("session") == e.session)
                    lanes = ack.get("lanes", lanes)
                failed += not ok
                continue
            requests += 1
            busy += e.opcode == proto.OP_BUSY
            server_errors += e.opcode == proto.OP_ERROR
            served = None
            if e.dist is None and e.opcode == proto.OP_VALUES:
                values = proto.decode_values(e.payload)
                if values.size == e.count:
                    served = check.Served(None, e.count, None, values)
                    words[e.session] += e.count
            elif e.dist is not None and e.opcode == proto.OP_VARIATES:
                dist, after, values = proto.decode_variates(e.payload)
                if dist == e.dist and values.size == e.count:
                    served = check.Served(e.dist, e.count,
                                          traffic.VARIATE_PARAMS, values,
                                          after)
                    variates += e.count
                    variate_words += after - words[e.session]
                    words[e.session] = after
            if served is None:
                failed += 1
                continue
            log.setdefault(e.session, []).append(served)
            if e.timed:
                numbers += e.count
                latencies.append(e.received - e.sent)
                roots[(e.session, e.index)] = (e.sent, e.received)
                timed.append((e.sent, e.received, e.count))
    return Tally(
        attempted=attempted, failed=failed, busy=busy,
        server_errors=server_errors, requests=requests, numbers=numbers,
        latencies=latencies, log=list(log.items()), roots=roots,
        timed=sorted(timed),
        lanes=lanes, variates=variates, variate_words=variate_words,
        delivered_words=sum(words.values()),
    )


def _accounting(phase: Phase, t: Tally, setup_requests: int) -> List[str]:
    """Disagreements between the client's counts and the server's."""
    server = phase.status["server"]
    want = {
        "requests_total": t.requests + setup_requests,
        "busy_total": t.busy,
        "errors_total": t.server_errors,
    }
    return [
        f"STATUS {key}={server[key]}, client saw {value}"
        for key, value in want.items() if server[key] != value
    ]


def _replay(workload: str, seed: int, lanes: int, log: List[tuple]) -> int:
    """``check.serve`` over the log, split across two child processes.

    The replay generates every served word again, in-process and without
    readahead, which costs about as much as the timed phase; both cores
    are idle once it has ended.  Each half runs in a process group of
    its own, like the server, and is waited for on every way out.
    """
    work = common.work_dir(workload + "-replay", seed)
    procs: List[subprocess.Popen] = []
    try:
        for i, half in enumerate((log[0::2], log[1::2])):
            path = work / f"log-{i}.pickle"
            path.write_bytes(pickle.dumps(check.pack_log(seed, lanes, half)))
            with open(path, "rb") as fh:
                procs.append(common.spawn(
                    [sys.executable, str(BENCH_DIR / "check.py")],
                    stdin=fh, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                ))
        wrong = 0
        for proc in procs:
            with common.deadline(proc, REPLAY_DEADLINE_S):
                out, err = proc.communicate()
            if proc.returncode != 0:
                raise BenchError(
                    f"replay exited {proc.returncode}: "
                    + err.decode(errors="replace")[-2000:]
                )
            wrong += int(out)
        return wrong
    finally:
        for proc in procs:
            common.stop_group(proc)
        common.clear_work_dir(work)


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    shards = SHARDS[workload]
    schedule = traffic.schedule(seed, visits_for(seconds))
    starts: List[ColdStart] = []
    try:
        for _ in range(1 if trace else SETUP_STARTS):
            if starts:
                starts[-1].server.stop()
            starts.append(_cold_start(seed, shards))
        measured = _phase(starts[-1].server, schedule)
    finally:
        if starts:
            starts[-1].server.stop()
    first_reply_rss_kb = starts[-1].rss_kb
    traced = None
    if trace:
        work = common.work_dir(workload, seed)
        try:
            trace_out = work / "trace.json"
            starts.append(_cold_start(seed, shards, str(trace_out)))
            try:
                traced = _phase(starts[-1].server, schedule)
            finally:
                starts[-1].server.stop()
            doc = json.loads(trace_out.read_text())
        finally:
            common.clear_work_dir(work)

    # Everything below runs after the timed phases.
    t = _tally(measured.exchanges)
    probes = [_tally([s.exchanges]) for s in starts]
    attempted = t.attempted + sum(p.attempted for p in probes)
    failed = t.failed + sum(p.failed for p in probes)
    errors = list(measured.errors)
    mismatches = _accounting(measured, t, 1)
    wrong = _replay(workload, seed, t.lanes or probes[0].lanes,
                    t.log + [e for p in probes for e in p.log])
    if traced is not None:
        tt = _tally(traced.exchanges)
        attempted += tt.attempted
        failed += tt.failed
        errors += traced.errors
        mismatches += _accounting(traced, tt, 1)
        # Same seed, same schedule: the traced server must have sent
        # exactly the bytes the replayed one did.
        wrong += sum(
            a.payload != b.payload
            for ca, cb in zip(measured.exchanges, traced.exchanges)
            for a, b in zip(ca, cb) if a.index >= 0
        )
    if wrong:
        errors.append(f"{wrong} reply(ies) differ from the in-process replay")
    # Transport errors are already failed exchanges; a wrong value or a
    # STATUS counter the client disagrees with fails one op more.
    failed += wrong + len(mismatches)
    errors += mismatches
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "errors": errors[:5],
        "samples": {
            "latency": len(t.latencies), "setup": len(starts),
            "latency_blocks": {
                f"p{q}": report.latency_blocks(len(t.latencies), q)
                for q in (50, 99)
            },
        },
        "work": {"timed_visits_per_connection": len(schedule.timed[0]),
                 "warmup_visits_per_connection": len(schedule.warmup[0]),
                 "timed_requests": len(t.latencies)},
    }
    if traced is None:
        sent, received, counts = zip(*t.timed)
        lat = [b - a for a, b in zip(sent, received)]
        result["metrics"] = {
            "numbers_per_s": report.calmest_rate(sent, max(received),
                                                 counts),
            "latency_p50_ms": report.latency_ms(lat, 50),
            "latency_p99_ms": report.latency_ms(lat, 99),
            "cpu_s_per_m_numbers": (
                (measured.server_cpu_s + measured.worker_cpu_s)
                / (t.numbers / 1e6)
            ),
            "setup_s": statistics.median(s.seconds for s in starts),
            "peak_rss_mb": measured.tree_hwm_kb / 1024.0,
        }
        return result

    spans = load_spans(doc["spans"])
    generated = inclusive(spans, "core")[1] + inclusive(spans, "engine")[1]
    delivered = tt.delivered_words + traffic.COUNT  # plus the probe
    m = report.per_layer(
        breakdown(tt.roots, spans), spans, tt.roots, doc["registry"],
        **{
            "dist.words_per_variate": tt.variate_words / max(1, tt.variates),
            "serve.prefetch_ratio": generated / delivered,
            "serve.server_cpu_us_per_op":
                measured.server_cpu_s / len(t.latencies) * 1e6,
            "engine.worker_cpu_us_per_op":
                measured.worker_cpu_s / len(t.latencies) * 1e6,
            "engine.worker_busy_share": (
                measured.worker_cpu_s / (measured.wall_s * shards)
                if shards else 0.0
            ),
            "serve.rss_kb_per_session": (
                (measured.server_hwm_kb - first_reply_rss_kb) / traffic.POOL
            ),
            "budget.serve_numbers_per_s": tt.numbers / traced.wall_s,
            "trace.overhead_share": 1.0 - (
                (tt.numbers / traced.wall_s)
                / (t.numbers / measured.wall_s)
            ),
        },
    )
    result["metrics"] = m
    result["text"] = report.budget_table(m, "one served request")
    return result
