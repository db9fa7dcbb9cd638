"""End-to-end tests of the RNG service: live server, real sockets.

Each test boots an :class:`RNGServer` on an ephemeral port via
``serve_background`` (its own event loop on a daemon thread) and talks
to it with blocking clients or raw sockets -- the same path production
consumers use.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro import obs
from repro.bitsource.counter import SplitMix64Source
from repro.resilience.faults import FaultyBitSource
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServerBusyError,
    serve_background,
)
from repro.serve.session import SessionStream


def _quiet_faulty(profile):
    def factory(seed):
        return FaultyBitSource(
            SplitMix64Source(seed), profile, sleep=lambda s: None
        )

    return factory


class TestEndToEnd:
    def test_served_stream_matches_in_process_reference(self):
        """The network boundary must not change a single bit: a session's
        served numbers equal the same SessionStream computed locally."""
        config = ServeConfig(master_seed=11)
        with serve_background(config) as h:
            with ServeClient(h.host, h.port, session="ref") as client:
                served = client.fetch(300)
        reference = SessionStream("ref", master_seed=11).generate(300)
        np.testing.assert_array_equal(served, reference)

    def test_fetch_sizing_is_stream_transparent(self):
        with serve_background(ServeConfig(master_seed=11)) as h:
            with ServeClient(h.host, h.port, session="split") as c:
                split = np.concatenate([c.fetch(n) for n in (7, 64, 29)])
            with ServeClient(h.host, h.port, session="bulk2") as c:
                pass  # unrelated session must not disturb the first
        reference = SessionStream("split", master_seed=11).generate(100)
        np.testing.assert_array_equal(split, reference)

    def test_session_resumes_across_reconnect(self):
        with serve_background(ServeConfig(master_seed=11)) as h:
            with ServeClient(h.host, h.port, session="resume") as c:
                first = c.fetch(40)
            with ServeClient(h.host, h.port, session="resume") as c:
                second = c.fetch(40)
        reference = SessionStream("resume", master_seed=11).generate(80)
        np.testing.assert_array_equal(
            np.concatenate([first, second]), reference
        )

    def test_restart_reproduces_stream(self):
        config = ServeConfig(master_seed=21)
        with serve_background(config) as h:
            with ServeClient(h.host, h.port, session="alice") as c:
                before = c.fetch(128)
        with serve_background(ServeConfig(master_seed=21)) as h:
            with ServeClient(h.host, h.port, session="alice") as c:
                after = c.fetch(128)
        np.testing.assert_array_equal(before, after)

    def test_concurrent_sessions_disjoint_and_healthy(self):
        n_clients, per_fetch = 12, 256
        results, errors = {}, []

        def worker(i):
            try:
                with ServeClient(h.host, h.port, session=f"c{i}") as c:
                    results[i] = c.fetch(per_fetch)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        with serve_background(ServeConfig(master_seed=5)) as h:
            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            with ServeClient(h.host, h.port) as c:
                status = c.status()
        assert not errors
        assert len(results) == n_clients
        seen = set()
        for values in results.values():
            chunk = set(map(int, values))
            assert len(chunk) == per_fetch
            assert not seen & chunk, "cross-session stream overlap"
            seen |= chunk
        assert status["server"]["health"] == "OK"
        assert status["server"]["numbers_total"] >= n_clients * per_fetch


class TestBackpressure:
    def test_rate_limit_returns_busy(self):
        config = ServeConfig(master_seed=1, rate=50.0, burst=64)
        with serve_background(config) as h:
            with ServeClient(h.host, h.port, session="greedy") as c:
                assert c.fetch(64).size == 64  # burst drained
                with pytest.raises(ServerBusyError, match="rate-limited"):
                    c.fetch(64)
                status = c.status()
        assert status["server"]["busy_total"] >= 1

    def test_busy_is_retryable(self):
        config = ServeConfig(master_seed=1, rate=2000.0, burst=64)
        with serve_background(config) as h:
            with ServeClient(
                h.host, h.port, session="patient", retries=8, backoff_s=0.05
            ) as c:
                assert c.fetch(64).size == 64
                # Bucket is empty now; the retry budget must absorb it.
                assert c.fetch(32).size == 32

    def test_global_queue_cap_sheds_load(self):
        """With one slow worker and a tiny global queue, a synchronized
        burst must get explicit BUSY responses, not unbounded buffering."""

        class SlowSource(SplitMix64Source):
            def words64(self, n):
                import time as _time

                _time.sleep(0.05)
                return super().words64(n)

        n_clients = 8
        config = ServeConfig(
            master_seed=1,
            source_factory=lambda seed: SlowSource(seed),
            failover=False,
            max_global_queue=2,
            max_session_queue=64,
            max_batch=1,
        )
        busy, served, errors = [], [], []
        barrier = threading.Barrier(n_clients)

        def worker(i):
            try:
                with ServeClient(h.host, h.port, session=f"s{i}") as c:
                    # HELLO built the (slow) session; now fire together so
                    # all fetches hit the 1-worker/2-slot queue at once.
                    barrier.wait(timeout=60)
                    served.append(c.fetch(640))
            except ServerBusyError as exc:
                busy.append(str(exc))
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
                t.join(timeout=90)
            with ServeClient(h.host, h.port) as c:
                status = c.status()
        assert not errors
        assert busy, "no request was shed despite a full queue"
        assert any("queue full" in b for b in busy)
        assert status["server"]["busy_total"] >= len(busy)
        # The ones that got through are correct and complete.
        assert served
        for values in served:
            assert values.size == 640


class TestDegradation:
    def test_dying_feed_degrades_sessions_not_service(self):
        config = ServeConfig(
            master_seed=1, source_factory=_quiet_faulty("failover")
        )
        with serve_background(config) as h:
            with ServeClient(h.host, h.port, session="sick") as c:
                for _ in range(6):
                    assert c.fetch(256).size == 256
                status = c.status()
        assert status["session"]["health"] == "DEGRADED"
        assert status["server"]["health"] == "DEGRADED"
        assert not status["session"]["active_source"].startswith("faulty")

    def test_healthy_sessions_unaffected_by_degraded_one(self):
        config = ServeConfig(
            master_seed=1, source_factory=_quiet_faulty("failover")
        )
        with serve_background(config) as h:
            with ServeClient(h.host, h.port, session="sick") as sick, \
                 ServeClient(h.host, h.port, session="fine") as fine:
                for _ in range(6):
                    sick.fetch(256)
                values = fine.fetch(64)
        # "fine" went through the same failover (shared profile), but the
        # service kept serving both sessions -- that is the guarantee.
        assert values.size == 64


class TestProtocolSurface:
    def test_fetch_before_hello_is_an_error_not_a_disconnect(self):
        from repro.serve import protocol as proto

        with serve_background(ServeConfig()) as h:
            sock = socket.create_connection((h.host, h.port), timeout=10)
            try:
                sock.sendall(proto.pack_fetch(4))
                opcode, payload = proto.read_frame_socket(sock)
                assert opcode == proto.OP_ERROR
                assert b"HELLO" in payload
                # Connection still usable: HELLO then FETCH succeeds.
                sock.sendall(proto.pack_hello("late"))
                opcode, _ = proto.read_frame_socket(sock)
                assert opcode == proto.OP_JSON
                sock.sendall(proto.pack_fetch(4))
                opcode, payload = proto.read_frame_socket(sock)
                assert opcode == proto.OP_VALUES
                assert len(payload) == 32
            finally:
                sock.close()

    def test_oversized_fetch_rejected(self):
        config = ServeConfig(max_fetch=1000)
        with serve_background(config) as h:
            with ServeClient(h.host, h.port, session="big") as c:
                from repro.serve.protocol import ServeError

                with pytest.raises(ServeError, match="fetch count"):
                    c.fetch(4096)
                assert c.fetch(1000).size == 1000

    def test_json_lines_debug_mode(self):
        with serve_background(ServeConfig(master_seed=11)) as h:
            sock = socket.create_connection((h.host, h.port), timeout=10)
            f = sock.makefile("rwb")
            try:
                def ask(doc):
                    f.write((json.dumps(doc) + "\n").encode())
                    f.flush()
                    return json.loads(f.readline())

                hello = ask({"op": "hello", "session": "dbg"})
                assert hello["ok"] and hello["op"] == "hello"
                fetched = ask({"op": "fetch", "n": 8})
                assert fetched["ok"] and len(fetched["values"]) == 8
                status = ask({"op": "status"})
                assert status["server"]["sessions"] >= 1
                unknown = ask({"op": "nope"})
                assert not unknown["ok"]
                bye = ask({"op": "bye"})
                assert bye["ok"]
            finally:
                sock.close()

    def test_json_mode_values_match_binary_mode(self):
        with serve_background(ServeConfig(master_seed=11)) as h:
            sock = socket.create_connection((h.host, h.port), timeout=10)
            f = sock.makefile("rwb")
            f.write(b'{"op": "hello", "session": "both"}\n')
            f.write(b'{"op": "fetch", "n": 32}\n')
            f.flush()
            json.loads(f.readline())
            via_json = json.loads(f.readline())["values"]
            sock.close()
        reference = SessionStream("both", master_seed=11).generate(32)
        assert via_json == [int(v) for v in reference]


class _Wire:
    """One raw connection in either wire mode; every reply is a dict.

    Binary HELLOs are framed by hand, so the server's own check is what
    refuses a bad id.  A value no binary frame can carry (a non-integer
    count, an offset of 2**64 or more) goes through the protocol
    encoder, whose refusal is what a binary client sees.
    """

    def __init__(self, mode, handle):
        self.mode = mode
        self.sock = socket.create_connection(
            (handle.host, handle.port), timeout=10
        )
        self.file = self.sock.makefile("rwb")

    def close(self):
        self.file.close()
        self.sock.close()

    def ask(self, op, **fields):
        from repro.serve import protocol as proto

        if self.mode == "json":
            self.file.write(json.dumps({"op": op, **fields}).encode() + b"\n")
            self.file.flush()
            return json.loads(self.file.readline())
        try:
            if op == "hello":
                frame = proto.pack_frame(
                    proto.OP_HELLO, fields["session"].encode()
                )
            elif op == "fetch":
                frame = proto.pack_fetch(fields["n"])
            elif op == "resume":
                frame = proto.pack_resume(fields["session"], fields["offset"])
            else:
                frame = proto.pack_frame(proto.OP_STATUS)
        except proto.ProtocolError as exc:
            return {"ok": False, "error": f"encoder: {exc}"}
        self.sock.sendall(frame)
        opcode, payload = proto.read_frame_socket(self.sock)
        if opcode == proto.OP_VALUES:
            values = proto.decode_values(payload).tolist()
            return {"ok": True, "values": values}
        if opcode == proto.OP_ERROR:
            return {"ok": False, "error": payload.decode()}
        return proto.decode_json_payload(payload)


@pytest.fixture(params=["binary", "json"])
def wire_mode(request):
    return request.param


class TestWireModesShareOneRuleSet:
    """Both wire modes go through one op handler, so they refuse and
    count the same requests, and a HELLO acks the session it attached."""

    def test_session_id_over_256_bytes_refused(self, wire_mode):
        with serve_background(ServeConfig()) as h:
            wire = _Wire(wire_mode, h)
            try:
                assert not wire.ask("hello", session="x" * 257)["ok"]
            finally:
                wire.close()
            wire = _Wire(wire_mode, h)
            try:
                assert wire.ask("hello", session="x" * 256)["ok"]
            finally:
                wire.close()

    @pytest.mark.parametrize(
        "offset", [2**64, 2**64 + 5], ids=["2**64", "2**64+5"]
    )
    def test_resume_offset_past_u64_refused(self, wire_mode, offset):
        with serve_background(ServeConfig()) as h:
            wire = _Wire(wire_mode, h)
            try:
                assert not wire.ask("resume", session="r", offset=offset)["ok"]
                # No session was attached, so nothing can be served.
                assert not wire.ask("fetch", n=4)["ok"]
            finally:
                wire.close()

    def test_non_integer_args_are_client_errors(self, wire_mode):
        with serve_background(ServeConfig()) as h:
            wire = _Wire(wire_mode, h)
            try:
                assert wire.ask("hello", session="typo")["ok"]
                for n in ("abc", 2.5, True):
                    assert not wire.ask("fetch", n=n)["ok"]
                reply = wire.ask("resume", session="typo", offset="abc")
                assert not reply["ok"]
                server = wire.ask("status")["server"]
            finally:
                wire.close()
        assert server["errors_total"] == 0
        assert server["requests_total"] == 0

    def test_hello_reports_the_recovered_sessions_lanes(
        self, wire_mode, tmp_path
    ):
        journal = str(tmp_path / "serve.journal")
        with serve_background(ServeConfig(
            master_seed=5, lanes=16, journal_path=journal
        )) as h:
            with ServeClient(h.host, h.port, session="lanes16") as c:
                head = c.fetch(10)
        with serve_background(ServeConfig(
            master_seed=5, lanes=64, journal_path=journal
        )) as h:
            wire = _Wire(wire_mode, h)
            try:
                ack = wire.ask("hello", session="lanes16")
                tail = wire.ask("fetch", n=6)["values"]
            finally:
                wire.close()
        assert ack["lanes"] == 16
        ref = SessionStream("lanes16", master_seed=5, lanes=16).generate(16)
        np.testing.assert_array_equal(head, ref[:10])
        assert tail == [int(v) for v in ref[10:]]


class TestObservability:
    def test_serve_metrics_flow_through_obs_exporters(self, tmp_path):
        with obs.observed() as (registry, _tracer):
            with serve_background(ServeConfig(master_seed=1)) as h:
                with ServeClient(h.host, h.port, session="m") as c:
                    for _ in range(5):
                        c.fetch(100)
                    status = c.status()
            snapshot = registry.snapshot()
            prom = obs.prometheus_text(registry)
            trace = tmp_path / "serve.jsonl"
            obs.export_jsonl(trace, registry)
        assert snapshot["repro_serve_requests_total"] >= 5
        assert snapshot["repro_serve_numbers_total"] >= 500
        assert snapshot["repro_serve_sessions_active"] >= 1
        batches = snapshot["repro_serve_batch_size"]
        assert batches["count"] >= 1
        latency = snapshot["repro_serve_request_latency_seconds"]
        assert latency["count"] >= 5
        # STATUS carries the serve-side metrics once obs is enabled.
        assert "metrics" in status
        assert status["metrics"]["repro_serve_requests_total"] >= 5
        # Prometheus text exposition covers counters and histograms.
        assert "# TYPE repro_serve_requests_total counter" in prom
        assert "# TYPE repro_serve_request_latency_seconds histogram" in prom
        assert 'repro_serve_batch_size_bucket{le="+Inf"}' in prom
        # ... and the JSONL exporter carries the same serve metrics.
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        jsonl_names = {r.get("name") for r in records}
        assert "repro_serve_requests_total" in jsonl_names
        assert "repro_serve_request_latency_seconds" in jsonl_names

    def test_status_without_obs_still_reports_counters(self):
        with serve_background(ServeConfig(master_seed=1)) as h:
            with ServeClient(h.host, h.port, session="plain") as c:
                c.fetch(10)
                status = c.status()
        assert status["server"]["requests_total"] >= 1
        assert "metrics" not in status
