"""Crash-safe serving: journal durability, recovery, RESUME, exactly-once.

The property under drill everywhere here: however the previous server
process died -- clean drain, torn journal tail, ``kill -9`` mid-stream
-- a restarted server plus resuming clients reproduce each session's
stream *byte-identically* with exactly-once word delivery.
"""

import os

import numpy as np
import pytest

from repro.serve import (
    ConnectError,
    ServeClient,
    ServeConfig,
    SessionStream,
    read_journal,
    serve_background,
)
from repro.serve.journal import SessionJournal, _encode
from repro.serve.protocol import ProtocolError, pack_resume, unpack_resume


def golden(session_id, master_seed, lanes, n):
    """Uninterrupted in-process reference for a served stream."""
    return SessionStream(
        session_id, master_seed=master_seed, lanes=lanes
    ).generate(n)


# ----------------------------------------------------------------------
# Journal file format
# ----------------------------------------------------------------------


class TestJournalFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "j.log")
        j = SessionJournal.open(path)
        j.log_session("a", 16)
        j.log_ack("a", 100)
        j.log_session("b", 8)
        j.log_ack("a", 250)
        j.log_ack("b", 40)
        j.close()
        state = read_journal(path)
        assert state.sessions == {
            "a": {"lanes": 16, "offset": 250},
            "b": {"lanes": 8, "offset": 40},
        }
        assert not state.clean_shutdown
        assert state.truncated_bytes == 0

    def test_shutdown_marker(self, tmp_path):
        path = str(tmp_path / "j.log")
        j = SessionJournal.open(path)
        j.log_session("a", 16)
        j.log_shutdown()
        j.close()
        assert read_journal(path).clean_shutdown

    @pytest.mark.parametrize("torn_tail", [
        b"\x01",                          # lone partial length byte
        b"\x00\x00\x00\x10\xaa\xbb",      # header + truncated payload
        b"\x00\x00\x00\x05\x00\x00\x00\x00not-json-crc",  # bad CRC
        b"\xff\xff\xff\xff garbage length",
    ])
    def test_torn_tail_tolerated(self, tmp_path, torn_tail):
        path = str(tmp_path / "j.log")
        j = SessionJournal.open(path)
        j.log_session("a", 16)
        j.log_ack("a", 77)
        j.close()
        with open(path, "ab") as fh:
            fh.write(torn_tail)
        state = read_journal(path)
        assert state.sessions == {"a": {"lanes": 16, "offset": 77}}
        assert state.truncated_bytes == len(torn_tail)
        # Re-opening truncates the torn tail and compacts.
        SessionJournal.open(path).close()
        assert read_journal(path).truncated_bytes == 0
        assert read_journal(path).sessions["a"]["offset"] == 77

    def test_mid_record_truncation(self, tmp_path):
        """A crash mid-``write`` leaves a prefix of the final record."""
        path = str(tmp_path / "j.log")
        j = SessionJournal.open(path)
        j.log_session("a", 16)
        j.log_ack("a", 10)
        j.log_ack("a", 99)
        j.close()
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size - 3)
        state = read_journal(path)
        # The torn final ack is dropped; the previous ack survives.
        assert state.sessions["a"]["offset"] == 10
        assert state.truncated_bytes > 0

    def test_compaction_shrinks_the_log(self, tmp_path):
        path = str(tmp_path / "j.log")
        j = SessionJournal.open(path)
        j.log_session("a", 16)
        for offset in range(10, 5010, 10):
            j.log_ack("a", offset)
        j.close()
        big = os.path.getsize(path)
        SessionJournal.open(path).close()
        small = os.path.getsize(path)
        assert small < big / 50
        assert read_journal(path).sessions["a"]["offset"] == 5000

    def test_unknown_record_types_skipped(self, tmp_path):
        path = str(tmp_path / "j.log")
        j = SessionJournal.open(path)
        j.log_session("a", 16)
        j._append({"type": "future-extension", "x": 1})
        j.log_ack("a", 5)
        j.close()
        state = read_journal(path)
        assert state.sessions["a"]["offset"] == 5
        assert state.records == 3

    def test_missing_file_is_empty_state(self, tmp_path):
        state = read_journal(str(tmp_path / "absent.log"))
        assert state.sessions == {} and state.records == 0

    def test_closed_journal_rejects_appends(self, tmp_path):
        j = SessionJournal.open(str(tmp_path / "j.log"))
        j.close()
        with pytest.raises(ValueError, match="closed"):
            j.log_ack("a", 1)

    def test_torn_journal_fault_helper(self, tmp_path, chaos):
        """The chaos fixture's torn_journal fault is recoverable."""
        path = str(tmp_path / "j.log")
        j = SessionJournal.open(path)
        j.log_session("a", 16)
        j.log_ack("a", 123)
        # One fully fsync'd record the tear must not reach.
        safe_size = os.path.getsize(path)
        j.log_ack("a", 456)
        j.close()
        dropped = chaos.tear_journal(path, drop_bytes=2, garbage_bytes=5)
        assert dropped == 2
        state = read_journal(path)
        # The torn record is gone, everything before it survives.
        assert state.sessions["a"]["offset"] == 123
        assert os.path.getsize(path) >= safe_size


class TestResumeProtocol:
    def test_pack_unpack_roundtrip(self):
        sid, offset = "client-7", (1 << 40) + 99
        frame = pack_resume(sid, offset)
        # strip length prefix + opcode
        assert unpack_resume(frame[5:]) == (sid, offset)

    def test_bad_payloads_rejected(self):
        with pytest.raises(ProtocolError):
            pack_resume("", 0)
        with pytest.raises(ProtocolError):
            pack_resume("x", -1)
        with pytest.raises(ProtocolError):
            unpack_resume(b"\x00" * 8)  # offset but no id
        with pytest.raises(ProtocolError):
            unpack_resume(b"\x00" * 8 + b"\xff")  # id not UTF-8


# ----------------------------------------------------------------------
# Server recovery + exactly-once resume
# ----------------------------------------------------------------------


def _config(tmp_path, **kw):
    kw.setdefault("master_seed", 7)
    kw.setdefault("lanes", 16)
    kw.setdefault("journal_path", str(tmp_path / "serve.journal"))
    return ServeConfig(**kw)


class TestServerRecovery:
    def test_restart_continues_sessions_byte_identically(self, tmp_path):
        cfg = _config(tmp_path)
        ref = golden("alice", 7, 16, 300)
        with serve_background(cfg) as h:
            with ServeClient(h.host, h.port, session="alice") as c:
                head = c.fetch(180)
        # Simulated crash *after* the acked fetch: new server, same
        # journal.  A plain HELLO continues from the journaled offset.
        with serve_background(_config(tmp_path)) as h2:
            assert h2.server.recovered_sessions == 1
            with ServeClient(h2.host, h2.port, session="alice") as c2:
                tail = c2.fetch(120)
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)

    def test_restart_after_torn_journal(self, tmp_path, chaos):
        cfg = _config(tmp_path)
        ref = golden("bob", 7, 16, 200)
        with serve_background(cfg) as h:
            with ServeClient(h.host, h.port, session="bob") as c:
                head = c.fetch(100)
        chaos.tear_journal(cfg.journal_path, drop_bytes=4, garbage_bytes=7)
        # The torn record was the clean-shutdown marker (last append):
        # dropping it only loses the marker, never acked offsets.
        with serve_background(_config(tmp_path)) as h2:
            with ServeClient(h2.host, h2.port, session="bob") as c2:
                tail = c2.fetch(100)
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)

    def test_client_resume_is_exactly_once(self, tmp_path):
        """The client's own offset wins over the journal: words fetched
        but never delivered are re-served, never skipped."""
        cfg = _config(tmp_path)
        ref = golden("carol", 7, 16, 300)
        with serve_background(cfg) as h:
            c = ServeClient(h.host, h.port, session="carol")
            head = c.fetch(100)
            # The server generated and acked 60 more words, but pretend
            # the delivery never arrived: words_received stays 100.
            c2 = ServeClient(h.host, h.port, session="carol")
            c2.fetch(60)
            c2._sock.close()
            c._sock.close()
        with serve_background(_config(tmp_path)) as h2:
            # Journal says 160; the client knows better and resumes 100.
            c = ServeClient(h2.host, h2.port, session="carol")
            c.resume(100)
            tail = c.fetch(200)
            c.close()
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)

    def test_resume_rearms_sentinel(self, tmp_path):
        cfg = _config(tmp_path)
        with serve_background(cfg) as h:
            with ServeClient(h.host, h.port, session="dora") as c:
                c.fetch(50)
                old = h.server.sessions["dora"].stream.sentinel
                c.resume(10)
                new = h.server.sessions["dora"].stream.sentinel
                assert new is not old
                c.fetch(10)

    def test_memoryless_restart_still_resumable(self, tmp_path):
        """No journal at all: streams are pure functions of their seeds,
        so a client RESUME alone reproduces the stream byte-exactly."""
        ref = golden("eve", 7, 16, 200)
        with serve_background(ServeConfig(master_seed=7, lanes=16)) as h:
            with ServeClient(h.host, h.port, session="eve") as c:
                head = c.fetch(120)
        with serve_background(ServeConfig(master_seed=7, lanes=16)) as h2:
            c = ServeClient(h2.host, h2.port, session="eve")
            c.resume(120)
            tail = c.fetch(80)
            c.close()
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)

    def test_json_mode_resume(self, tmp_path):
        import json
        import socket

        cfg = _config(tmp_path)
        ref = golden("fred", 7, 16, 40)
        with serve_background(cfg) as h:
            with socket.create_connection((h.host, h.port), timeout=10) as s:
                fh = s.makefile("rwb")
                fh.write(json.dumps(
                    {"op": "resume", "session": "fred", "offset": 8}
                ).encode() + b"\n")
                fh.flush()
                ack = json.loads(fh.readline())
                assert ack["ok"] and ack["offset"] == 8
                fh.write(b'{"op": "fetch", "n": 16}\n')
                fh.flush()
                got = json.loads(fh.readline())["values"]
        np.testing.assert_array_equal(
            np.array(got, dtype=np.uint64), ref[8:24]
        )

    def test_journal_in_status(self, tmp_path):
        cfg = _config(tmp_path)
        with serve_background(cfg) as h:
            with ServeClient(h.host, h.port, session="gus") as c:
                c.fetch(10)
                doc = c.status()["server"]["journal"]
        assert doc["path"] == cfg.journal_path
        assert doc["recovered_sessions"] == 0
        assert doc["appends"] >= 2  # session record + >= 1 ack

    def test_clean_stop_writes_shutdown_marker(self, tmp_path):
        cfg = _config(tmp_path)
        with serve_background(cfg) as h:
            with ServeClient(h.host, h.port, session="hal") as c:
                c.fetch(10)
        state = read_journal(cfg.journal_path)
        assert state.clean_shutdown
        assert state.sessions["hal"]["offset"] == 10


class TestClientErrors:
    def test_connect_refused_raises_connect_error(self):
        with pytest.raises(ConnectError, match="cannot connect"):
            # Port 1 is privileged and never our server.
            ServeClient("127.0.0.1", 1, timeout=2)

    def test_busy_backoff_is_deterministic_and_capped(self):
        from repro.serve.client import _backoff_delay

        delays = [_backoff_delay(0.05, 2.0, k) for k in range(12)]
        assert delays == [
            min(2.0, 0.05 * 2 ** k) for k in range(12)
        ]
        assert delays[-1] == 2.0  # capped, not 102 seconds
        assert delays == [_backoff_delay(0.05, 2.0, k) for k in range(12)]

    def test_fetch_cli_connection_refused_one_line(self, capsys):
        from repro.cli import main

        rc = main(["fetch", "--host", "127.0.0.1", "--port", "1", "-n", "4"])
        assert rc != 0
        err = capsys.readouterr().err
        assert err.count("\n") == 1  # exactly one line
        assert "repro fetch:" in err and "cannot connect" in err
        assert "Traceback" not in err
