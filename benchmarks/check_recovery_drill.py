"""CI recovery gate: kill -9 a serving process mid-session, resume, compare.

The drill:

1. compute an *uninterrupted golden run* for every client session with
   an in-process :class:`~repro.serve.session.SessionStream`;
2. start ``repro serve --journal`` as a real subprocess, connect
   ``--clients`` sessions, and fetch part of each stream;
3. ``SIGKILL`` the server mid-stream (via
   :func:`repro.resilience.faults.kill_server` -- no drain, no shutdown
   marker, whatever the journal fsync'd is all that survives);
4. restart the server on the same journal, ``RESUME`` every client at
   its own received offset, and fetch the rest;
5. byte-compare every session's concatenated words against its golden
   run, and verify the journal recovered sessions and lacks a clean
   shutdown marker after the kill.

Any replayed word, skipped word, or diverging value exits non-zero so
the CI ``recovery`` job fails loudly.

Usage::

    PYTHONPATH=src python benchmarks/check_recovery_drill.py \
        --clients 4 --head 3000 --tail 2000
"""

from __future__ import annotations

import argparse
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.resilience.faults import kill_server
from repro.serve import ServeClient, SessionStream, read_journal

MASTER_SEED = 2026
LANES = 32


def start_server(journal: str, port: int = 0) -> "tuple[subprocess.Popen, int]":
    """``repro serve --journal`` subprocess; returns (proc, bound port)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(pathlib.Path(__file__).parent.parent / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--seed", str(MASTER_SEED),
         "--lanes", str(LANES), "--journal", journal],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 30
    line = ""
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if "listening on" in line:
            break
    else:  # pragma: no cover - CI timeout path
        raise RuntimeError("server did not report listening within 30s")
    bound = int(line.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
    return proc, bound


def run_variates_drill(clients: int, head: int, tail: int) -> int:
    """The kill -9 drill over the typed VARIATE path.

    Rejection sampling makes words-per-variate data-dependent, so the
    only thing a client can resume by is the *word offset* its VARIATES
    responses carried -- this drill proves that coordinate survives a
    SIGKILL: Gaussian variates fetched before the kill plus variates
    fetched after RESUME must be bit-identical to an uninterrupted
    in-process run (forward replay, never a seek through variate
    counts).
    """
    sessions = [f"vdrill-{i}" for i in range(clients)]
    golden = {}
    for sid in sessions:
        values, _ = SessionStream(
            sid, master_seed=MASTER_SEED, lanes=LANES
        ).variates("normal", head + tail, {"mean": 0.0, "std": 1.0})
        golden[sid] = values

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "serve.journal")

        proc, port = start_server(journal)
        conns = {}
        heads = {}
        word_marks = {}
        try:
            for sid in sessions:
                conns[sid] = ServeClient("127.0.0.1", port, session=sid)
                # Ragged fetch sizes, as in the raw drill: the variate
                # stream must not care how it was sliced pre-crash.
                a = conns[sid].fetch_variates("normal", head // 3)
                b = conns[sid].fetch_variates("normal", head - head // 3)
                heads[sid] = np.concatenate([a, b])
                word_marks[sid] = conns[sid].words_received
            # The server journals each ack after its send, so the last
            # reply can reach the client before its ack is on disk.  A
            # connection's frames are handled in order: the reply to one
            # STATUS on each session's own connection proves the ack
            # before it was journaled and fsync'd.
            for sid in sessions:
                conns[sid].status()
            kill_server(proc)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait(timeout=10)

        state = read_journal(journal)
        if state.clean_shutdown:
            print("VARIATES RECOVERY GATE FAILED: clean-shutdown marker "
                  "after SIGKILL", file=sys.stderr)
            return 1
        for sid in sessions:
            acked = state.sessions.get(sid, {}).get("offset")
            if acked != word_marks[sid]:
                print(f"VARIATES RECOVERY GATE FAILED: {sid} journaled "
                      f"word offset {acked} != delivered {word_marks[sid]}",
                      file=sys.stderr)
                return 1
        print(f"journal after kill -9: {len(state.sessions)} session(s) "
              f"acked at their delivered word offsets")

        proc2, port2 = start_server(journal)
        try:
            for sid in sessions:
                client = conns[sid]
                client.host, client.port = "127.0.0.1", port2
                ack = client.resume()  # at the word offset, not a count
                if ack.get("offset") != word_marks[sid]:
                    print(f"VARIATES RECOVERY GATE FAILED: {sid} resume "
                          f"ack {ack}", file=sys.stderr)
                    return 1
                tail_vals = client.fetch_variates("normal", tail)
                got = np.concatenate([heads[sid], tail_vals])
                if not np.array_equal(
                    got.view(np.uint64), golden[sid].view(np.uint64)
                ):
                    first = int(np.flatnonzero(
                        got.view(np.uint64) != golden[sid].view(np.uint64)
                    )[0])
                    print(f"VARIATES RECOVERY GATE FAILED: session {sid} "
                          f"diverges at variate {first} (kill after {head})",
                          file=sys.stderr)
                    return 1
                client.close()
        finally:
            proc2.terminate()
            proc2.wait(timeout=15)

    print(
        f"variates recovery gate passed: {clients} session(s) killed -9 "
        f"after {head} Gaussian variates, resumed by word offset, "
        f"{head + tail} variates bit-identical to the uninterrupted run"
    )
    return 0


def run_drill(clients: int, head: int, tail: int) -> int:
    sessions = [f"drill-{i}" for i in range(clients)]
    golden = {
        sid: SessionStream(
            sid, master_seed=MASTER_SEED, lanes=LANES
        ).generate(head + tail)
        for sid in sessions
    }

    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "serve.journal")

        proc, port = start_server(journal)
        conns = {}
        heads = {}
        try:
            for sid in sessions:
                conns[sid] = ServeClient("127.0.0.1", port, session=sid)
                # Ragged fetch sizes: the crash must not care how the
                # stream was sliced before it.
                a = conns[sid].fetch(head // 3)
                b = conns[sid].fetch(head - head // 3)
                heads[sid] = np.concatenate([a, b])
            kill_server(proc)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup path
                proc.kill()
                proc.wait(timeout=10)

        state = read_journal(journal)
        if state.clean_shutdown:
            print("RECOVERY GATE FAILED: journal carries a clean-shutdown "
                  "marker after SIGKILL", file=sys.stderr)
            return 1
        if set(state.sessions) != set(sessions):
            print(f"RECOVERY GATE FAILED: journal recovered "
                  f"{sorted(state.sessions)} != {sessions}", file=sys.stderr)
            return 1
        print(f"journal after kill -9: {len(state.sessions)} session(s), "
              f"no shutdown marker, {state.truncated_bytes} torn byte(s)")

        proc2, port2 = start_server(journal)
        try:
            for sid in sessions:
                client = conns[sid]
                client.host, client.port = "127.0.0.1", port2
                ack = client.resume()  # at words_received = head
                if ack.get("offset") != head:
                    print(f"RECOVERY GATE FAILED: {sid} resume ack "
                          f"{ack}", file=sys.stderr)
                    return 1
                tail_vals = client.fetch(tail)
                got = np.concatenate([heads[sid], tail_vals])
                if not np.array_equal(got, golden[sid]):
                    first = int(np.flatnonzero(got != golden[sid])[0])
                    print(
                        f"RECOVERY GATE FAILED: session {sid} diverges "
                        f"from the uninterrupted run at word {first} "
                        f"(kill at {head})",
                        file=sys.stderr,
                    )
                    return 1
                client.close()
        finally:
            proc2.terminate()
            proc2.wait(timeout=15)

    print(
        f"recovery gate passed: {clients} session(s) killed -9 at word "
        f"{head}, resumed, {head + tail} words byte-identical to the "
        f"uninterrupted run"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client sessions in the drill")
    parser.add_argument("--head", type=int, default=3000,
                        help="words served per session before the kill")
    parser.add_argument("--tail", type=int, default=2000,
                        help="words served per session after recovery")
    parser.add_argument("--variates", action="store_true",
                        help="drill the typed VARIATE path (Gaussian "
                             "variates resumed by word offset) instead "
                             "of raw words")
    args = parser.parse_args(argv)
    if args.variates:
        return run_variates_drill(args.clients, args.head, args.tail)
    return run_drill(args.clients, args.head, args.tail)


if __name__ == "__main__":
    raise SystemExit(main())
