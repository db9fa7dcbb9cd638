"""Tests for the process-sharded generation engine."""

import multiprocessing as mp
import multiprocessing.queues as mp_queues
import multiprocessing.synchronize as mp_sync
import os
import signal
import subprocess
import sys
import threading
import time
from collections import OrderedDict

import numpy as np
import pytest

from repro.bitsource.counter import SplitMix64Source
from repro.core.streams import derive_seed
from repro.engine import EngineConfig, ShardedEngine, serial_reference
from repro.engine.sharded import (
    MAX_ROUND_WORDS,
    MAX_WORKER_STREAMS,
    _effective_burst,
    _FrameReader,
    _serve_request,
)
from repro.resilience.errors import WorkerFailedError
from repro.resilience.supervised import stream_bank
from repro.serve.session import SessionStream

CONFIG = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2)


def kill_shard(eng, i):
    proc = eng._procs[i]
    os.kill(proc.pid, signal.SIGKILL)
    proc.join(timeout=5)
    assert not proc.is_alive()


def killed_by_stream_13(feed_seed):
    """``source_factory`` whose stream 13 SIGKILLs every worker that
    builds it (module-level, so it pickles)."""
    if feed_seed == 13:
        os.kill(os.getpid(), signal.SIGKILL)
    return SplitMix64Source(feed_seed)


def running(pid):
    """Whether ``pid`` is a live process (a zombie counts as gone)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


class TestConfig:
    def test_defaults_validate(self):
        EngineConfig()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="fixed-consumption"):
            EngineConfig(policy="bogus")

    def test_reject_policy_not_addressable(self):
        """'reject' consumes data-dependent chunks: engine refuses it."""
        with pytest.raises(ValueError, match="fixed-consumption"):
            EngineConfig(policy="reject")

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(shards=0)
        with pytest.raises(ValueError):
            EngineConfig(lanes=0)
        with pytest.raises(ValueError):
            EngineConfig(ring_slots=-1)
        with pytest.raises(ValueError):
            EngineConfig(fetch_timeout_s=0)

    def test_config_and_overrides_exclusive(self):
        with pytest.raises(TypeError, match="either a config"):
            ShardedEngine(EngineConfig(), shards=2)


class TestBulkStream:
    def test_matches_serial_reference(self):
        ref = serial_reference(CONFIG, 200)
        with ShardedEngine(CONFIG) as eng:
            np.testing.assert_array_equal(eng.generate(200), ref)

    def test_round_is_shard_major(self):
        """Round r of the stream = shard 0's round r, then shard 1's."""
        banks = [
            stream_bank(derive_seed(CONFIG.seed, i), CONFIG.lanes)
            for i in range(2)
        ]
        with ShardedEngine(CONFIG) as eng:
            round0 = eng.generate(16)
        np.testing.assert_array_equal(round0[:8], banks[0].next_round())
        np.testing.assert_array_equal(round0[8:], banks[1].next_round())

    def test_negative_count_rejected(self):
        with ShardedEngine(CONFIG) as eng:
            with pytest.raises(ValueError):
                eng.generate(-1)

    def test_serve_only_pool_has_no_bulk_stream(self):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=0)
        with ShardedEngine(cfg) as eng:
            with pytest.raises(RuntimeError, match="serve-only"):
                eng.generate(16)
            # ...but named streams still work.
            assert eng.fetch_stream(5, 4, 12, 0).size == 12


class TestNamedStreams:
    def test_matches_in_process_bank(self):
        """A stream fetch is byte-identical to the same bank run locally."""
        seed, lanes = 41, 16
        local = stream_bank(seed, lanes)
        with ShardedEngine(CONFIG) as eng:
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 100, 0), local.generate(100)
            )

    def test_explicit_offset_fetch(self):
        """fetch_stream(offset=...) serves any slice, even backwards."""
        seed, lanes = 41, 16
        local = stream_bank(seed, lanes)
        ref = local.generate(200)
        with ShardedEngine(CONFIG) as eng:
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 50, offset=120), ref[120:170]
            )
            # Onward from where that read ended.
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 30, offset=170), ref[170:200]
            )
            # Backwards slice: no replay machinery, just a seek.
            np.testing.assert_array_equal(
                eng.fetch_stream(seed, lanes, 40, offset=7), ref[7:47]
            )

    def test_streams_are_independent(self):
        with ShardedEngine(CONFIG) as eng:
            a = eng.fetch_stream(6, 8, 64, 0)
            b = eng.fetch_stream(7, 8, 64, 0)
        assert not np.array_equal(a, b)

    def test_routing_is_stable(self):
        with ShardedEngine(CONFIG) as eng:
            assert eng.stream_shard(6) == 0
            assert eng.stream_shard(7) == 1

    def test_bad_lane_count_rejected(self):
        with ShardedEngine(CONFIG) as eng:
            with pytest.raises(ValueError):
                eng.fetch_stream(1, 0, 16, 0)


class TestServeIntegration:
    def test_engine_backed_session_matches_in_process(self):
        """Moving a session onto the shard pool changes no values."""
        local = SessionStream("alice", master_seed=9, lanes=16)
        with ShardedEngine(
            EngineConfig(seed=9, shards=2, lanes=8, ring_slots=0)
        ) as eng:
            remote = SessionStream("alice", master_seed=9, lanes=16,
                                   engine=eng)
            np.testing.assert_array_equal(
                np.concatenate([remote.generate(40), remote.generate(60)]),
                local.generate(100),
            )
            assert remote.health == "OK"
            desc = remote.describe()
        assert desc["active_source"].startswith("engine-shard-")
        assert desc["words_served"] == 100

    @pytest.mark.parametrize("failover", [True, False])
    def test_worker_and_session_build_the_same_feed(self, failover):
        """With failover on or off, an engine stream's feed is the chain
        and retry budget an in-process session builds, so the two fail
        over (or fail) at the same word."""
        local = SessionStream("alice", master_seed=9, failover=failover)
        streams = OrderedDict()
        _serve_request(("fetch", [(local.seed, local.lanes, 0, 0)], None),
                       streams, EngineConfig(failover=failover),
                       lambda *reply: None)
        feed = streams[(local.seed, local.lanes)].source
        assert [type(s) for s in feed.chain] == [
            type(s) for s in local.supervisor.chain
        ]
        assert len(feed.chain) == (3 if failover else 1)
        assert feed.policy == local.supervisor.policy


class TestFailure:
    def test_dead_shard_raises_worker_failed(self):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           fetch_timeout_s=3.0)
        # The dead shard's ring may already hold every round it wrote;
        # ask for one round more than the ring can hold, so the request
        # must reach the dead worker.
        rounds = cfg.ring_slots * _effective_burst(cfg) + 1
        with ShardedEngine(cfg) as eng:
            eng.generate(16)
            kill_shard(eng, 1)
            with pytest.raises(WorkerFailedError) as err:
                eng.generate(rounds * cfg.shards * cfg.lanes)
            assert err.value.worker_index == 1
            assert eng.health == "FAILED"

    def test_bulk_restart_is_deterministic(self):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           fetch_timeout_s=3.0, auto_restart=True)
        # As above: the post-kill request outgrows the dead shard's
        # ring, so only a respawned worker can answer it.
        rounds = cfg.ring_slots * _effective_burst(cfg) + 1
        n_tail = rounds * cfg.shards * cfg.lanes
        ref = serial_reference(cfg, 50 + n_tail)
        with ShardedEngine(cfg) as eng:
            head = eng.generate(50)
            kill_shard(eng, 1)
            tail = eng.generate(n_tail)
            assert eng.restarts >= 1
            assert eng.health == "DEGRADED"
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)

    def test_worker_killed_holding_its_locks_leaves_the_pool_working(
            self, tmp_path):
        """A worker can be SIGKILLed while it holds a multiprocessing
        lock -- inside ``Event.is_set()``, say -- and whoever needs that
        lock next (another worker, a respawn, ``close``) then blocks for
        good.  (Workers that polled a shared stop Event froze here.)  So
        no lock, Event or Queue may reach a serve-only worker: the
        stream's first worker lists every one in its arguments, or held
        by them, and kills itself.  The list must be empty, the shard
        respawned, the stream exact, and close must return."""
        seed, lanes = 41, 8
        died = tmp_path / "died"
        shared = (mp_sync.SemLock, mp_sync.Event, mp_sync.Condition,
                  mp_queues.Queue)

        def factory(feed_seed):
            if feed_seed == seed and not died.exists():
                died.write_text(" ".join(
                    type(obj).__name__
                    for arg in mp.current_process()._args
                    for obj in (arg, *getattr(arg, "__dict__", {}).values())
                    if isinstance(obj, shared)
                ))
                os.kill(os.getpid(), signal.SIGKILL)
            return SplitMix64Source(feed_seed)

        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=0,
                           fetch_timeout_s=3.0, auto_restart=True,
                           source_factory=factory)
        local = stream_bank(seed, lanes)
        with ShardedEngine(cfg) as eng:
            got = eng.fetch_stream(seed, lanes, 64, 0)
            assert eng.restarts == 1
        assert died.read_text() == "", "shared locks reached the worker"
        np.testing.assert_array_equal(got, local.generate(64))

    @pytest.mark.timeout(30)
    def test_work_that_kills_every_worker_is_sent_to_one_respawn_only(self):
        """A read that kills each worker it reaches goes to one fresh
        worker, then gets its WorkerFailedError; the shard is respawned
        once more for later work, which it serves exactly."""
        cfg = EngineConfig(shards=1, lanes=8, ring_slots=0,
                           auto_restart=True,
                           source_factory=killed_by_stream_13)
        with ShardedEngine(cfg) as eng:
            with pytest.raises(WorkerFailedError,
                               match="died serving a fetch"):
                eng.fetch_stream(13, 8, 8, 0)
            assert eng.restarts == 2
            np.testing.assert_array_equal(
                eng.fetch_stream(14, 8, 8, 0), stream_bank(14, 8).generate(8)
            )

    @pytest.mark.parametrize("auto_restart", [True, False])
    def test_late_reply_never_answers_a_later_request(self, auto_restart):
        """A worker that misses ``fetch_timeout_s`` is handled as dead:
        killed, its pipes dropped unread.  Stop the worker, let a fetch
        of stream 7 time out, resume the worker, then fetch stream 9.
        The reply to stream 7, written late, must never come back as
        stream 9's words (in a server that would hand one session's
        words to another).  Under ``auto_restart`` both fetches are
        served exactly by a respawned worker; without it, both raise
        ``WorkerFailedError`` naming the timeout, and so does every
        later request to the shard."""
        cfg = EngineConfig(shards=1, lanes=64, ring_slots=0,
                           fetch_timeout_s=1.0, auto_restart=auto_restart)

        def ref(seed):
            return stream_bank(seed, 64).generate(100)

        with ShardedEngine(cfg) as eng:
            pid = eng._procs[0].pid
            os.kill(pid, signal.SIGSTOP)
            try:
                if auto_restart:
                    got7 = eng.fetch_stream(7, 64, 100, offset=0)
                else:
                    with pytest.raises(WorkerFailedError,
                                       match="timed out") as err:
                        eng.fetch_stream(7, 64, 100, offset=0)
                    assert err.value.worker_index == 0
            finally:
                if running(pid):
                    os.kill(pid, signal.SIGCONT)
            assert not running(pid), "the silent worker was left running"
            if auto_restart:
                got9 = eng.fetch_stream(9, 64, 100, offset=0)
                np.testing.assert_array_equal(got7, ref(7))
                np.testing.assert_array_equal(got9, ref(9))
                assert eng.restarts == 1
                assert eng.health == "DEGRADED"
            else:
                for _ in range(2):
                    with pytest.raises(WorkerFailedError, match="timed out"):
                        eng.fetch_stream(9, 64, 100, offset=0)
                assert eng.health == "FAILED"

    @pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                        reason="reads process states from /proc")
    def test_workers_exit_with_the_process_that_started_them(
            self, repro_env):
        """SIGKILL the process that owns an engine: its workers must
        leave by themselves within 5 s.  (They used to wait for a
        request that could no longer come, forever, so every kill -9 of
        an engine-backed server leaked its workers.)  Shard 0 is idle
        when its parent dies; shard 1 is left writing a 2 MiB reply
        that nobody reads, which waits on a full pipe."""
        script = (
            "import time\n"
            "from repro.engine import EngineConfig, ShardedEngine\n"
            "eng = ShardedEngine(EngineConfig(seed=1, shards=2, lanes=64,"
            " ring_slots=0, auto_restart=True))\n"
            "eng.fetch_stream(3, 64, 10, 0)\n"
            "eng._send(1, 'fetch', [(3, 64, 0, 1 << 18)])\n"
            "print(*(p.pid for p in eng._procs), flush=True)\n"
            "time.sleep(60)\n"
        )
        owner = subprocess.Popen([sys.executable, "-c", script],
                                 env=repro_env, stdout=subprocess.PIPE,
                                 text=True)
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
        finally:
            owner.kill()
            owner.wait()
            owner.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 5
        try:
            while any(map(running, pids)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not any(map(running, pids)), \
                "engine workers outlived the process that started them"
        finally:
            for pid in filter(running, pids):
                os.kill(pid, signal.SIGKILL)

    def test_worker_killed_part_way_through_a_reply(self, tmp_path):
        """A reply bigger than the pipe buffer is written only as fast
        as the parent reads it.  Shard 0's stream takes 2.5 s to open,
        so the parent is still waiting on shard 0 when a timer inside
        shard 1 kills it at 1 s, its 1 MiB reply written up to the
        pipe's capacity.  The parent must notice the death and respawn
        the shard, not block forever on the rest of the reply, and both
        spans must be exact."""
        slow, big, lanes = 40, 41, 64  # owned by shards 0 and 1
        n_big = 1 << 17

        def factory(feed_seed):
            mark = tmp_path / str(feed_seed)
            if feed_seed in (slow, big) and not mark.exists():
                mark.touch()
                if feed_seed == slow:
                    time.sleep(2.5)
                else:
                    threading.Timer(
                        1.0, os.kill, (os.getpid(), signal.SIGKILL)
                    ).start()
            return SplitMix64Source(feed_seed)

        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=0,
                           auto_restart=True, source_factory=factory)
        refs = [
            stream_bank(s, lanes).generate(n)
            for s, n in ((slow, 16), (big, n_big))
        ]
        with ShardedEngine(cfg) as eng:
            started = time.monotonic()
            got = eng.fetch_spans([(slow, lanes, 0, 16),
                                   (big, lanes, 0, n_big)])
            elapsed = time.monotonic() - started
            assert eng.restarts == 1
        assert (tmp_path / str(big)).exists()
        assert elapsed < 10, f"fetch took {elapsed:.1f}s"
        for values, ref in zip(got, refs):
            np.testing.assert_array_equal(values, ref)

    def test_dead_worker_noticed_long_before_the_deadline(self):
        """A dead shard is noticed between short wait slices, not when
        ``fetch_timeout_s`` (60 s by default) runs out: the named-stream
        wait and the bulk ring wait both respawn it at once, and the
        values stay exact."""
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           auto_restart=True)
        seed, lanes = 40, 8  # shard 0 owns the stream
        local = stream_bank(seed, lanes)
        rounds = cfg.ring_slots * _effective_burst(cfg) + 1
        n_tail = rounds * cfg.shards * cfg.lanes
        ref = serial_reference(cfg, 16 + n_tail)
        with ShardedEngine(cfg) as eng:
            head = eng.generate(16)
            stream_head = eng.fetch_stream(seed, lanes, 30, 0)
            started = time.monotonic()
            kill_shard(eng, 0)
            stream_tail = eng.fetch_stream(seed, lanes, 70, 30)
            kill_shard(eng, 1)
            tail = eng.generate(n_tail)
            elapsed = time.monotonic() - started
            assert eng.restarts == 2
        assert elapsed < 10, f"respawns took {elapsed:.1f}s"
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)
        np.testing.assert_array_equal(
            np.concatenate([stream_head, stream_tail]), local.generate(100)
        )

    def test_stream_restart_is_deterministic(self):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=0,
                           fetch_timeout_s=3.0, auto_restart=True)
        seed, lanes = 40, 8  # seed % 2 == 0: shard 0 owns the stream
        local = stream_bank(seed, lanes)
        with ShardedEngine(cfg) as eng:
            head = eng.fetch_stream(seed, lanes, 30, 0)
            kill_shard(eng, 0)
            tail = eng.fetch_stream(seed, lanes, 70, 30)
        np.testing.assert_array_equal(
            np.concatenate([head, tail]), local.generate(100)
        )


class TestRingBursts:
    """Burst framing is transport-only: values, restarts and geometry
    must be invariant in ``ring_burst``."""

    def test_effective_burst_geometry(self):
        assert _effective_burst(
            EngineConfig(seed=1, shards=1, lanes=8, ring_burst=8)
        ) == 8
        # Huge lanes: capped so one burst still fits a worker message.
        big = EngineConfig(
            seed=1, shards=1, lanes=MAX_ROUND_WORDS // 2, ring_burst=8
        )
        assert _effective_burst(big) == 2
        # Never below one round per slot.
        giant = EngineConfig(
            seed=1, shards=1, lanes=MAX_ROUND_WORDS, ring_burst=8
        )
        assert _effective_burst(giant) == 1

    def test_bad_burst_rejected(self):
        with pytest.raises(ValueError):
            EngineConfig(seed=1, shards=1, lanes=8, ring_burst=0)

    @pytest.mark.parametrize("burst", [1, 3, 8])
    def test_bulk_stream_invariant_in_burst(self, burst):
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           ring_burst=burst)
        ref = serial_reference(cfg, 200)
        with ShardedEngine(cfg) as eng:
            assert eng.describe()["ring_burst"] == burst
            np.testing.assert_array_equal(eng.generate(200), ref)

    def test_restart_mid_burst_is_deterministic(self):
        """Kill a shard part-way through consuming a burst: the revived
        worker must resume at the next *round*, not the next burst."""
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=2,
                           ring_burst=4, fetch_timeout_s=3.0,
                           auto_restart=True)
        ref = serial_reference(cfg, 400)
        with ShardedEngine(cfg) as eng:
            # 88 words = 5.5 rounds/shard: shard cursors stop mid-burst.
            head = eng.generate(88)
            kill_shard(eng, 1)
            tail = eng.generate(312)
            assert eng.restarts >= 1
        np.testing.assert_array_equal(np.concatenate([head, tail]), ref)


class TestIntrospection:
    def test_describe(self):
        with ShardedEngine(CONFIG) as eng:
            eng.generate(16)
            eng.fetch_stream(1, 4, 8, 0)
            doc = eng.describe()
        assert doc["shards"] == 2
        assert doc["lanes_per_shard"] == 8
        assert doc["rounds_assembled"] >= 1
        assert doc["health"] == "OK"

    def test_close_is_idempotent(self):
        eng = ShardedEngine(CONFIG)
        eng.close()
        eng.close()
        assert eng.shards_alive == [False, False]


class TestWorkerStreams:
    def test_stream_map_keeps_the_banks_used_last(self):
        """A worker keeps at most MAX_WORKER_STREAMS banks and evicts the
        least recently used; an evicted stream is rebuilt, and a read at
        a later offset equals a fresh in-process bank."""
        config = EngineConfig(shards=1, lanes=8, ring_slots=0)
        streams = OrderedDict()
        replies = []

        def read(seed, lanes, offset, n):
            _serve_request(("fetch", [(seed, lanes, offset, n)], None),
                           streams, config,
                           lambda *reply: replies.append(reply))

        read(7, 8, 0, 8)
        others = iter(range(100, 100 + 2 * MAX_WORKER_STREAMS))
        for seed in others:
            read(seed, 1, 0, 0)
            if len(streams) == MAX_WORKER_STREAMS:
                break
        read(7, 8, 8, 8)  # now the most recently used
        read(next(others), 1, 0, 0)
        assert len(streams) == MAX_WORKER_STREAMS
        assert (7, 8) in streams and (100, 1) not in streams
        for _ in range(MAX_WORKER_STREAMS - 1):
            read(next(others), 1, 0, 0)
        assert len(streams) == MAX_WORKER_STREAMS
        assert (7, 8) not in streams
        read(7, 8, 4096, 8)
        assert len(streams) == MAX_WORKER_STREAMS
        tag, metas, words = replies[-1]
        assert (tag, metas) == ("okv", [8])
        ref = stream_bank(7, 8)
        ref.seek(4096)
        np.testing.assert_array_equal(words, ref.generate(8))


class TestFetchSpans:
    def test_multi_span_round_matches_per_stream_references(self):
        """One fused fetch_spans call serves many streams across both
        shards, each byte-identical to its in-process bank."""
        streams = [(40, 8), (41, 16), (42, 8), (43, 4)]
        locals_ = {
            (seed, lanes): stream_bank(seed, lanes)
            for seed, lanes in streams
        }
        spans = [
            (seed, lanes, 0, 50 + 10 * i)
            for i, (seed, lanes) in enumerate(streams)
        ]
        with ShardedEngine(CONFIG) as eng:
            results = eng.fetch_spans(spans)
        for (seed, lanes, _off, n), got in zip(spans, results):
            assert isinstance(got, np.ndarray), got
            np.testing.assert_array_equal(
                got, locals_[(seed, lanes)].generate(n)
            )

    def test_explicit_offsets_and_word_cap(self, monkeypatch):
        """All of one shard's spans, out of offset order and together
        past the ring-burst word cap (16 MiB), come back exact in one
        reply: the cap bounds ring bursts only, never a fetch."""
        seed, lanes = 40, 64  # shard 0 owns the stream
        big = MAX_ROUND_WORDS
        local = stream_bank(seed, lanes)
        ref = local.generate(300 + big)
        with ShardedEngine(CONFIG) as eng:
            replies = []
            read = _FrameReader.__call__

            def counted(reader, timeout):
                got = read(reader, timeout)
                if got is not None:
                    replies.append(got[0])
                return got

            # Patched after the fork, so only the engine's side counts.
            monkeypatch.setattr(_FrameReader, "__call__", counted)
            results = eng.fetch_spans([
                (seed, lanes, 100, 80),
                (seed, lanes, 0, 90),
                (seed, lanes, 300, big),
            ])
        assert replies == ["okv"]
        np.testing.assert_array_equal(results[0], ref[100:180])
        np.testing.assert_array_equal(results[1], ref[0:90])
        np.testing.assert_array_equal(results[2], ref[300:])

    def test_request_bigger_than_the_pipe_buffer(self):
        """A request is written without blocking, in pieces as the worker
        reads them: 10 000 one-word spans pickle to about 120 KB, well
        over the 64 KiB pipe buffer, and still come back exact."""
        seed, lanes, n = 41, 8, 10_000
        local = stream_bank(seed, lanes)
        with ShardedEngine(CONFIG) as eng:
            got = eng.fetch_spans([(seed, lanes, k, 1) for k in range(n)])
        np.testing.assert_array_equal(np.concatenate(got), local.generate(n))

    def test_empty_and_invalid_spans(self):
        with ShardedEngine(CONFIG) as eng:
            assert eng.fetch_spans([]) == []
            with pytest.raises(ValueError):
                eng.fetch_spans([(1, 0, 0, 8)])
            with pytest.raises(ValueError):
                eng.fetch_spans([(1, 4, 0, -1)])
            # A read names its offset: no engine-side cursor continues
            # a stream.
            with pytest.raises(ValueError, match="offset"):
                eng.fetch_spans([(1, 4, None, 8)])
            with pytest.raises(ValueError, match="offset"):
                eng.fetch_spans([(1, 4, -5, 8)])

    def test_restart_mid_spans_is_deterministic(self):
        """A shard killed before a fused round is re-served exactly
        (absolute offsets make the retry byte-identical)."""
        cfg = EngineConfig(seed=3, shards=2, lanes=8, ring_slots=0,
                           fetch_timeout_s=3.0, auto_restart=True)
        seed, lanes = 40, 8  # shard 0 owns the stream
        local = stream_bank(seed, lanes)
        ref = local.generate(100)
        with ShardedEngine(cfg) as eng:
            head = eng.fetch_spans([(seed, lanes, 0, 30)])[0]
            kill_shard(eng, 0)
            tail = eng.fetch_spans(
                [(seed, lanes, 30, 40), (seed, lanes, 70, 30)]
            )
            assert eng.restarts >= 1
        np.testing.assert_array_equal(head, ref[:30])
        np.testing.assert_array_equal(tail[0], ref[30:70])
        np.testing.assert_array_equal(tail[1], ref[70:100])
