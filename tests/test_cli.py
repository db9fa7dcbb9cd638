"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import obs
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate"])
        assert args.n == 10 and args.format == "hex"

    def test_unknown_generator_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["quality", "--generator", "nope"])


class TestGenerate:
    def test_hex_output(self, capsys):
        assert main(["generate", "-n", "3", "--threads", "64"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("0x") and len(line) == 18 for line in lines)

    def test_int_output(self, capsys):
        main(["generate", "-n", "2", "--format", "int", "--threads", "64"])
        for line in capsys.readouterr().out.strip().splitlines():
            assert 0 <= int(line) < 2**64

    def test_float_output(self, capsys):
        main(["generate", "-n", "5", "--format", "float", "--threads", "64"])
        vals = [float(v) for v in capsys.readouterr().out.split()]
        assert all(0 <= v < 1 for v in vals)

    def test_deterministic_by_seed(self, capsys):
        main(["generate", "-n", "2", "--seed", "9", "--threads", "64"])
        first = capsys.readouterr().out
        main(["generate", "-n", "2", "--seed", "9", "--threads", "64"])
        assert capsys.readouterr().out == first

    def test_large_n_streams_every_line(self, capsys):
        assert main(["generate", "-n", "100000", "--format", "int"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 100_000
        assert all(0 <= int(line) < 2**64 for line in (lines[0], lines[-1]))


class TestGenerateObservability:
    def test_trace_and_metrics_cover_pipeline_stages(self, capsys, tmp_path):
        """Acceptance: ``generate -n 100000 --trace out.jsonl --metrics``
        emits JSONL spans covering feed/transfer/generate plus a
        Prometheus-style metrics dump."""
        out = tmp_path / "out.jsonl"
        rc = main(["generate", "-n", "100000", "--trace", str(out),
                   "--metrics"])
        assert rc == 0
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 100_000

        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["format"] == "repro-obs-v1"
        assert records[0]["command"] == "generate"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert {"feed", "transfer", "generate"} <= span_names
        counters = {
            r["name"]: r["value"] for r in records if r["type"] == "counter"
        }
        assert counters["repro_prng_numbers_total"] >= 100_000
        assert counters["repro_feed_refills_total"] >= 1

        prom = captured.err
        assert "# TYPE repro_prng_numbers_total counter" in prom
        assert "# TYPE repro_feed_queue_depth gauge" in prom

    def test_traced_output_identical_to_plain(self, capsys, tmp_path):
        main(["generate", "-n", "50", "--seed", "7", "--threads", "64"])
        plain = capsys.readouterr().out
        main(["generate", "-n", "50", "--seed", "7", "--threads", "64",
              "--trace", str(tmp_path / "t.jsonl")])
        assert capsys.readouterr().out == plain

    def test_observability_off_after_run(self, tmp_path):
        main(["generate", "-n", "5", "--threads", "64",
              "--trace", str(tmp_path / "t.jsonl")])
        assert not obs.metrics_enabled()
        assert not obs.tracing_enabled()


class TestStats:
    def test_prints_stage_report(self, capsys):
        assert main(["stats", "-n", "20000"]) == 0
        out = capsys.readouterr().out
        assert "pipeline stages" in out
        assert "feed" in out and "generate" in out
        assert "buffered feed" in out

    def test_json_report(self, capsys):
        assert main(["stats", "-n", "20000", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["plan"]["total_numbers"] == 20_000
        assert {"feed", "transfer", "generate"} <= set(report["stages"])
        assert report["feed"]["words_consumed"] > 0
        assert report["prediction"]["total_ns"] > 0
        assert report["sentinel"]["words_seen"] == 20_000
        assert report["sentinel"]["words_sampled"] == 20_000

    def test_trace_file_written(self, capsys, tmp_path):
        out = tmp_path / "stats.jsonl"
        assert main(["stats", "-n", "20000", "--trace", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["command"] == "stats"
        assert any(r.get("name") == "plan" for r in records)


class TestSentinel:
    @pytest.mark.parametrize("profile,rc,verdict,line", [
        (None, 0, "STAT_OK", "all checks clean"),
        ("biased", 1, "STAT_BAD", "FLAGGED watch: STAT_BAD"),
    ], ids=["clean", "biased"])
    def test_watch(self, profile, rc, verdict, line, capsys):
        argv = ["sentinel", "--check", "watch", "-n", "65536", "--json"]
        assert main(argv + (["--profile", profile] if profile else [])) == rc
        captured = capsys.readouterr()
        watch = json.loads(captured.out)["watch"]
        assert watch["verdict"] == verdict
        assert watch["words_seen"] == 65536
        assert line in captured.err


class TestPlatform:
    def test_reports_throughput(self, capsys):
        assert main(["platform", "-n", "1000000"]) == 0
        out = capsys.readouterr().out
        assert "GNumbers/s" in out and "GPU idle" in out


class TestFigures:
    @pytest.mark.parametrize("which", ["fig3", "fig5", "fig6"])
    def test_prints_table(self, which, capsys):
        assert main(["figures", which]) == 0
        assert "Figure" in capsys.readouterr().out


class TestChaos:
    def test_absorbing_profile_exits_zero_with_report(self, capsys):
        rc = main(["chaos", "--profile", "failover", "-n", "50000",
                   "--threads", "256"])
        captured = capsys.readouterr()
        assert rc == 0
        assert "resilience" in captured.out
        assert "survived profile 'failover'" in captured.err
        assert "failovers" in captured.err

    def test_flaky_profile_reports_retries(self, capsys):
        rc = main(["chaos", "--profile", "flaky", "-n", "100000",
                   "--threads", "256"])
        captured = capsys.readouterr()
        assert rc == 0
        report = captured.out
        assert "retries" in report
        assert "health" in report

    def test_fatal_profile_exits_nonzero_with_diagnosis(self, capsys):
        rc = main(["chaos", "--profile", "fatal", "-n", "50000",
                   "--threads", "256"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAILED under profile 'fatal'" in captured.err
        assert "FeedFailedError" in captured.err
        # The report still renders, with the failure section included.
        assert "failure" in captured.out

    def test_json_report(self, capsys):
        rc = main(["chaos", "--profile", "none", "-n", "20000",
                   "--threads", "256", "--json"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["resilience"]["health"] == "OK"
        assert report["resilience"]["failovers"] == 0

    def test_async_feed_flag(self, capsys):
        rc = main(["chaos", "--profile", "failover", "-n", "50000",
                   "--threads", "256", "--async-feed"])
        assert rc == 0
        assert "survived" in capsys.readouterr().err

    def test_trace_export(self, capsys, tmp_path):
        out = tmp_path / "chaos.jsonl"
        rc = main(["chaos", "--profile", "failover", "-n", "50000",
                   "--threads", "256", "--trace", str(out)])
        assert rc == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["command"] == "chaos"
        assert records[0]["profile"] == "failover"
        counters = {
            r["name"] for r in records if r["type"] == "counter"
        }
        assert "repro_feed_failovers_total" in counters

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--profile", "nope"])

    def test_observability_off_after_run(self):
        main(["chaos", "--profile", "none", "-n", "5000",
              "--threads", "256"])
        assert not obs.metrics_enabled()
        assert not obs.tracing_enabled()


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        from repro.cli import package_version

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"repro {package_version()}"

    def test_package_version_is_a_version_string(self):
        from repro.cli import package_version

        version = package_version()
        assert version and version[0].isdigit()


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8731
        assert args.seed == 1
        assert args.rate is None
        assert args.duration is None

    def test_fetch_defaults(self):
        args = build_parser().parse_args(["fetch"])
        assert args.port == 8731
        assert args.n == 10
        assert args.format == "hex"
        assert args.retries == 5
        assert not args.status


class TestFetchCommand:
    """``repro fetch`` against a live in-process server."""

    @pytest.fixture()
    def server(self):
        from repro.serve import ServeConfig, serve_background

        with serve_background(ServeConfig(master_seed=77)) as handle:
            yield handle

    def test_fetch_hex(self, server, capsys):
        rc = main(["fetch", "--port", str(server.port),
                   "--session", "cli", "-n", "3"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.startswith("0x") and len(line) == 18 for line in lines)

    def test_fetch_reproduces_session_stream(self, server, capsys):
        from repro.serve.session import SessionStream

        main(["fetch", "--port", str(server.port),
              "--session", "cli-int", "-n", "4", "--format", "int"])
        got = [int(v) for v in capsys.readouterr().out.split()]
        want = SessionStream("cli-int", master_seed=77).generate(4)
        assert got == [int(v) for v in want]

    def test_fetch_float(self, server, capsys):
        rc = main(["fetch", "--port", str(server.port),
                   "--session", "cli-f", "-n", "5", "--format", "float"])
        assert rc == 0
        vals = [float(v) for v in capsys.readouterr().out.split()]
        assert all(0 <= v < 1 for v in vals)

    def test_fetch_status(self, server, capsys):
        rc = main(["fetch", "--port", str(server.port), "--status"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["server"]["health"] == "OK"
        assert "queue_depth" in doc["server"]

    def test_fetch_connection_refused_exits_nonzero(self, capsys):
        # An unused ephemeral port: connecting must fail cleanly, not hang.
        import socket

        spare = socket.socket()
        spare.bind(("127.0.0.1", 0))
        dead_port = spare.getsockname()[1]
        spare.close()
        rc = main(["fetch", "--port", str(dead_port), "-n", "1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_fetch_server_error_exits_3(self, capsys):
        from repro.serve import ServeConfig, serve_background

        with serve_background(ServeConfig(max_fetch=10)) as handle:
            rc = main(["fetch", "--port", str(handle.port),
                       "--session", "big", "-n", "100"])
        assert rc == 3
        assert "fetch count" in capsys.readouterr().err


def start_serve(env, *args):
    """``repro serve --port 0 ARGS`` as a subprocess run in ``env``;
    returns it and the port it reports listening on."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *args],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    for line in proc.stderr:
        if "listening on" in line:
            return proc, int(line.split()[4].rsplit(":", 1)[1])
    proc.wait()
    raise AssertionError(f"repro serve exited with {proc.returncode}")


def live_children(pid):
    """Pids of the live (not zombie) children of ``pid``, from /proc."""
    kids = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (FileNotFoundError, ProcessLookupError):
            continue
        if int(ppid) == pid and state != "Z":
            kids.append(int(entry))
    return kids


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="finds engine workers through /proc")
class TestServeProcess:
    """A real ``repro serve`` process backed by engine workers."""

    def test_sigterm_to_a_respawned_worker_leaves_the_server_up(
            self, repro_env):
        """A worker respawned after the server's loop installed its
        SIGTERM handler once inherited that handler and the loop's
        wakeup fd, so a SIGTERM to it stopped the whole server.  Now it
        just ends the worker.  FETCH, SIGKILL the worker, FETCH (which
        respawns it), SIGTERM the new worker, FETCH: the server is
        still up and every FETCH is the in-process session's words.
        Each FETCH opens a new session, whose empty readahead buffer
        sends it to the engine."""
        from repro.serve import ServeClient
        from repro.serve.session import SessionStream

        def fetch(session):
            with ServeClient("127.0.0.1", port, session=session) as client:
                got = client.fetch(64)
            np.testing.assert_array_equal(
                got, SessionStream(session, master_seed=5).generate(64)
            )

        server, port = start_serve(repro_env, "--engine-shards", "1",
                                   "--seed", "5")
        try:
            fetch("before")
            for sig in (signal.SIGKILL, signal.SIGTERM):
                [worker] = live_children(server.pid)
                os.kill(worker, sig)
                deadline = time.monotonic() + 10
                while worker in live_children(server.pid) \
                        and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert server.poll() is None, "the server stopped"
                fetch(f"after-{sig.name}")
            assert server.poll() is None, "the server stopped"
        finally:
            server.terminate()
            _, err = server.communicate(timeout=30)
        assert server.returncode == 0, err
        assert "stopped after 3 requests" in err

    def test_shutdown_line_reports_the_health_the_server_had(
            self, repro_env):
        """The exit line reads the health before the engine is closed,
        so a healthy engine-backed server says OK, not DEGRADED."""
        from repro.serve import ServeClient

        server, port = start_serve(repro_env, "--engine-shards", "2",
                                   "--duration", "3")
        try:
            with ServeClient("127.0.0.1", port, session="health") as client:
                client.fetch(16)
            _, err = server.communicate(timeout=30)
        finally:
            server.kill()
        assert server.returncode == 0, err
        assert "stopped after 1 requests" in err
        assert "health OK" in err


class TestQuality:
    def test_smallcrush_on_fast_generator(self, capsys):
        rc = main([
            "quality", "--generator", "Mersenne Twister",
            "--battery", "smallcrush", "--scale", "0.1",
        ])
        out = capsys.readouterr().out
        assert "SmallCrush" in out
        assert rc in (0, 1)


class TestGenerateDist:
    """``generate --dist``: typed variates from the CLI."""

    def test_normal_output(self, capsys):
        rc = main(["generate", "-n", "5", "--dist", "normal",
                   "--params", "mean=1,std=2", "--threads", "64"])
        assert rc == 0
        vals = [float(v) for v in capsys.readouterr().out.split()]
        assert len(vals) == 5 and all(np.isfinite(vals))

    def test_integers_output_and_bounds(self, capsys):
        rc = main(["generate", "-n", "50", "--dist", "integers",
                   "--params", "lo=-5,hi=5", "--threads", "64"])
        assert rc == 0
        vals = [int(v) for v in capsys.readouterr().out.split()]
        assert all(-5 <= v < 5 for v in vals)

    def test_matches_dist_stream(self, capsys):
        """The CLI emits exactly DistStream's variates for that word
        stream (printed %.17g, which round-trips float64)."""
        from repro.baselines.hybrid_adapter import HybridPRNG
        from repro.dist import DistStream

        main(["generate", "-n", "7", "--dist", "uniform01",
              "--seed", "5", "--threads", "64"])
        got = np.array([float(v) for v in capsys.readouterr().out.split()])
        want = DistStream(
            HybridPRNG(seed=5, num_threads=64).u64_array
        ).uniform01(7)
        np.testing.assert_array_equal(
            got.view(np.uint64), want.view(np.uint64)
        )

    def test_deterministic_by_seed(self, capsys):
        argv = ["generate", "-n", "4", "--dist", "exponential",
                "--params", "rate=2", "--seed", "6", "--threads", "64"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first

    def test_bad_params_exit_2(self, capsys):
        rc = main(["generate", "-n", "2", "--dist", "normal",
                   "--params", "bogus=1"])
        assert rc == 2
        assert "unknown parameter" in capsys.readouterr().err

    def test_params_without_dist_exit_2(self, capsys):
        rc = main(["generate", "-n", "2", "--params", "mean=1"])
        assert rc == 2
        assert "--params requires --dist" in capsys.readouterr().err

    def test_integers_require_bounds(self, capsys):
        rc = main(["generate", "-n", "2", "--dist", "integers"])
        assert rc == 2
        assert "lo" in capsys.readouterr().err


class TestFetchDist:
    """``repro fetch --dist`` against a live in-process server."""

    @pytest.fixture()
    def server(self):
        from repro.serve import ServeConfig, serve_background

        with serve_background(ServeConfig(master_seed=77)) as handle:
            yield handle

    def test_fetch_variates_reproduce_session_stream(self, server, capsys):
        from repro.serve.session import SessionStream

        rc = main(["fetch", "--port", str(server.port),
                   "--session", "cli-v", "-n", "6", "--dist", "normal",
                   "--params", "mean=0,std=1"])
        assert rc == 0
        got = np.array([float(v) for v in capsys.readouterr().out.split()])
        want, _ = SessionStream("cli-v", master_seed=77).variates(
            "normal", 6, {"mean": 0.0, "std": 1.0}
        )
        np.testing.assert_array_equal(
            got.view(np.uint64), want.view(np.uint64)
        )

    def test_fetch_integers(self, server, capsys):
        rc = main(["fetch", "--port", str(server.port),
                   "--session", "cli-vi", "-n", "20", "--dist", "integers",
                   "--params", "lo=0,hi=10"])
        assert rc == 0
        vals = [int(v) for v in capsys.readouterr().out.split()]
        assert len(vals) == 20 and all(0 <= v < 10 for v in vals)

    def test_fetch_bad_params_exit_2(self, server, capsys):
        rc = main(["fetch", "--port", str(server.port), "-n", "2",
                   "--dist", "integers", "--params", "lo=1"])
        assert rc == 2
        assert "requires" in capsys.readouterr().err
