"""Tests for the benchmark's own code (not for the program it measures).

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import check  # noqa: E402
import common  # noqa: E402
import traffic  # noqa: E402
from tracer import OTHER, Span, Tracer, attribute, breakdown  # noqa: E402

common.use_program_sources()


# -- traffic -------------------------------------------------------------

def test_schedule_is_a_pure_function_of_the_seed():
    assert traffic.schedule(7, 300) == traffic.schedule(7, 300)
    assert traffic.schedule(7, 300) != traffic.schedule(8, 300)
    # A fresh interpreter (other hash seed, other process state) agrees.
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import traffic;"
        "print(json.dumps(traffic.schedule(7, 300)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(BENCH_DIR)],
        capture_output=True, text=True, check=True,
        env={"PYTHONHASHSEED": "12345"},
    )
    assert json.loads(out.stdout) == json.loads(
        json.dumps(traffic.schedule(7, 300))
    )


def test_schedule_partitions_the_pool_and_visits_every_session():
    per_conn = traffic.POOL // traffic.CONNECTIONS
    sched = traffic.schedule(3, 3 * per_conn)
    conns = [w + t for w, t in zip(sched.warmup, sched.timed)]
    seen = [{v.session for v in visits} for visits in conns]
    assert not seen[0] & seen[1]
    assert len(seen[0] | seen[1]) == traffic.POOL
    for warm, timed in zip(sched.warmup, sched.timed):
        for visits, rounds in ((warm, traffic.WARMUP_ROUNDS), (timed, 3)):
            counts = {}
            for v in visits:
                counts[v.session] = counts.get(v.session, 0) + 1
                assert len(v.requests) == traffic.REQUESTS_PER_VISIT
            assert len(counts) == per_conn
            assert set(counts.values()) == {rounds}
    reqs = [r for visits in conns for v in visits for r in v.requests]
    share = sum(r.dist is not None for r in reqs) / len(reqs)
    assert 0.2 < share < 0.3


# -- self time -----------------------------------------------------------

def _span(sid, name, start, end, parent=None, ops=("op",)):
    return Span(sid, name, start, end, parent, ops)


def test_self_time_is_span_minus_children_on_a_synthetic_tree():
    spans = [
        _span(1, "a", 1.0, 6.0),
        _span(2, "b", 2.0, 4.0, parent=1),
        _span(3, "c", 4.5, 5.5, parent=1),
        _span(4, "d", 2.5, 3.0, parent=2),
        _span(5, "e", 7.0, 9.0),
    ]
    got = attribute(0.0, 10.0, spans)
    assert got == pytest.approx({
        "a": 5.0 - 2.0 - 1.0,
        "b": 2.0 - 0.5,
        "c": 1.0,
        "d": 0.5,
        "e": 2.0,
        OTHER: 10.0 - 5.0 - 2.0,
    })
    assert sum(got.values()) == pytest.approx(10.0)


def test_overlapping_spans_are_clipped_and_never_double_charged():
    # A batch span outliving the op's reply, overlapping its framing.
    spans = [
        _span(1, "execute", 1.0, 12.0),
        _span(2, "session", 2.0, 3.0, parent=1),
        _span(3, "framing", 4.0, 5.0),
    ]
    got = attribute(0.0, 6.0, spans)
    assert sum(got.values()) == pytest.approx(6.0)
    assert got["session"] == pytest.approx(1.0)
    assert got[OTHER] == pytest.approx(1.0)


def test_breakdown_splits_shared_spans_and_averages_per_op():
    spans = [
        Span(1, "engine", 0.0, 2.0, None, ("x", "y"), n=100, k=4),
        Span(2, "framing", 2.0, 3.0, None, ("x",), n=0, k=1),
    ]
    bd = breakdown({"x": (0.0, 4.0), "y": (0.0, 2.0)}, spans)
    assert bd.ops == 2
    assert bd.op_s == pytest.approx(3.0)
    assert bd.self_s["engine"] == pytest.approx(2.0)
    assert bd.self_s["framing"] == pytest.approx(0.5)
    assert bd.self_s[OTHER] == pytest.approx(0.5)
    assert bd.counts[("engine", "n")] == pytest.approx(50.0)
    assert bd.counts[("engine", "calls")] == pytest.approx(2.0)


def test_tracer_links_parents_and_folds_same_layer_reentry():
    class Layer:
        def outer(self, n):
            return self.inner(n) + self.again(n)

        def inner(self, n):
            return n

        def again(self, n):
            return self.outer_base(n)

        def outer_base(self, n):
            return n

    tracer = Tracer()
    tracer.wrap(Layer, "outer", "top", count=lambda a, r: (a[1], 1))
    tracer.wrap(Layer, "inner", "leaf")
    tracer.wrap(Layer, "again", "top")  # same layer as its caller
    try:
        with tracer.op(0):
            assert Layer().outer(3) == 6
    finally:
        tracer.uninstall()
    by_name = {s.name: s for s in tracer.spans}
    assert sorted(by_name) == ["leaf", "op", "top"]
    assert by_name["top"].parent == by_name["op"].sid
    assert by_name["leaf"].parent == by_name["top"].sid
    assert by_name["top"].ops == by_name["leaf"].ops == (0,)
    assert by_name["top"].n == 3
    assert Layer.outer.__name__ == "outer" and not hasattr(
        Layer.outer, "__wrapped__"
    )


# -- calmest-block readings ----------------------------------------------

def test_latency_percentile_reads_the_calmest_block_it_can_support():
    import report

    # Ten samples beyond the percentile in every block, at most 8 blocks.
    assert report.latency_blocks(150, 99) == 1
    assert report.latency_blocks(150, 50) == 7
    assert report.latency_blocks(7816, 99) == 7
    assert report.latency_blocks(100_000, 50) == report.BLOCKS
    few = np.linspace(0.001, 0.1, 150)
    assert report.latency_ms(few, 99) == pytest.approx(
        np.percentile(few, 99) * 1e3
    )
    # A stall in the second of four blocks sets the whole-phase p99.
    lat = np.full(4000, 0.002)
    lat[1000:1100] = 0.030
    assert np.percentile(lat, 99) == pytest.approx(0.030)
    assert report.latency_ms(lat, 99) == pytest.approx(2.0)


def test_rate_reads_the_calmest_block():
    import report

    # 16 ops of 10 numbers, 8 blocks of two; ops 8-11 took 2 s instead
    # of 1 s.
    starts = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 17, 18, 19]
    rate = report.calmest_rate(starts, 20.0, [10] * 16)
    assert rate == pytest.approx(10.0)
    assert report.calmest_rate([0.0], 4.0, [8]) == pytest.approx(2.0)


# -- correctness checks --------------------------------------------------

def _flip(values: np.ndarray, i: int) -> np.ndarray:
    out = values.copy()
    out.view(np.uint64)[i] ^= np.uint64(1)
    return out


def test_bulk_local_check_flags_one_flipped_value():
    from repro.core.parallel import ParallelExpanderPRNG

    prefix = ParallelExpanderPRNG(num_threads=64, seed=5).generate(300)
    assert check.bulk_local(5, 64, prefix) == 0
    assert check.bulk_local(5, 64, _flip(prefix, 211)) == 1


def test_bulk_engine_check_flags_one_flipped_value():
    from repro.bitsource.glibc import GlibcRandom
    from repro.engine import EngineConfig, ShardedEngine

    config = EngineConfig(seed=5, shards=2, lanes=64,
                          source_factory=GlibcRandom)
    with ShardedEngine(config) as engine:
        prefix = engine.generate(300)
    assert check.bulk_engine(config, prefix) == 0
    assert check.bulk_engine(config, _flip(prefix, 77)) == 1


def _served_log(seed: int, lanes: int):
    from repro.serve import SessionStream

    log = []
    for sid in ("bench-000", "bench-001"):
        stream = SessionStream(sid, master_seed=seed, lanes=lanes)
        ops = [check.Served(None, 40, None, stream.generate(40))]
        values, words = stream.variates(
            traffic.VARIATE_DIST, 30, traffic.VARIATE_PARAMS
        )
        ops.append(check.Served(traffic.VARIATE_DIST, 30,
                                traffic.VARIATE_PARAMS, values, words))
        ops.append(check.Served(None, 20, None, stream.generate(20)))
        log.append((sid, ops))
    return log


@pytest.mark.parametrize("op_index", [0, 1, 2])
def test_serve_check_flags_one_flipped_value(op_index):
    log = _served_log(9, 16)
    assert check.serve(9, 16, log) == 0
    sid, ops = log[1]
    ops[op_index] = ops[op_index]._replace(
        values=_flip(ops[op_index].values, 3)
    )
    assert check.serve(9, 16, log) == 1


def test_serve_check_runs_in_a_process_of_its_own():
    log = _served_log(9, 16)
    sid, ops = log[1]
    ops[0] = ops[0]._replace(values=_flip(ops[0].values, 3))
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "check.py")],
        input=pickle.dumps(check.pack_log(9, 16, log)),
        capture_output=True, env=common.child_env(), check=True, timeout=120,
    )
    assert int(out.stdout) == 1


def test_serve_check_flags_a_wrong_word_offset():
    log = _served_log(9, 16)
    sid, ops = log[0]
    ops[1] = ops[1]._replace(words=ops[1].words + 1)
    assert check.serve(9, 16, log) == 1


# -- the command ---------------------------------------------------------

def test_benchmark_json_names_every_metric_the_code_prints():
    import report

    doc = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        report.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == \
        report.PER_LAYER
    import run

    assert {w["name"] for w in doc["workloads"]} <= set(run.WORKLOADS)


def test_command_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bulk-local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
