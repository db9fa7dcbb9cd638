"""Bulk workloads, from the benchmark's side.

Starts the process under test (``bulk_child.py``) for each cold start
and for the timed phase, and checks the first buffer it delivered
against the program's reference path.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

import numpy as np

import check
import common
import report
from bulk_child import BULK, ENGINE_SHARDS, THREADS, engine_config
from common import BENCH_DIR, BenchError
from tracer import breakdown, load_spans

#: Cold starts per untraced run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: Seconds a child may take before it is killed and the run fails.
CHILD_DEADLINE_S = 150


def calls_for(workload: str, seconds: float) -> int:
    spec = BULK[workload]
    return max(1, round(seconds * spec["nominal"] / spec["buffer"]))


def _start(workload: str, seed: int, work, extra=()) -> float:
    """One child: seconds from spawn to its first filled buffer."""
    err_path = work / "child.err"
    with open(err_path, "wb") as err:
        t0 = time.monotonic()
        proc = common.spawn(
            [sys.executable, str(BENCH_DIR / "bulk_child.py"),
             "--workload", workload, "--seed", str(seed), *extra],
            stdout=subprocess.PIPE, stderr=err,
        )
        try:
            with common.deadline(proc, CHILD_DEADLINE_S):
                line = proc.stdout.readline()
                ready = time.monotonic() - t0
                proc.stdout.read()
                rc = proc.wait()
        finally:
            proc.stdout.close()
            common.stop_group(proc)
    if rc != 0 or line.strip() != b"READY":
        raise BenchError(
            f"{workload} child exited {rc}: "
            + err_path.read_text(errors="replace")[-2000:]
        )
    return ready


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    calls = calls_for(workload, seconds)
    work = common.work_dir(workload, seed)
    out = work / "bulk.json"
    try:
        setup = [_start(workload, seed, work)
                 for _ in range(0 if trace else SETUP_STARTS - 1)]
        setup.append(_start(workload, seed, work, [
            "--calls", str(calls), "--trace", str(int(trace)),
            "--out", str(out),
        ]))
        doc = json.loads(out.read_text())
        prefix = np.load(out.with_suffix(".npy"))
    finally:
        common.clear_work_dir(work)

    # Checked after the timed phase, in this process.
    if workload == "bulk-local":
        wrong = check.bulk_local(seed, THREADS, prefix)
    else:
        wrong = check.bulk_engine(engine_config(seed), prefix)
    phases = [doc["untraced"]] + ([doc["traced"]] if trace else [])
    attempted = len(setup) + sum(ph["calls"] for ph in phases)
    failed = wrong + sum(ph["failed"] for ph in phases)
    result = {
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0,
        "errors": [e for ph in phases for e in ph["errors"]]
        + ["the first buffer differs from the reference"] * wrong,
        "samples": {
            "latency": calls, "setup": len(setup),
            "latency_blocks": {f"p{q}": report.latency_blocks(calls, q)
                               for q in (50, 99)},
        },
        "work": {"calls": calls, "buffer": BULK[workload]["buffer"]},
    }
    ph = doc["untraced"]
    if not trace:
        lat = ph["latencies_s"]
        result["metrics"] = {
            "numbers_per_s": report.calmest_rate(
                ph["starts_s"], ph["wall_s"],
                [BULK[workload]["buffer"]] * calls,
            ),
            "latency_p50_ms": report.latency_ms(lat, 50),
            "latency_p99_ms": report.latency_ms(lat, 99),
            "cpu_s_per_m_numbers": ph["cpu_s"] / (ph["numbers"] / 1e6),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": doc["hwm_kb"] / 1024.0,
        }
        return result

    spans = load_spans(doc["spans"])
    roots = {s.ops[0]: (s.start, s.end) for s in spans if s.name == "op"}
    layers = [s for s in spans if s.name != "op"]
    traced = doc["traced"]
    m = report.per_layer(
        breakdown(roots, layers), layers, roots, doc["registry"],
        **{
            "engine.worker_cpu_us_per_op": ph["worker_cpu_s"] / calls * 1e6,
            "engine.worker_busy_share": (
                ph["worker_cpu_s"] / (ph["wall_s"] * ENGINE_SHARDS)
                if workload == "bulk-engine" else 0.0
            ),
            "trace.overhead_share": 1.0 - (
                (traced["numbers"] / traced["wall_s"])
                / (ph["numbers"] / ph["wall_s"])
            ),
        },
    )
    result["metrics"] = m
    result["text"] = report.budget_table(m, "one generate_into call")
    return result

