"""Shared helpers for the benchmark harness."""

from __future__ import annotations

import os
import pathlib
from typing import Optional

from repro.baselines.hybrid_adapter import HybridPRNG
from repro.obs.export import write_json_record
from repro.quality.stats import BatteryResult

#: Walker lanes for quality-grade hybrid runs (bulk-generation friendly).
QUALITY_THREADS = 1 << 16

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def quality_hybrid(seed: int = 1) -> HybridPRNG:
    """The hybrid PRNG configured for high-volume battery runs."""
    return HybridPRNG(seed=seed, num_threads=QUALITY_THREADS)


def battery_row(result: BatteryResult) -> list:
    """One table row: generator, passed, KS D."""
    return [result.generator, result.pass_string, f"{result.ks_d:.4f}"]


def safe_name(name: str) -> str:
    """Filesystem-safe slug for a report/benchmark name."""
    return (
        name.lower().replace(" ", "_").replace("/", "-").replace(":", "")
        .replace("(", "").replace(")", "")
    )


def blas_thread_count() -> int:
    """Threads the BLAS pool will use for the blocked FEED matmuls.

    Resolution order: an actual pool introspection via ``threadpoolctl``
    when present, then the conventional env pins
    (``OMP_NUM_THREADS``/``OPENBLAS_NUM_THREADS``/``MKL_NUM_THREADS``),
    then the host's core count -- the default most BLAS builds use.
    """
    try:  # pragma: no cover - optional dependency
        from threadpoolctl import threadpool_info

        sizes = [
            info.get("num_threads", 0)
            for info in threadpool_info()
            if info.get("user_api") == "blas"
        ]
        if sizes:
            return max(sizes)
    except ImportError:
        pass
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        val = os.environ.get(var)
        if val:
            try:
                return int(val.split(",")[0])
            except ValueError:
                continue
    return os.cpu_count() or 1


def host_env() -> dict:
    """Provenance fields every benchmark record should carry.

    A throughput number is meaningless without the cores it could use
    and the BLAS pool width behind the blocked FEED -- regressions diff
    these records across hosts.  ``backend`` is always ``"numpy"``; the
    key stays because record readers (``perfbench``) expect it.
    """
    return {
        "backend": "numpy",
        "host_cpu_count": os.cpu_count() or 1,
        "blas_threads": blas_thread_count(),
    }


def emit_bench_record(
    name: str,
    fields: Optional[dict] = None,
    metrics: Optional[dict] = None,
) -> pathlib.Path:
    """Write ``benchmarks/results/BENCH_<name>.json`` via the obs exporter.

    One JSON object per file, sharing the encoder (and therefore the
    schema conventions) of :mod:`repro.obs.export`'s JSONL events, so
    downstream tooling can consume run traces and benchmark records
    uniformly.  ``fields`` are free-form metadata; ``metrics`` is a flat
    name -> number dict.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    record = {"type": "bench", "name": name}
    if fields:
        record.update(fields)
    if metrics:
        record["metrics"] = dict(metrics)
    return write_json_record(
        RESULTS_DIR / f"BENCH_{safe_name(name)}.json", record
    )
