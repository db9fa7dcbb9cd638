"""Metric names and units, the per-layer reduction, and the layer budget."""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

import numpy as np

from tracer import OTHER, Breakdown, Span, inclusive

END_TO_END = {
    "numbers_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "cpu_s_per_m_numbers": "s/M",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "bitsource.words_per_op": "count",
    "bitsource.self_us_per_op": "us",
    "resilience.self_us_per_op": "us",
    "resilience.retries": "count",
    "core.calls_per_op": "count",
    "core.numbers_per_op": "count",
    "core.self_us_per_op": "us",
    "engine.call_us_per_op": "us",
    "engine.ring_wait_us_per_op": "us",
    "engine.worker_cpu_us_per_op": "us",
    "engine.worker_busy_share": "share",
    "engine.spans_per_fetch": "count",
    "dist.self_us_per_op": "us",
    "dist.words_per_variate": "count",
    "sentinel.self_us_per_op": "us",
    "serve.queue_wait_us_p50": "us",
    "serve.queue_wait_us_per_op": "us",
    "serve.executor_self_us_per_op": "us",
    "serve.batch_size_mean": "count",
    "serve.readahead_hit_ratio": "share",
    "serve.prefetch_ratio": "share",
    "serve.cache_hit_ratio": "share",
    "serve.session_create_us": "us",
    "serve.session_self_us_per_op": "us",
    "serve.framing_us_per_op": "us",
    "serve.server_cpu_us_per_op": "us",
    "serve.rss_kb_per_session": "kB",
    "budget.feed_words_per_s": "1/s",
    "budget.core_numbers_per_s": "1/s",
    "budget.engine_numbers_per_s": "1/s",
    "budget.serve_numbers_per_s": "1/s",
    "trace.op_us": "us",
    "trace.other_us_per_op": "us",
    "trace.overhead_share": "share",
}

#: Layer self times per op, in budget order, with the span layer each
#: one is charged from.
SELF_TIMES = [
    ("bitsource.self_us_per_op", "bitsource"),
    ("resilience.self_us_per_op", "resilience"),
    ("core.self_us_per_op", "core"),
    ("engine.call_us_per_op", "engine"),
    ("engine.ring_wait_us_per_op", "engine.ring_wait"),
    ("dist.self_us_per_op", "dist"),
    ("sentinel.self_us_per_op", "sentinel"),
    ("serve.queue_wait_us_per_op", "serve.queue_wait"),
    ("serve.executor_self_us_per_op", "serve.execute"),
    ("serve.session_self_us_per_op", "serve.session"),
    ("serve.framing_us_per_op", "serve.framing"),
    ("trace.other_us_per_op", OTHER),
]

#: The timed ops are cut into at most this many blocks of consecutive
#: ops, and a timing is read from the calmest (see ``latency_ms``).  A
#: latency percentile uses fewer blocks when that is needed to leave at
#: least ``BEYOND`` samples beyond it in each.
BLOCKS = 8
BEYOND = 10

#: The layer self times plus ``other`` must add up to the traced mean op
#: time within this share of it.  Attribution charges every instant to
#: exactly one span, so only floating-point rounding remains.
BUDGET_TOLERANCE = 1e-6

_US = 1e6


def latency_blocks(ops: int, q: float) -> int:
    """Blocks the ``q``-th percentile of ``ops`` latencies is read over."""
    return max(1, min(BLOCKS, int(ops * (100 - q) / 100) // BEYOND))


def latency_ms(latencies: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of per-op latencies (s), in ms, read from
    the calmest stretch of the timed phase.

    ``latencies`` are in the order the ops were sent.  They are cut into
    :func:`latency_blocks` equal blocks of consecutive ops, and the
    lowest block percentile is the reading.  Other tenants of a shared
    host only ever add time -- CPU steal and stalls of a few ms hit one
    to two percent of the ops, which is where a p99 lies -- so the
    calmest block is the steadiest reading of the program's own tail,
    much as ``timeit`` keeps the fastest repeat.  With too few ops for
    two blocks this is the plain percentile of the whole phase.
    """
    lat = np.asarray(latencies, dtype=float)
    blocks = np.array_split(lat, latency_blocks(lat.size, q))
    return min(float(np.percentile(b, q)) for b in blocks) * 1e3


def calmest_rate(starts: Sequence[float], end: float,
                 counts: Sequence[int]) -> float:
    """Numbers per second in the calmest of ``BLOCKS`` equal blocks of
    consecutive ops.

    ``starts`` are the ops' start times in order, ``end`` the end of the
    last, ``counts`` the numbers each delivered.  A block runs from its
    first op's start to the next block's, so whatever the caller did in
    between (a HELLO) counts towards it.  Read like ``latency_ms``: a
    burst of steal in part of the run leaves the other blocks alone.
    """
    starts = np.asarray(starts, dtype=float)
    counts = np.asarray(counts, dtype=float)
    blocks = np.array_split(np.arange(starts.size), min(BLOCKS, starts.size))
    edges = [starts[b[0]] for b in blocks] + [end]
    return max(counts[b].sum() / (edges[i + 1] - edges[i])
               for i, b in enumerate(blocks))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(bd: Breakdown, spans: List[Span], roots: Dict,
              registry: Optional[dict] = None,
              **extra: float) -> Dict[str, float]:
    """Every per-layer metric; a layer the workload never reaches reads 0.

    Span-derived figures cover the spans of the timed ops in ``roots``
    (session construction, which belongs to no request, excepted);
    registry counters cover the traced process's whole life.  ``extra``
    carries the metrics measured outside the spans (process CPU and
    memory, client-side counts, the tracing overhead).
    """
    registry = registry or {}
    creates = [s.end - s.start for s in spans
               if s.name == "serve.session_create"]
    spans = [s for s in spans if s.ops and any(o in roots for o in s.ops)]
    m = {name: 0.0 for name in PER_LAYER}
    for name, layer in SELF_TIMES:
        m[name] = bd.self_s.get(layer, 0.0) * _US
    m["trace.op_us"] = bd.op_s * _US
    m["bitsource.words_per_op"] = bd.counts.get(("bitsource", "n"), 0.0)
    m["core.calls_per_op"] = bd.counts.get(("core", "calls"), 0.0)
    m["core.numbers_per_op"] = bd.counts.get(("core", "n"), 0.0)
    m["resilience.retries"] = float(
        registry.get("repro_feed_retries_total", 0)
    )

    fetches = [s for s in spans if s.name == "engine:fetch_spans"]
    m["engine.spans_per_fetch"] = _ratio(sum(s.k for s in fetches),
                                         len(fetches))
    waits = [s.end - s.start for s in spans if s.name == "serve.queue_wait"]
    if waits:
        m["serve.queue_wait_us_p50"] = statistics.median(waits) * _US
    batch = registry.get("repro_serve_batch_size")
    if isinstance(batch, dict):
        m["serve.batch_size_mean"] = _ratio(batch["sum"], batch["count"])
    plans = [s for s in spans if s.name == "serve.session:plan_fill"]
    m["serve.readahead_hit_ratio"] = _ratio(
        sum(1 for s in plans if s.n == 0), len(plans)
    )
    hits = registry.get("repro_serve_cache_hits_total", 0)
    misses = registry.get("repro_serve_cache_misses_total", 0)
    m["serve.cache_hit_ratio"] = _ratio(hits, hits + misses)
    if creates:
        m["serve.session_create_us"] = statistics.mean(creates) * _US

    feed_s, feed_words = inclusive(spans, "bitsource")
    core_s, core_numbers = inclusive(spans, "core")
    engine_s, engine_numbers = inclusive(spans, "engine")
    m["budget.feed_words_per_s"] = _ratio(feed_words, feed_s)
    m["budget.core_numbers_per_s"] = _ratio(core_numbers, core_s)
    m["budget.engine_numbers_per_s"] = _ratio(engine_numbers, engine_s)
    for name, value in extra.items():
        if name not in m:
            raise KeyError(f"unknown per-layer metric {name}")
        m[name] = float(value)
    return m


def budget_error(m: Dict[str, float]) -> float:
    """|sum of self times + other - op time| as a share of the op time."""
    total = sum(m[name] for name, _ in SELF_TIMES)
    return _ratio(abs(total - m["trace.op_us"]), m["trace.op_us"])


def budget_table(m: Dict[str, float], op: str) -> str:
    """The layer budget as text: each layer's rate, then its cost per op."""
    rows = [
        f"layer budget (traced; one op = {op}; "
        f"mean op {m['trace.op_us']:.1f} us)",
        f"  FEED    {m['budget.feed_words_per_s']:14.0f} words/s",
        f"  core    {m['budget.core_numbers_per_s']:14.0f} numbers/s",
        f"  engine  {m['budget.engine_numbers_per_s']:14.0f} numbers/s",
        f"  serve   {m['budget.serve_numbers_per_s']:14.0f} numbers/s",
        "  cost each layer adds per op (self time):",
    ]
    for name, _ in SELF_TIMES:
        rows.append(f"    {name:32s} {m[name]:12.1f} us")
    rows.append(
        f"    {'sum':32s} {sum(m[n] for n, _ in SELF_TIMES):12.1f} us"
        f"  (op {m['trace.op_us']:.1f} us, error "
        f"{budget_error(m):.2e}, tolerance {BUDGET_TOLERANCE:.0e})"
    )
    rows.append(f"  tracing overhead share {m['trace.overhead_share']:.4f}")
    return "\n".join(rows)
