"""Batch scheduler: picks the block size and drives hybrid generation.

Combines the performance model (pick ``S`` near Figure 5's optimum for
the requested ``N``) with the functional generator (actually produce the
numbers).  This is the component an application embeds: it owns a
:class:`~repro.core.parallel.ParallelExpanderPRNG`, an optionally
asynchronous :class:`~repro.bitsource.buffered.BufferedFeed`, and reports
both real outputs and the simulated platform timing for the same plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.bitsource.base import BitSource
from repro.bitsource.buffered import DEFAULT_GET_TIMEOUT, BufferedFeed
from repro.bitsource.glibc import GlibcRandom
from repro.core.parallel import ParallelExpanderPRNG
from repro.gpusim.calibration import PipelineCosts
from repro.gpusim.pipeline import PipelineConfig, PipelineResult, simulate_pipeline
from repro.hybrid.throughput import optimal_batch_size
from repro.obs import metrics as obs_metrics
from repro.obs.report import RunReport
from repro.obs.trace import span
from repro.resilience.supervised import (
    RetryPolicy,
    SupervisedFeed,
    default_failover_chain,
)
from repro.utils.checks import check_positive

__all__ = ["GenerationPlan", "HybridScheduler"]


@dataclass(frozen=True)
class GenerationPlan:
    """A resolved decision on how to generate ``total_numbers``."""

    total_numbers: int
    batch_size: int
    num_threads: int
    iterations: int

    @classmethod
    def from_config(cls, config: PipelineConfig) -> "GenerationPlan":
        return cls(
            total_numbers=config.total_numbers,
            batch_size=config.batch_size,
            num_threads=config.num_threads,
            iterations=config.iterations,
        )


class HybridScheduler:
    """Plans and executes hybrid random-number generation.

    Parameters
    ----------
    seed : int
        Seed for the CPU feed, passed through to ``GlibcRandom``
        unchanged (glibc itself defines ``srand(0)`` as ``srand(1)``,
        and :class:`GlibcRandom` reproduces that bit-exactly).
    costs : PipelineCosts, optional
        Platform cost model used for planning/simulation.
    bit_source : BitSource, optional
        Feed override (default: glibc ``rand()``); wrapped in a
        :class:`BufferedFeed` to model the CPU->GPU queue.
    async_feed : bool
        Produce feed batches on a real background thread.
    max_threads : int
        Cap on simultaneously simulated walker lanes (memory bound).
    resilient : bool
        Supervise the feed: wrap the bit source in a
        :class:`~repro.resilience.supervised.SupervisedFeed` with the
        stock failover chain (or the ``failover`` sources given), so
        feed faults are retried and degraded instead of fatal.
    failover : sequence of BitSource, optional
        Fallback sources to switch through when the primary's retry
        budget is exhausted (implies ``resilient``).
    retry_policy : RetryPolicy, optional
        Retry budget/backoff for the supervised feed (implies
        ``resilient``).
    feed_timeout : float or None
        Consumer-wait deadline on the buffered feed; ``None`` waits
        forever (producer death is still detected immediately).
    """

    def __init__(
        self,
        seed: int = 1,
        costs: Optional[PipelineCosts] = None,
        bit_source: Optional[BitSource] = None,
        async_feed: bool = False,
        max_threads: int = 1 << 17,
        resilient: bool = False,
        failover: Optional[Sequence[BitSource]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        feed_timeout: Optional[float] = DEFAULT_GET_TIMEOUT,
    ):
        check_positive("max_threads", max_threads)
        self.costs = costs or PipelineCosts()
        # Pass the seed through untouched: the glibc semantics for seed 0
        # (treated as 1) live inside GlibcRandom, not here.  The previous
        # ``seed or 1`` silently remapped 0 a second time and would have
        # masked any future source whose seed-0 stream is distinct.
        resilient = resilient or failover is not None or retry_policy is not None
        self.supervisor: Optional[SupervisedFeed] = None
        if resilient:
            if bit_source is None and failover is None:
                chain = default_failover_chain(seed)
            else:
                primary = bit_source if bit_source is not None \
                    else GlibcRandom(seed)
                chain = [primary, *(failover or [])]
            raw: BitSource = SupervisedFeed(
                chain, policy=retry_policy, jitter_seed=seed
            )
            self.supervisor = raw
        else:
            raw = bit_source if bit_source is not None else GlibcRandom(seed)
        self.feed = BufferedFeed(
            raw, batch_words=1 << 15, prefetch=2, async_producer=async_feed,
            get_timeout=feed_timeout,
        )
        self.max_threads = int(max_threads)
        self._prng: Optional[ParallelExpanderPRNG] = None

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def plan(self, total_numbers: int, batch_size: Optional[int] = None
             ) -> GenerationPlan:
        """Choose a batch size (model-optimal unless given) and lay out work."""
        check_positive("total_numbers", total_numbers)
        with span("plan", total_numbers=total_numbers):
            s = batch_size or optimal_batch_size(total_numbers, costs=self.costs)
            config = PipelineConfig(
                total_numbers=total_numbers, batch_size=s, costs=self.costs
            )
            return GenerationPlan.from_config(config)

    def predict(self, plan: GenerationPlan) -> PipelineResult:
        """Simulated platform timing for ``plan`` (the paper's testbed)."""
        with span("predict", total_numbers=plan.total_numbers):
            config = PipelineConfig(
                total_numbers=plan.total_numbers,
                batch_size=plan.batch_size,
                costs=self.costs,
            )
            return simulate_pipeline(config)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def generate(self, plan: GenerationPlan) -> np.ndarray:
        """Actually produce the numbers for ``plan`` (values, not timing).

        Lane count is capped at ``max_threads``; more threads in the plan
        than lanes simply means lanes are reused round-robin, which
        cannot change the emitted stream's statistics.
        """
        out = np.empty(plan.total_numbers, dtype=np.uint64)
        self.generate_into(plan, out)
        return out

    def generate_into(self, plan: GenerationPlan, out: np.ndarray) -> None:
        """Zero-copy :meth:`generate`: fill ``out`` with ``plan``'s numbers.

        ``out`` must be a one-dimensional, C-contiguous, writeable
        ``uint64`` array of size ``plan.total_numbers``; rounds are
        written straight from walker state into it.
        """
        if out.size != plan.total_numbers:
            raise ValueError(
                f"out has {out.size} slots, plan produces "
                f"{plan.total_numbers} numbers"
            )
        lanes = min(plan.num_threads, self.max_threads)
        obs_metrics.gauge(
            "repro_scheduler_lanes", "Walker lanes used by the scheduler"
        ).set(lanes)
        if self._prng is None or self._prng.num_threads != lanes:
            self._prng = ParallelExpanderPRNG(
                num_threads=lanes, bit_source=self.feed
            )
        self._prng.generate_into(out, batch_size=plan.batch_size)

    def run(self, total_numbers: int, batch_size: Optional[int] = None):
        """Plan, simulate, and generate; returns (values, plan, prediction)."""
        plan = self.plan(total_numbers, batch_size)
        prediction = self.predict(plan)
        values = self.generate(plan)
        obs_metrics.counter(
            "repro_scheduler_runs_total", "Completed scheduler runs"
        ).inc()
        return values, plan, prediction

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def report(
        self,
        plan: Optional[GenerationPlan] = None,
        prediction: Optional[PipelineResult] = None,
    ) -> RunReport:
        """Structured run report: metrics + traced stages + feed stats.

        With a ``prediction`` attached the report's ``stage_shares()``
        compares the *measured* FEED/TRANSFER/GENERATE self-time shares
        against the :mod:`repro.gpusim` busy-time shares for the same
        plan -- the real-pipeline counterpart of Figure 4.
        """
        report = RunReport(meta={"component": "HybridScheduler"})
        report.add_feed_stats(self.feed.stats)
        if self.supervisor is not None:
            resilience = self.supervisor.stats.snapshot()
            resilience["health"] = self.supervisor.health.name
            resilience["active_source"] = self.supervisor.active_source.name
            report.add_section("resilience", resilience)
        if plan is not None:
            report.add_section("plan", {
                "total_numbers": plan.total_numbers,
                "batch_size": plan.batch_size,
                "num_threads": plan.num_threads,
                "iterations": plan.iterations,
            })
        if prediction is not None:
            report.add_prediction(prediction)
        return report

    def close(self) -> None:
        """Stop the background feed thread."""
        self.feed.close()

    def __enter__(self) -> "HybridScheduler":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
