"""Supervised bit feeds: retries, failover chains, and a health machine.

The paper's pipeline assumes the CPU FEED stage always delivers; this
module is what makes that assumption safe to rely on.  A
:class:`SupervisedFeed` fronts an ordered *failover chain* of
:class:`~repro.bitsource.base.BitSource` instances (e.g. ``GlibcRandom
-> SplitMix64Source -> OsEntropySource``) and guarantees that
``words64(n)`` either returns ``n`` words or raises a structured
:class:`~repro.resilience.errors.FeedFailedError` -- never hangs, never
silently truncates.

Per request, the active source gets ``RetryPolicy.max_retries`` retries
with exponential backoff and *deterministic* jitter (a SplitMix64 stream
over the retry counter, so backoff schedules replay exactly).  When the
budget is exhausted the feed fails over to the next source in the chain
and records the switch point; when the chain is exhausted it transitions
to ``FAILED`` and raises.

Health is a three-state machine exported through :mod:`repro.obs`:

``OK``        never needed a retry;
``DEGRADED``  absorbed at least one fault (sticky -- the stream already
              contains a discontinuity or a delay);
``FAILED``    the whole chain is exhausted; every further request raises.

With no faults occurring the feed is value-transparent: the fast path is
one delegated call, so output is byte-identical to the unwrapped primary
source (guarded by tests and `bench_core_throughput`).
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.bitsource.base import BitSource
from repro.bitsource.counter import SplitMix64Source, splitmix64
from repro.bitsource.glibc import GlibcRandom
from repro.bitsource.os_entropy import OsEntropySource
from repro.core.parallel import AddressableExpanderPRNG
from repro.core.streams import derive_seed
from repro.core.walk import DEFAULT_WALK_LENGTH
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.resilience.errors import FeedFailedError

__all__ = [
    "FeedHealth",
    "RetryPolicy",
    "SupervisorStats",
    "SupervisedFeed",
    "STREAM_RETRY_POLICY",
    "default_failover_chain",
    "stream_bank",
    "stream_feed",
]


class FeedHealth(enum.IntEnum):
    """Health state machine of a supervised feed (exported as a gauge)."""

    OK = 0
    DEGRADED = 1
    FAILED = 2


@dataclass(frozen=True)
class RetryPolicy:
    """Retry budget and backoff shape for one source of the chain.

    ``max_retries`` is the per-request budget on the *active* source:
    after that many consecutive failed attempts the feed fails over.
    Backoff for attempt ``k`` (1-based) is
    ``min(cap, base * 2**(k-1))`` scaled by ``1 + jitter * (u - 0.5)``
    with ``u`` drawn from a deterministic SplitMix64 stream.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.005
    backoff_cap_s: float = 0.25
    jitter: float = 0.5

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff times must be >= 0")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, attempt: int, u: float) -> float:
        """Backoff before retry ``attempt`` (1-based), jittered by ``u``."""
        base = min(self.backoff_cap_s, self.backoff_base_s * 2 ** (attempt - 1))
        return base * (1.0 + self.jitter * (u - 0.5))


@dataclass
class SupervisorStats:
    """Counters and the event log of one :class:`SupervisedFeed`."""

    requests: int = 0
    words_served: int = 0
    retries: int = 0
    failovers: int = 0
    short_reads: int = 0

    def __post_init__(self):
        self._lock = threading.Lock()
        #: One dict per failover: which source died, which took over,
        #: at which output word index, and why.
        self.failover_events: List[dict] = []

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "requests": self.requests,
                "words_served": self.words_served,
                "retries": self.retries,
                "failovers": self.failovers,
                "short_reads": self.short_reads,
                "failover_events": [dict(e) for e in self.failover_events],
            }


class SupervisedFeed(BitSource):
    """Failover chain of bit sources behind one never-hanging interface.

    Parameters
    ----------
    sources : BitSource or sequence of BitSource
        The failover chain, primary first.  A single source means
        "retries only, no failover".
    policy : RetryPolicy, optional
        Per-source retry budget and backoff shape.
    jitter_seed : int
        Seed of the deterministic backoff-jitter stream.
    sleep : callable, optional
        Backoff sleeper; tests inject a recorder to assert the schedule
        without waiting for it.

    Notes
    -----
    Retrying re-issues the full remainder of the request against the
    active source, so a source whose ``words64`` failed *after* advancing
    internal state may skip words across the retry -- acceptable for a
    randomness feed (and deterministic for :class:`FaultyBitSource`,
    which decides faults before delegating).  After a failover the
    stream continues from the *next* source's state: reproducibility is
    per-source, and :attr:`stats` records the switch point.
    """

    def __init__(
        self,
        sources: "BitSource | Sequence[BitSource]",
        policy: Optional[RetryPolicy] = None,
        jitter_seed: int = 0,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        if isinstance(sources, BitSource):
            sources = [sources]
        chain = list(sources)
        if not chain:
            raise ValueError("failover chain needs at least one source")
        for src in chain:
            if not isinstance(src, BitSource):
                raise TypeError(f"not a BitSource: {src!r}")
        self._chain = chain
        self.policy = policy or RetryPolicy()
        self.stats = SupervisorStats()
        self._active = 0
        self._health = FeedHealth.OK
        self._jitter_seed = int(jitter_seed)
        self._jitter_calls = 0
        self._sleep = sleep if sleep is not None else time.sleep
        self.name = "supervised(" + ">".join(s.name for s in chain) + ")"
        self._set_health(FeedHealth.OK)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def health(self) -> FeedHealth:
        return self._health

    @property
    def active_source(self) -> BitSource:
        """The source currently serving requests."""
        return self._chain[min(self._active, len(self._chain) - 1)]

    @property
    def chain(self) -> List[BitSource]:
        return list(self._chain)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _set_health(self, health: FeedHealth) -> None:
        self._health = health
        obs_metrics.gauge(
            "repro_feed_health",
            "Supervised feed health (0 OK, 1 DEGRADED, 2 FAILED)",
        ).set(int(health))

    def _degrade(self) -> None:
        if self._health is FeedHealth.OK:
            self._set_health(FeedHealth.DEGRADED)

    def _jitter_u(self) -> float:
        """Next deterministic uniform [0,1) for backoff jitter."""
        self._jitter_calls += 1
        x = np.uint64(
            (self._jitter_seed * 0x9E3779B9 + self._jitter_calls)
            & 0xFFFFFFFFFFFFFFFF
        )
        return int(splitmix64(x)) / 2.0**64

    def _record_retry(self, attempt: int) -> None:
        with self.stats._lock:
            self.stats.retries += 1
        obs_metrics.counter(
            "repro_feed_retries_total", "Supervised feed retry attempts"
        ).inc()
        self._degrade()
        backoff = self.policy.backoff_s(attempt, self._jitter_u())
        if backoff > 0:
            with span("feed-retry", attempt=attempt, backoff_s=backoff):
                self._sleep(backoff)

    def _record_failover(self, served: int, exc: BaseException) -> None:
        old = self._chain[self._active].name
        self._active += 1
        new = self._chain[self._active].name
        with self.stats._lock:
            self.stats.failovers += 1
            self.stats.failover_events.append({
                "from": old,
                "to": new,
                "at_word": self.stats.words_served + served,
                "error": f"{type(exc).__name__}: {exc}",
            })
        obs_metrics.counter(
            "repro_feed_failovers_total", "Supervised feed source switches"
        ).inc()
        self._degrade()
        with span("feed-failover", source=new):
            pass

    def _fail(self, exc: BaseException) -> "FeedFailedError":
        self._set_health(FeedHealth.FAILED)
        snap = self.stats.snapshot()
        return FeedFailedError(
            f"{self.name}: all {len(self._chain)} source(s) exhausted "
            f"after {snap['retries']} retries and {snap['failovers']} "
            f"failovers (last error: {type(exc).__name__}: {exc})",
            cause=exc,
        )

    # ------------------------------------------------------------------
    # BitSource API
    # ------------------------------------------------------------------

    def words64(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"word count must be non-negative, got {n}")
        if self._health is FeedHealth.FAILED:
            raise FeedFailedError(f"{self.name}: feed already FAILED")
        stats = self.stats
        with stats._lock:
            stats.requests += 1
        # Fast path: one delegated call, no bookkeeping beyond counters,
        # so a healthy supervised feed is value-transparent and cheap.
        try:
            out = self._chain[self._active].words64(n)
            if out.size == n:
                with stats._lock:
                    stats.words_served += n
                return out
        except Exception as exc:
            return self._words64_slow(n, None, 1, exc)
        return self._words64_slow(n, out, 0, None)

    def _words64_slow(
        self,
        n: int,
        partial: Optional[np.ndarray],
        attempt: int,
        exc: Optional[BaseException],
    ) -> np.ndarray:
        """Assemble ``n`` words across retries, short reads and failovers."""
        parts: List[np.ndarray] = []
        served = 0
        if partial is not None and partial.size:
            parts.append(partial)
            served = int(partial.size)
            with self.stats._lock:
                self.stats.short_reads += 1
            self._degrade()
        if exc is not None:
            if attempt > self.policy.max_retries:
                self._maybe_failover(served, exc)  # raises when exhausted
                attempt = 0
            else:
                self._record_retry(attempt)
        while served < n:
            try:
                chunk = self._chain[self._active].words64(n - served)
            except Exception as err:  # noqa: BLE001 - supervisor boundary
                attempt += 1
                if attempt > self.policy.max_retries:
                    self._maybe_failover(served, err)
                    attempt = 0
                    continue
                self._record_retry(attempt)
                continue
            if chunk.size == 0:
                # A source that returns nothing forever must not spin:
                # treat an empty read as a failed attempt.
                attempt += 1
                if attempt > self.policy.max_retries:
                    self._maybe_failover(
                        served, FeedFailedError("source returned 0 words")
                    )
                    attempt = 0
                    continue
                self._record_retry(attempt)
                continue
            if chunk.size < n - served:
                with self.stats._lock:
                    self.stats.short_reads += 1
                self._degrade()
            else:
                attempt = 0
            parts.append(chunk)
            served += int(chunk.size)
        with self.stats._lock:
            self.stats.words_served += n
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _maybe_failover(self, served: int, exc: BaseException):
        """Advance the chain or raise; returns only if a failover happened."""
        if self._active + 1 >= len(self._chain):
            raise self._fail(exc)
        self._record_failover(served, exc)

    @property
    def seekable(self) -> bool:
        return self.active_source.seekable

    def seek(self, word_offset: int) -> None:
        """Delegate the jump to the active source.

        Offsets name positions in the *active* source's stream.  Before
        any failover that is the supervised stream itself; after a
        failover the stream identity has already changed (health is
        DEGRADED) and seeks address the fallback's stream instead --
        callers that need reproducible offsets should reseed to restore
        the primary.
        """
        self.active_source.seek(word_offset)

    def reseed(self, seed: int) -> None:
        """Reseed every source (per-source derived seeds), reset the chain.

        Source ``i`` is reseeded with ``splitmix64(seed + i)`` for
        ``i > 0`` and ``seed`` itself for the primary, so chain members
        never share a stream.  Health returns to ``OK`` and the primary
        becomes active again.
        """
        for i, src in enumerate(self._chain):
            src.reseed(seed if i == 0 else int(splitmix64(np.uint64(
                (seed + i) & 0xFFFFFFFFFFFFFFFF))))
        self._active = 0
        self._jitter_calls = 0
        self._set_health(FeedHealth.OK)


def default_failover_chain(seed: int = 1) -> List[BitSource]:
    """The stock chain: paper-faithful primary, fast fallback, OS entropy.

    ``GlibcRandom(seed)`` (the paper's feed) backed by an independent
    ``SplitMix64Source`` substream, with ``OsEntropySource`` as the last
    resort (non-deterministic, but the run report records the switch).
    """
    fallback_seed = int(splitmix64(np.uint64((seed + 1) & 0xFFFFFFFFFFFFFFFF)))
    return [
        GlibcRandom(seed),
        SplitMix64Source(fallback_seed),
        OsEntropySource(),
    ]


#: Retry budget of every named stream's feed: fast, bounded backoff so a
#: flaky feed never stalls a serve batch or an engine round for long.
STREAM_RETRY_POLICY = RetryPolicy(
    max_retries=2, backoff_base_s=0.001, backoff_cap_s=0.01
)


def stream_feed(
    primary: BitSource, seed: int, failover: bool = True
) -> SupervisedFeed:
    """The supervised feed of the named stream whose feed seed is ``seed``.

    ``primary`` first, then (with ``failover``) an independent
    ``SplitMix64Source(derive_seed(seed, 1))`` and OS entropy last,
    always under :data:`STREAM_RETRY_POLICY`.  Without ``failover`` the
    primary is still retried, but nothing stands behind it.
    """
    chain = [primary]
    if failover:
        chain += [SplitMix64Source(derive_seed(seed, 1)), OsEntropySource()]
    return SupervisedFeed(chain, policy=STREAM_RETRY_POLICY, jitter_seed=seed)


def stream_bank(
    seed: int,
    lanes: int,
    source_factory: Optional[Callable[[int], BitSource]] = None,
    failover: bool = True,
    walk_length: int = DEFAULT_WALK_LENGTH,
    policy: str = "lazy",
) -> AddressableExpanderPRNG:
    """The walker bank of the named stream ``(seed, lanes)``.

    Fed by :func:`stream_feed` over ``source_factory(seed)`` (default
    :class:`SplitMix64Source`); the bank's ``source`` is that
    supervised feed.  Serve sessions, engine workers and the engine's
    serial reference all build their banks here, so an in-process
    stream and an engine-served one stay byte-identical, through a
    failover too.
    """
    factory = source_factory or SplitMix64Source
    return AddressableExpanderPRNG(
        num_threads=lanes,
        bit_source=stream_feed(factory(seed), seed, failover),
        walk_length=walk_length,
        policy=policy,
    )
