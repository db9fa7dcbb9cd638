"""Exception taxonomy for the resilience layer.

Failure handling in the hybrid pipeline follows one rule: a fault is
either *absorbed* (retried, or survived by failing over to the next
source in the chain) or *surfaced* as a structured exception that says
what broke and what had already been tried.  Nothing hangs and nothing
disappears into a bare pool traceback.

This module has no dependencies so that any layer (bit sources, the
buffered feed, the scheduler, the sharded engine) can raise and catch
these types without import cycles.
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "ResilienceError",
    "FeedFailedError",
    "FeedTimeoutError",
    "InjectedFault",
    "WorkerFailedError",
]


class ResilienceError(RuntimeError):
    """Base class for structured pipeline-failure exceptions."""


class FeedFailedError(ResilienceError):
    """The bit feed can no longer produce words.

    Raised by a :class:`~repro.bitsource.buffered.BufferedFeed` consumer
    when the producer thread died, and by a
    :class:`~repro.resilience.supervised.SupervisedFeed` when the retry
    budget is exhausted on the last source of the failover chain.  The
    original failure is attached both as ``cause`` and as the standard
    ``__cause__`` chain.
    """

    def __init__(self, message: str, cause: Optional[BaseException] = None):
        super().__init__(message)
        self.cause = cause
        if cause is not None:
            self.__cause__ = cause


class FeedTimeoutError(FeedFailedError):
    """A consumer wait on the feed exceeded its configured deadline.

    Distinct from :class:`FeedFailedError` proper because the producer
    may still be alive (merely too slow); callers that want to treat
    "dead" and "late" differently can catch this subclass first.
    """


class InjectedFault(ResilienceError):
    """A deliberate failure raised by :class:`FaultyBitSource`.

    Carries the injection site so tests and reports can distinguish
    injected faults from organic ones.
    """

    def __init__(self, message: str, call_index: int = -1):
        super().__init__(message)
        self.call_index = call_index


class WorkerFailedError(ResilienceError):
    """A :class:`~repro.engine.ShardedEngine` shard's worker process
    died or missed its deadline, or failed a request.

    Attributes
    ----------
    worker_index : int
        The failed shard.
    """

    def __init__(self, message: str, worker_index: int = -1):
        super().__init__(message)
        self.worker_index = worker_index
