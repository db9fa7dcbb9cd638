"""``rand()``-style module-level API, thread-safe via thread-local streams.

The paper's motivation (Section I) is that a GPU thread should be able to
call something like ANSI C ``rand()`` and receive a fresh number on
demand.  This module is that API for Python callers: each OS thread gets
its own independent :class:`~repro.core.generator.ExpanderWalkPRNG`
stream, so concurrent callers never contend or correlate.  The ``k``-th
thread to call after ``srand(seed)`` is fed by
``SplitMix64Source(derive_seed(seed, k))``, ``k = 1, 2, ...``: which
stream a thread gets follows the order in which threads first call.

>>> from repro.core import api
>>> api.srand(1234)
>>> v = api.rand()          # 64-bit integer, on demand
>>> u = api.random()        # float in [0, 1)
"""

from __future__ import annotations

import threading
from typing import Optional

from repro.bitsource.counter import SplitMix64Source
from repro.core.generator import ExpanderWalkPRNG
from repro.core.streams import derive_seed

__all__ = ["srand", "rand", "random", "randint", "get_thread_generator"]

_local = threading.local()
_seed_lock = threading.Lock()
_global_seed = 0x9E3779B9
# Epoch bumps on every srand() so existing streams rebuild; the stream
# counter hands each new per-thread generator a unique substream index
# (thread idents are recycled by the OS, so they cannot be used alone).
_epoch = 0
_stream_counter = 0


def srand(seed: int) -> None:
    """Set the global seed.  Existing per-thread streams are discarded."""
    global _global_seed, _epoch, _stream_counter
    with _seed_lock:
        _global_seed = int(seed)
        _epoch += 1
        _stream_counter = 0


def _next_stream_seed() -> tuple:
    """Allocate a unique (epoch, substream seed) pair under the lock."""
    global _stream_counter
    with _seed_lock:
        _stream_counter += 1
        return _epoch, derive_seed(_global_seed, _stream_counter)


def get_thread_generator() -> ExpanderWalkPRNG:
    """The calling thread's private generator (created on first use)."""
    gen: Optional[ExpanderWalkPRNG] = getattr(_local, "generator", None)
    with _seed_lock:
        current_epoch = _epoch
    if gen is None or getattr(_local, "epoch", None) != current_epoch:
        epoch, seed = _next_stream_seed()
        gen = ExpanderWalkPRNG(bit_source=SplitMix64Source(seed))
        _local.generator = gen
        _local.epoch = epoch
    return gen


def rand() -> int:
    """Next on-demand 64-bit random integer for this thread's stream."""
    return get_thread_generator().get_next_rand()


def random() -> float:
    """Next uniform float in [0, 1) for this thread's stream."""
    return get_thread_generator().random()


def randint(lo: int, hi: int) -> int:
    """Uniform integer in ``[lo, hi)`` for this thread's stream."""
    return get_thread_generator().randint(lo, hi)
