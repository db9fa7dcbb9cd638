"""Adapter exposing the hybrid expander-walk PRNG through the PRNG interface.

This is the object the quality batteries and benchmark tables call
"Hybrid PRNG": a :class:`~repro.core.parallel.ParallelExpanderPRNG` with
the paper's parameters (glibc feed, walk length 64, unbiased neighbour
selection), emitting its 64-bit vertex ids as the output stream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import PRNG
from repro.bitsource.base import BitSource
from repro.bitsource.glibc import GlibcRandom
from repro.core.parallel import ParallelExpanderPRNG

__all__ = ["HybridPRNG"]

_U32 = np.uint32
_U64 = np.uint64

#: Walker count for quality runs: large enough for SIMD efficiency, small
#: enough that initialization stays cheap.
_DEFAULT_THREADS = 1 << 14


class HybridPRNG(PRNG):
    """The paper's generator behind the common PRNG interface."""

    name = "Hybrid PRNG"
    on_demand = True

    def __init__(
        self,
        seed: int = 1,
        num_threads: int = _DEFAULT_THREADS,
        walk_length: int = 64,
        policy: str = "reject",
        bit_source: Optional[BitSource] = None,
    ):
        self._ctor = dict(
            num_threads=num_threads, walk_length=walk_length, policy=policy
        )
        self._external_source = bit_source
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        source = self._external_source
        if source is not None:
            source.reseed(seed)
        else:
            # Seed 0 is handled inside GlibcRandom (glibc's srand(0) == srand(1)).
            source = GlibcRandom(seed)
        self.generator = ParallelExpanderPRNG(
            bit_source=source, **self._ctor
        )

    def u64_array(self, n: int) -> np.ndarray:
        """Bulk draws from the generator's canonical stream.

        ``ParallelExpanderPRNG.generate`` buffers round remainders (the
        core stream contract), so fine-grained on-demand callers (e.g.
        the photon simulator's shrinking batches) do not pay a whole
        round per call and fetch sizing cannot change the stream.
        """
        return self.generator.generate(n)

    def u64_into(self, out: np.ndarray) -> None:
        """Fill ``out`` in place with the next ``out.size`` stream values.

        Zero-copy counterpart of :meth:`u64_array` for callers that pool
        their buffers (``repro generate`` streams through one); same
        stream, same remainder behaviour: both paths route through
        ``ParallelExpanderPRNG.generate_into``.
        """
        self.generator.generate_into(out)

    def u32_array(self, n: int) -> np.ndarray:
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        nwords = (n + 1) // 2
        w = self.u64_array(nwords)
        halves = np.empty(2 * nwords, dtype=_U32)
        halves[0::2] = (w >> _U64(32)).astype(_U32)
        halves[1::2] = (w & _U64(0xFFFFFFFF)).astype(_U32)
        return halves[:n]
