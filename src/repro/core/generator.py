"""The on-demand expander-walk PRNG (Algorithms 1 and 2 of the paper).

:class:`ExpanderWalkPRNG` is the single-stream generator: one walker on
the Gabber-Galil graph whose ``get_next_rand()`` performs a fresh
``l = 64``-step walk and returns the destination's 64-bit vertex id --
the direct analogue of one GPU thread servicing ``GetNextRand()`` calls.

The many-thread bank, :class:`repro.core.parallel.ParallelExpanderPRNG`,
runs that same walk once per lane, so this generator *is* a one-lane
bank: its walk, state and initialization all live there, and only the
scalar conveniences are added here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bitsource.base import BitSource
from repro.core.expander import GabberGalilExpander
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.walk import DEFAULT_WALK_LENGTH
from repro.utils.bits import u01_from_u64

__all__ = ["ExpanderWalkPRNG", "DEFAULT_WALK_LENGTH"]


class ExpanderWalkPRNG(ParallelExpanderPRNG):
    """On-demand PRNG from random walks on an expander graph.

    A :class:`~repro.core.parallel.ParallelExpanderPRNG` with one lane;
    ``seed``, ``graph``, ``bit_source``, ``walk_length`` and ``policy``
    mean what they mean there.

    Examples
    --------
    >>> prng = ExpanderWalkPRNG(seed=7)
    >>> value = prng.get_next_rand()      # a fresh 64-bit number, on demand
    >>> 0 <= value < 2**64
    True
    """

    def __init__(
        self,
        seed: int = 0,
        graph: Optional[GabberGalilExpander] = None,
        bit_source: Optional[BitSource] = None,
        walk_length: int = DEFAULT_WALK_LENGTH,
        policy: str = "reject",
    ):
        super().__init__(
            num_threads=1,
            seed=seed,
            graph=graph,
            bit_source=bit_source,
            walk_length=walk_length,
            policy=policy,
        )

    def get_next_rand(self) -> int:
        """Walk ``l`` steps and return the destination vertex id (on demand)."""
        return int(self.next_round()[0])

    def next_batch(self, n: int) -> np.ndarray:
        """``n`` consecutive on-demand numbers from this single stream."""
        return self.generate(n)

    def random(self, n: Optional[int] = None):
        """Uniform float(s) in [0, 1) (53-bit resolution)."""
        if n is None:
            return float(u01_from_u64(np.uint64(self.get_next_rand()))[0])
        return super().random(n)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi)`` via unbiased rejection."""
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        span = hi - lo
        limit = (2**64 // span) * span
        while True:
            v = self.get_next_rand()
            if v < limit:
                return lo + (v % span)

    @property
    def position(self) -> tuple:
        """Current walk vertex ``(x, y)``."""
        return int(self._state.x[0]), int(self._state.y[0])
