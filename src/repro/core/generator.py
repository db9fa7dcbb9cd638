"""The on-demand expander-walk PRNG (Algorithms 1 and 2 of the paper).

:class:`ExpanderWalkPRNG` is the single-stream generator: one walker on
the Gabber-Galil graph whose ``get_next_rand()`` performs a fresh
``l = 64``-step walk and returns the destination's 64-bit vertex id --
the direct analogue of one GPU thread servicing ``GetNextRand()`` calls.

For bulk, many-threaded generation use
:class:`repro.core.parallel.ParallelExpanderPRNG`, which runs thousands of
walkers in lockstep (one NumPy lane per GPU thread).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.bitsource.base import BitSource
from repro.bitsource.glibc import GlibcRandom
from repro.core.expander import GabberGalilExpander
from repro.core.walk import WalkEngine, WalkState
from repro.utils.bits import u01_from_u64
from repro.utils.checks import check_positive

__all__ = ["ExpanderWalkPRNG", "DEFAULT_WALK_LENGTH"]

#: Walk length used throughout the paper (Section III-B).
DEFAULT_WALK_LENGTH = 64


class ExpanderWalkPRNG:
    """On-demand PRNG from random walks on an expander graph.

    Parameters
    ----------
    seed : int, optional
        Seed for the default bit source.  Ignored when ``bit_source`` is
        given already constructed.
    graph : GabberGalilExpander, optional
        Defaults to the paper's ``m = 2**32`` graph (64-bit outputs).
    bit_source : BitSource, optional
        CPU feed; defaults to :class:`~repro.bitsource.glibc.GlibcRandom`
        (the paper's choice).
    walk_length : int
        Steps per emitted number (paper: 64).
    policy : str
        Neighbour-selection policy, see :mod:`repro.core.walk`.

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
        check_positive("walk_length", walk_length)
        self.graph = graph if graph is not None else GabberGalilExpander()
        self.source = (
            bit_source if bit_source is not None else GlibcRandom(seed)
        )
        self.walk_length = int(walk_length)
        self.engine = WalkEngine(self.graph, policy=policy)
        self._state: Optional[WalkState] = None
        self.numbers_generated = 0
        self.initialize()

    # ------------------------------------------------------------------
    # Algorithm 1: InitializeGenerator
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Place the walker at a feed-chosen vertex and mix for 64 steps."""
        start = self.source.words64(1)
        self._state = self.engine.make_state(start)
        self.engine.walk(self._state, self.source, self.walk_length)
        self.numbers_generated = 0

    # ------------------------------------------------------------------
    # Algorithm 2: GetNextRand
    # ------------------------------------------------------------------

    def get_next_rand(self) -> int:
        """Walk ``l`` steps and return the destination vertex id (on demand)."""
        self.engine.walk(self._state, self.source, self.walk_length)
        self.numbers_generated += 1
        return int(self.engine.outputs(self._state)[0])

    def next_batch(self, n: int) -> np.ndarray:
        """``n`` consecutive on-demand numbers from this single stream."""
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        out = np.empty(n, dtype=np.uint64)
        for i in range(n):
            self.engine.walk(self._state, self.source, self.walk_length)
            out[i] = self.engine.outputs(self._state)[0]
        self.numbers_generated += n
        return out

    # ------------------------------------------------------------------
    # Convenience distributions
    # ------------------------------------------------------------------

    def random(self, n: Optional[int] = None):
        """Uniform float(s) in [0, 1) (53-bit resolution)."""
        if n is None:
            return float(u01_from_u64(np.uint64(self.get_next_rand()))[0])
        return u01_from_u64(self.next_batch(n))

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

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def position(self) -> tuple:
        """Current walk vertex ``(x, y)``."""
        return int(self._state.x[0]), int(self._state.y[0])

    @property
    def bits_consumed(self) -> int:
        """Feed bits consumed so far (3 per chunk draw)."""
        return 3 * self._state.chunks_consumed

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"ExpanderWalkPRNG(m={self.graph.m}, l={self.walk_length}, "
            f"policy={self.engine.policy!r}, feed={self.source.name!r})"
        )
