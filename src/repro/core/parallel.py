"""Massively parallel generation: one NumPy lane per GPU thread.

:class:`ParallelExpanderPRNG` runs ``num_threads`` independent walkers in
SIMD lockstep, reproducing the paper's execution model: every thread owns
a walk, every ``GetNextRand`` is a 64-step walk, and a *batch size* ``S``
(Figure 5's "block size") says how many numbers each thread produces per
kernel launch.

Values are independent of ``S`` and of ``num_threads`` ordering choices:
``generate(n)`` always returns numbers grouped launch-by-launch,
thread-major within a launch, mirroring how the paper's kernel writes its
output array.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.bitsource.base import (
    BitSource,
    UnseekableSourceError,
    chunks_from_words,
)
from repro.bitsource.glibc import GlibcRandom
from repro.core.expander import GabberGalilExpander
from repro.core.walk import (
    CHUNKS_PER_WORD,
    DEFAULT_WALK_LENGTH,
    FIXED_CONSUMPTION_POLICIES,
    WalkEngine,
    WalkState,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span
from repro.utils.bits import u01_from_u64
from repro.utils.checks import check_positive

__all__ = [
    "ParallelExpanderPRNG",
    "AddressableExpanderPRNG",
    "DEFAULT_NUM_THREADS",
    "DEFAULT_BATCH_SIZE",
]

#: Default walker count; a multiple of the C1060's 240 cores x warp width.
DEFAULT_NUM_THREADS = 30 * 32 * 16  # 15360 lanes

#: The paper's empirically optimal numbers-per-thread batch (Figure 5).
DEFAULT_BATCH_SIZE = 100

#: Lane budget of one fused multi-round launch on an addressable bank.
#: Addressable rounds are independent, so K rounds of an nt-lane bank
#: can walk as one (K * nt)-lane bank; this caps K * nt so the fused
#: state and its scratch stay cache-sized.  A pure batching knob: it
#: cannot change emitted values, only how many rounds share one kernel
#: sweep.
FUSED_LAUNCH_LANES = 1 << 16


class ParallelExpanderPRNG:
    """Bank of independent expander walkers emitting 64-bit numbers.

    Parameters
    ----------
    num_threads : int
        Walker lanes (GPU threads).
    seed : int
        Seed for the default glibc feed.  Ignored when ``bit_source`` is
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
    >>> prng = ParallelExpanderPRNG(num_threads=256, seed=3)
    >>> vals = prng.generate(1000)
    >>> vals.dtype, len(vals)
    (dtype('uint64'), 1000)
    """

    def __init__(
        self,
        num_threads: int = DEFAULT_NUM_THREADS,
        seed: int = 0,
        graph: Optional[GabberGalilExpander] = None,
        bit_source: Optional[BitSource] = None,
        walk_length: int = DEFAULT_WALK_LENGTH,
        policy: str = "reject",
        fused: bool = True,
    ):
        check_positive("num_threads", num_threads)
        check_positive("walk_length", walk_length)
        self.num_threads = int(num_threads)
        self.graph = graph if graph is not None else GabberGalilExpander()
        self.source = (
            bit_source if bit_source is not None else GlibcRandom(seed)
        )
        self.walk_length = int(walk_length)
        # ``fused`` selects the fused walk kernel (default) or the
        # legacy reference kernel; the stream is identical either way
        # -- benchmarks use the flag to compare the two.
        self.engine = WalkEngine(self.graph, policy=policy, fused=fused)
        self._state: Optional[WalkState] = None
        self.numbers_generated = 0
        self.initialize()

    # ------------------------------------------------------------------
    # Algorithm 1, vectorized over all threads
    # ------------------------------------------------------------------

    def initialize(self) -> None:
        """Give every thread a feed-chosen start vertex and a 64-step mix."""
        obs_metrics.gauge(
            "repro_prng_lanes", "Walker lanes in the parallel generator"
        ).set(self.num_threads)
        with span("generate", init=True, lanes=self.num_threads):
            starts = self.source.words64(self.num_threads)
            self._state = self.engine.make_state(starts)
            self.engine.walk(self._state, self.source, self.walk_length)
        self.numbers_generated = 0
        #: Numbers produced by the last round but not yet handed out.
        #: Part of the stream contract: the stream is one lane-major
        #: round sequence and ``generate`` slices it, so fetch sizing
        #: cannot change which numbers a caller sees.
        self._remainder = np.empty(0, dtype=np.uint64)

    # ------------------------------------------------------------------
    # Bulk generation
    # ------------------------------------------------------------------

    def next_round(self) -> np.ndarray:
        """One ``GetNextRand`` per thread: ``num_threads`` fresh numbers.

        This is the raw round primitive: it advances the round stream
        directly and neither consumes nor clears :meth:`generate`'s
        buffered round remainder.
        """
        steps_before = self._state.steps_taken
        chunks_before = self._state.chunks_consumed
        with span("generate", lanes=self.num_threads):
            self.engine.walk(self._state, self.source, self.walk_length)
            out = self.engine.outputs(self._state)
        self.numbers_generated += self.num_threads
        obs_metrics.counter(
            "repro_prng_numbers_total", "64-bit numbers emitted"
        ).inc(self.num_threads)
        obs_metrics.counter(
            "repro_prng_rounds_total", "GetNextRand rounds executed"
        ).inc()
        obs_metrics.counter(
            "repro_prng_steps_total", "Walker steps taken (all lanes)"
        ).inc(self._state.steps_taken - steps_before)
        obs_metrics.counter(
            "repro_prng_feed_bits_total", "Feed bits consumed (3 per chunk)"
        ).inc(3 * (self._state.chunks_consumed - chunks_before))
        return out

    def _launch_into(self, out: np.ndarray, num_rounds: int) -> None:
        """One kernel launch: ``num_rounds`` full rounds under one span.

        Writes the launch's numbers round-by-round, thread-major within
        each round, directly into ``out`` (size ``num_rounds *
        num_threads``) -- the same stream :meth:`next_round` walks, so
        launch grouping cannot change values, only tracing granularity.
        No intermediate per-round arrays are allocated.
        """
        nt = self.num_threads
        steps_before = self._state.steps_taken
        chunks_before = self._state.chunks_consumed
        with span("generate", lanes=nt, rounds=num_rounds):
            for i in range(num_rounds):
                self.engine.walk(self._state, self.source, self.walk_length)
                self.engine.outputs_into(
                    self._state, out[i * nt : (i + 1) * nt]
                )
        self.numbers_generated += out.size
        obs_metrics.counter(
            "repro_prng_numbers_total", "64-bit numbers emitted"
        ).inc(out.size)
        obs_metrics.counter(
            "repro_prng_rounds_total", "GetNextRand rounds executed"
        ).inc(num_rounds)
        obs_metrics.counter(
            "repro_prng_steps_total", "Walker steps taken (all lanes)"
        ).inc(self._state.steps_taken - steps_before)
        obs_metrics.counter(
            "repro_prng_feed_bits_total", "Feed bits consumed (3 per chunk)"
        ).inc(3 * (self._state.chunks_consumed - chunks_before))

    def generate_into(
        self, out: np.ndarray, batch_size: Optional[int] = None
    ) -> None:
        """Fill ``out`` with the next ``out.size`` numbers of the stream.

        Zero-copy variant of :meth:`generate`: full rounds are written
        straight from the walker state into the caller's buffer, with no
        intermediate arrays.  ``out`` must be a one-dimensional,
        C-contiguous, writeable ``uint64`` array; values and remainder
        behaviour are identical to ``generate(out.size)``.
        """
        if not isinstance(out, np.ndarray):
            raise TypeError(f"out must be a numpy array, got {type(out)!r}")
        if out.dtype != np.uint64:
            raise TypeError(f"out must have dtype uint64, got {out.dtype}")
        if out.ndim != 1:
            raise ValueError(f"out must be one-dimensional, got shape {out.shape}")
        if not out.flags.c_contiguous:
            raise ValueError("out must be C-contiguous")
        if not out.flags.writeable:
            raise ValueError("out must be writeable")
        if batch_size is not None:
            check_positive("batch_size", batch_size)
        n = out.size
        pos = 0
        if self._remainder.size:
            take = min(self._remainder.size, n)
            out[:take] = self._remainder[:take]
            self._remainder = self._remainder[take:]
            pos = take
        nt = self.num_threads
        while n - pos >= nt:
            full_rounds = (n - pos) // nt
            k = 1 if batch_size is None else min(full_rounds, batch_size)
            self._launch_into(out[pos : pos + k * nt], k)
            pos += k * nt
        if pos < n:
            vals = self.next_round()
            take = n - pos
            out[pos:] = vals[:take]
            self._remainder = vals[take:].copy()

    def generate(self, n: int, batch_size: Optional[int] = None) -> np.ndarray:
        """The next ``n`` numbers of the generator's stream.

        The stream is *one* well-defined sequence (round-by-round,
        thread-major within a round) and ``generate`` slices it: a round
        remainder is buffered, never discarded, so ``generate(4);
        generate(4)`` equals ``generate(8)`` from the same seed.

        ``batch_size`` (the paper's ``S``, Figure 5) groups the work into
        kernel launches of up to ``num_threads * batch_size`` numbers --
        one tracing span per launch instead of per round.  It cannot
        change the values; ``None`` launches round by round.
        """
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        out = np.empty(n, dtype=np.uint64)
        self.generate_into(out, batch_size)
        return out

    # ------------------------------------------------------------------
    # Stream positioning
    # ------------------------------------------------------------------

    def tell(self) -> int:
        """Absolute offset of the next word :meth:`generate` will return."""
        return self.numbers_generated - self._remainder.size

    def seek(self, word_offset: int) -> None:
        """Position the stream at an absolute word offset.

        The chained construction threads walker positions through every
        round, so the only general implementation is forward replay:
        O(offset - tell()) work, and seeking backwards is impossible
        without reseeding.  :class:`AddressableExpanderPRNG` overrides
        this with an O(log offset) jump.
        """
        if word_offset < 0:
            raise ValueError(f"word offset must be non-negative, got {word_offset}")
        pos = self.tell()
        if word_offset < pos:
            raise ValueError(
                f"cannot seek backwards on a chained stream ({word_offset} < "
                f"{pos}); use AddressableExpanderPRNG for arbitrary offsets"
            )
        skip = word_offset - pos
        if not skip:
            return
        scratch = np.empty(min(skip, 1 << 16), dtype=np.uint64)
        while skip:
            take = min(skip, scratch.size)
            self.generate_into(scratch[:take])
            skip -= take

    def rounds(self, num_rounds: int) -> Iterator[np.ndarray]:
        """Yield ``num_rounds`` successive per-thread output vectors."""
        check_positive("num_rounds", num_rounds)
        for _ in range(num_rounds):
            yield self.next_round()

    # ------------------------------------------------------------------
    # Convenience distributions
    # ------------------------------------------------------------------

    def random(self, n: int) -> np.ndarray:
        """``n`` uniform floats in [0, 1)."""
        return u01_from_u64(self.generate(n))

    def integers(self, lo: int, hi: int, n: int) -> np.ndarray:
        """``n`` integers uniform in ``[lo, hi)`` (unbiased, via rejection).

        Returns ``int64`` when the range fits in it, ``uint64`` when it
        only fits unsigned (``lo >= 0`` and ``hi > 2**63``).  When the
        range size divides ``2**64`` -- any power of two, including the
        full 64-bit range -- every raw word maps uniformly and no
        rejection happens at all.
        """
        if hi <= lo:
            raise ValueError(f"empty range [{lo}, {hi})")
        range_size = hi - lo
        if range_size > 2**64:
            raise ValueError(
                f"range [{lo}, {hi}) spans more than 2**64 values"
            )
        if lo >= 0 and hi > 2**63:
            dtype = np.dtype(np.uint64)
        elif lo >= -(2**63) and hi <= 2**63:
            dtype = np.dtype(np.int64)
        else:
            raise ValueError(
                f"range [{lo}, {hi}) fits neither int64 nor uint64"
            )
        # Largest multiple of range_size representable in the draw space;
        # when range_size divides 2**64 this is 2**64 itself and the
        # rejection limit would overflow uint64 -- but then no draw can
        # be biased, so rejection is skipped entirely.
        full = (2**64 // range_size) * range_size
        reject = full != 2**64
        limit = np.uint64(full) if reject else None
        offset = np.uint64(lo & (2**64 - 1))
        out = np.empty(n, dtype=dtype)
        pos = 0
        while pos < n:
            raw = self.generate(max(n - pos, 1))
            good = raw[raw < limit] if reject else raw
            take = min(good.size, n - pos)
            vals = good[:take]
            if range_size != 2**64:
                vals = vals % np.uint64(range_size)
            with np.errstate(over="ignore"):
                vals = vals + offset  # two's-complement wrap is intended
            out[pos : pos + take] = (
                vals if dtype.kind == "u" else vals.view(np.int64)
            )
            pos += take
        return out

    def random_bits(self, n: int) -> np.ndarray:
        """``n`` output bits (uint8 0/1), MSB-first per 64-bit number."""
        nwords = (n + 63) // 64
        words = self.generate(nwords)
        return np.unpackbits(words.astype(">u8").view(np.uint8))[:n]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def bits_consumed(self) -> int:
        """Feed bits consumed so far across all threads."""
        return 3 * self._state.chunks_consumed

    @property
    def state(self) -> WalkState:
        """The underlying walker bank (read-mostly; copy before mutating)."""
        return self._state

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"{type(self).__name__}(threads={self.num_threads}, "
            f"m={self.graph.m}, l={self.walk_length}, "
            f"policy={self.engine.policy!r}, feed={self.source.name!r})"
        )


class AddressableExpanderPRNG(ParallelExpanderPRNG):
    """Offset-addressable walker bank: ``seek(offset)`` in O(log offset).

    The chained construction threads walker positions from round to
    round, so reaching word ``w`` requires replaying every round before
    it.  This variant makes each round *independent*: round ``r`` draws
    its start vertices **and** its complete chunk window from a fixed
    feed slice,

    ``[r * words_per_round, (r + 1) * words_per_round)``,
    ``words_per_round = lanes + ceil(walk_length * lanes / 21)``,

    walks ``walk_length`` steps, and emits.  Generated sequentially it
    is an ordinary stream (no seeking needed, unseekable feeds work);
    but because round ``r`` is a pure function of ``(seed, lanes,
    walk_length, policy, r)``, any offset is reachable by one feed
    ``seek`` -- O(log offset) for the glibc window-map power -- plus at
    most one round of walking.  Restart cost is independent of stream
    age, and results are cacheable by ``(stream, offset)``.

    Requires a fixed-consumption policy ('mod' or 'lazy', default
    'lazy'): 'reject' redraws a data-dependent number of chunks, so no
    round boundary can be located without replaying the stream.
    """

    def __init__(
        self,
        num_threads: int = DEFAULT_NUM_THREADS,
        seed: int = 0,
        graph: Optional[GabberGalilExpander] = None,
        bit_source: Optional[BitSource] = None,
        walk_length: int = DEFAULT_WALK_LENGTH,
        policy: str = "lazy",
        fused: bool = True,
    ):
        if policy not in FIXED_CONSUMPTION_POLICIES:
            raise ValueError(
                f"offset-addressable streams need a fixed-consumption policy "
                f"{FIXED_CONSUMPTION_POLICIES}, got {policy!r}"
            )
        super().__init__(
            num_threads=num_threads,
            seed=seed,
            graph=graph,
            bit_source=bit_source,
            walk_length=walk_length,
            policy=policy,
            fused=fused,
        )

    def initialize(self) -> None:
        """Reset to offset 0.  No init-mix walk: every round mixes afresh."""
        obs_metrics.gauge(
            "repro_prng_lanes", "Walker lanes in the parallel generator"
        ).set(self.num_threads)
        chunks_per_round = self.walk_length * self.num_threads
        self._chunk_words = -(-chunks_per_round // CHUNKS_PER_WORD)
        self.words_per_round = self.num_threads + self._chunk_words
        self._round_index = 0
        self._source_pos = 0
        self._state = None
        self.numbers_generated = 0
        self._remainder = np.empty(0, dtype=np.uint64)

    # -- round production ----------------------------------------------

    def _produce_rounds_into(self, out: np.ndarray, num_rounds: int) -> None:
        """Rounds ``[_round_index, _round_index + num_rounds)`` into ``out``.

        Because every addressable round is a pure function of its own
        feed slice, ``num_rounds`` consecutive rounds of an ``nt``-lane
        bank are *one* walk of ``num_rounds * nt`` independent lanes:
        lane ``r * nt + j`` is round ``r``'s walker ``j``, started from
        round ``r``'s start words and stepped by round ``r``'s raw
        chunks.  Lanes never interact, so the fused walk is
        bit-identical to ``num_rounds`` sequential rounds -- while the
        per-step NumPy work runs on ``num_rounds``-times-wider arrays,
        which is what makes small session banks (64 lanes) fast.
        """
        nt = self.num_threads
        wl = self.walk_length
        wpr = self.words_per_round
        base = self._round_index * wpr
        if self._source_pos != base:
            self.source.seek(base)
        words = self.source.words64(num_rounds * wpr)
        self._source_pos = base + num_rounds * wpr
        slab = words.reshape(num_rounds, wpr)
        starts = slab[:, :nt].reshape(-1)
        if self._state is None:
            self._state = self.engine.make_state(starts)
        else:
            # Keeps the cumulative counters and the kernel scratch.
            self.engine.restart(self._state, starts)
        # Per round: 21 chunks per word, first wl * nt are real, the
        # word-tail chunks are padding.  Step-major across the fused
        # lane axis: chunks[i] holds step i's raw chunk for every
        # (round, lane).
        chunks = chunks_from_words(
            np.ascontiguousarray(slab[:, nt:]).reshape(-1)
        )
        chunks = chunks.reshape(num_rounds, -1)[:, : wl * nt]
        chunks = np.ascontiguousarray(
            chunks.reshape(num_rounds, wl, nt)
            .transpose(1, 0, 2)
            .reshape(wl, num_rounds * nt)
        )
        self.engine.advance(self._state, chunks)
        self._state.chunks_consumed += wl * nt * num_rounds
        self.engine.outputs_into(self._state, out)
        self._round_index += num_rounds

    def _launch_into(self, out: np.ndarray, num_rounds: int) -> None:
        nt = self.num_threads
        per_launch = max(1, FUSED_LAUNCH_LANES // nt)
        steps_before, chunks_before = self._counters()
        with span("generate", lanes=nt, rounds=num_rounds):
            done = 0
            while done < num_rounds:
                k = min(per_launch, num_rounds - done)
                self._produce_rounds_into(out[done * nt : (done + k) * nt], k)
                done += k
        self.numbers_generated += out.size
        steps_after, chunks_after = self._counters()
        obs_metrics.counter(
            "repro_prng_numbers_total", "64-bit numbers emitted"
        ).inc(out.size)
        obs_metrics.counter(
            "repro_prng_rounds_total", "GetNextRand rounds executed"
        ).inc(num_rounds)
        obs_metrics.counter(
            "repro_prng_steps_total", "Walker steps taken (all lanes)"
        ).inc(steps_after - steps_before)
        obs_metrics.counter(
            "repro_prng_feed_bits_total", "Feed bits consumed (3 per chunk)"
        ).inc(3 * (chunks_after - chunks_before))

    def next_round(self) -> np.ndarray:
        out = np.empty(self.num_threads, dtype=np.uint64)
        self._launch_into(out, 1)
        return out

    def generate_into(
        self, out: np.ndarray, batch_size: Optional[int] = None
    ) -> None:
        """Like the base class, but launches default to the fused width.

        On an addressable bank, one launch of K rounds is one
        (K * lanes)-wide walk (see :meth:`_produce_rounds_into`), so the
        default batch size is the full :data:`FUSED_LAUNCH_LANES` budget
        instead of one round per launch.  Values are identical either
        way -- ``batch_size`` is a launch-grouping knob, never part of
        the stream identity.
        """
        if batch_size is None:
            batch_size = max(1, FUSED_LAUNCH_LANES // self.num_threads)
        super().generate_into(out, batch_size)

    def _counters(self) -> tuple:
        st = self._state
        return (st.steps_taken, st.chunks_consumed) if st is not None else (0, 0)

    # -- positioning ----------------------------------------------------

    def tell(self) -> int:
        return self._round_index * self.num_threads - self._remainder.size

    def seek(self, word_offset: int) -> None:
        """Jump to any absolute word offset without replay.

        Cost: one feed ``seek`` (O(log offset)) plus at most one round
        of walking when the offset lands inside a round -- independent
        of both the target offset and the current position.  Backwards
        seeks are allowed.
        """
        if word_offset < 0:
            raise ValueError(f"word offset must be non-negative, got {word_offset}")
        if word_offset == self.tell():
            return
        if not self.source.seekable:
            # Fail here, not on the next generate: repositioning always
            # needs a feed seek eventually, and a deferred error would
            # blame the wrong call.
            raise UnseekableSourceError(
                f"cannot seek: feed {self.source.name!r} is not seekable"
            )
        rounds, within = divmod(word_offset, self.num_threads)
        self._round_index = rounds
        self._remainder = np.empty(0, dtype=np.uint64)
        if within:
            vals = self.next_round()
            self._remainder = vals[within:].copy()

    @property
    def bits_consumed(self) -> int:
        return 0 if self._state is None else 3 * self._state.chunks_consumed
