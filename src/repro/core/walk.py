"""Vectorized random-walk engine over the Gabber-Galil expander.

One NumPy lane corresponds to one GPU thread of the paper: every lane
holds a current vertex ``(x, y)`` and advances independently, consuming
3 bits of the CPU feed per step to choose among the 7 neighbour maps.
The kernel is plain NumPy on host arrays; the GPU's timing is modelled
by :mod:`repro.gpusim`, not run here.

The paper (Algorithms 1 and 2) masks 3 bits per step out of the feed but
never says what happens when those bits read ``111`` (7), which does not
name a neighbour.  Three policies are implemented and ablated:

``reject``
    Redraw until the 3 bits name a neighbour.  Unbiased -- the walk is the
    exact uniform 7-way walk whose stationary distribution is uniform.
    Costs a factor 8/7 in feed bits.  **Default.**
``mod``
    Use ``k = bits % 7``.  Cheapest and branch-free (what a CUDA kernel
    would most plausibly do) but gives neighbour 0 probability 2/8.
``lazy``
    Map 7 to 0 (the identity map), i.e. a lazy walk that stays put with
    probability 2/8.  Same bit cost as ``mod``; bias only towards
    self-loops, which provably cannot hurt the stationary distribution.

With ``DEGREE == 7``, ``mod`` and ``lazy`` emit the same stream: chunk 7
names map 0, the identity, under either rule (``7 % 7 == 0``).  The
fused kernel relies on this -- it reads raw chunks and gives chunk 7
the identity's coefficients, so it never maps chunks to indices.

The stream contract
-------------------
A walker bank's trajectory is a pure function of ``(start vertices,
feed, policy)`` -- *never* of how callers slice their requests.  The
feed is consumed as one canonical chunk stream: whole 64-bit words are
pulled in order, each yielding 21 chunks, and the tail chunks of the
last word are buffered on the :class:`WalkState` (``feed_buffer``)
instead of being discarded.  Under the ``reject`` policy, redraws for a
step happen *immediately after* that step's base chunks, before the
next step draws anything.  Consequences, guaranteed by tests:

* ``walk(state, src, a)`` then ``walk(state, src, b)`` equals
  ``walk(state, src, a + b)``;
* ``length`` repeated ``step()`` calls equal one ``walk(length)``,
  bit-for-bit, under all three policies.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.bitsource.base import BitSource
from repro.core.expander import DEGREE, GabberGalilExpander
from repro.utils.checks import check_positive

__all__ = [
    "WalkEngine",
    "WalkState",
    "POLICIES",
    "FIXED_CONSUMPTION_POLICIES",
    "CHUNKS_PER_WORD",
    "DEFAULT_WALK_LENGTH",
]

POLICIES = ("reject", "mod", "lazy")

#: Walk length used throughout the paper (Section III-B).
DEFAULT_WALK_LENGTH = 64

#: Policies that consume exactly one chunk per walker step.  Only these
#: admit offset-addressable streams: the feed position of any step is a
#: closed-form function of the step index, so a walk can start at an
#: arbitrary offset without replaying the chunks before it.  'reject'
#: redraws a data-dependent number of chunks and is excluded.
FIXED_CONSUMPTION_POLICIES = ("mod", "lazy")

#: 3-bit chunks yielded per 64-bit feed word (the last bit is unused).
CHUNKS_PER_WORD = 21

#: Prefetch quantum for feed-buffer refills.  Below it, refills round
#: the cumulative word demand up to a power of two (so small banks ramp
#: geometrically instead of paying a 4096-word first fetch); above it,
#: demand rounds up to a multiple of this quantum.  Refill granularity
#: amortizes chunk extraction across steps; it cannot affect emitted
#: values, because the chunk stream is a fixed function of the word
#: stream and buffered chunks are consumed strictly in order.
PREFETCH_WORDS = 1 << 12

#: Lane-steps of fused-kernel coefficients built per block: a walk of
#: ``n`` lanes computes them ``max(1, COEF_BLOCK_LANE_STEPS // n)`` steps
#: at a time, so its two uint8 coefficient arrays stay within
#: 2 x 2 x 2**18 bytes whatever the walk length.  A batching bound
#: only; it cannot change emitted values.
COEF_BLOCK_LANE_STEPS = 1 << 18

#: Coefficient scratch, one pair of flat uint8 buffers per thread.  Not
#: per state: a serve process keeps one walker state per session, and a
#: megabyte each would multiply its footprint.  Not per call either: on
#: a worker thread a fresh megabyte is page-faulted in on every refill.
#: Every step reads only coefficients the same call just wrote, so
#: values cannot depend on the buffers.
_COEF_SCRATCH = threading.local()

#: Per-row chunk offsets of the coefficient pass: row 0 (x) is moved by
#: the x-maps 4..6, row 1 (y) by the y-maps 1..3.
_COEF_OFFSETS = np.array([[4], [1]], dtype=np.uint8)

_U8 = np.uint8


def _empty_chunks() -> np.ndarray:
    return np.empty(0, dtype=np.uint8)


@dataclass
class WalkState:
    """Positions of a bank of independent walkers (one lane per GPU thread)."""

    x: np.ndarray
    y: np.ndarray
    #: Total steps taken by each call into the engine (aggregate, not per lane).
    steps_taken: int = 0
    #: Total 3-bit chunks drawn from the feed (includes rejected draws).
    chunks_consumed: int = 0
    #: Chunks already pulled from the feed but not yet consumed: the tail
    #: of the last 64-bit word.  Part of the stream state -- it is what
    #: makes feed consumption independent of how draws are sliced.
    feed_buffer: np.ndarray = field(default_factory=_empty_chunks)

    def __post_init__(self):
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have identical shapes")

    @property
    def num_walkers(self) -> int:
        return self.x.size

    def copy(self) -> "WalkState":
        return WalkState(
            self.x.copy(),
            self.y.copy(),
            self.steps_taken,
            self.chunks_consumed,
            self.feed_buffer.copy(),
        )


class WalkEngine:
    """Advances banks of walkers on a :class:`GabberGalilExpander`.

    Stepping is branch-free: the 7 neighbour maps become two fused
    affine updates (``x += isX[k] * (2y + cX[k])``, ``y += isY[k] * (2x
    + cY[k])``), which is also exactly how a CUDA kernel would avoid
    warp divergence.  The reference path looks the coefficients up in
    per-``k`` tables; the fused kernel computes them from the raw chunks
    with uint8 arithmetic (:meth:`advance`).

    Parameters
    ----------
    graph : GabberGalilExpander
    policy : str
        One of :data:`POLICIES`; see module docstring.
    fused : bool
        Use the fused three-call kernel (native graphs only).
    """

    def __init__(
        self,
        graph: GabberGalilExpander,
        policy: str = "reject",
        fused: bool = True,
    ):
        if policy not in POLICIES:
            raise ValueError(f"unknown policy {policy!r}; expected one of {POLICIES}")
        self.graph = graph
        self.policy = policy
        dtype = np.uint32 if graph.m == 2**32 else np.uint64
        self._dtype = dtype
        # Lookup tables over k = 0..7 (index 7 only reachable pre-policy).
        is_y = np.array([0, 1, 1, 1, 0, 0, 0, 0], dtype=dtype)
        c_y = np.array([0, 0, 1, 2, 0, 0, 0, 0], dtype=dtype)
        is_x = np.array([0, 0, 0, 0, 1, 1, 1, 0], dtype=dtype)
        c_x = np.array([0, 0, 0, 0, 0, 1, 2, 0], dtype=dtype)
        self._luts = (is_y, c_y, is_x, c_x)
        # Fused tables for the reference path: y' = y + a_y[k]*x + c_y[k],
        # x' = x + a_x[k]*y + c_x[k]  (a = 2*is; the c term is already
        # zero wherever `is` is zero, so no second mask is needed).
        self._a_y = (dtype(2) * is_y).astype(dtype)
        self._a_x = (dtype(2) * is_x).astype(dtype)
        # The fused kernel relies on uint32 wraparound (native m only).
        self._fused = bool(fused) and dtype is np.uint32

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------

    def make_state(self, start_words: np.ndarray) -> WalkState:
        """Create walkers whose start vertices come from 64-bit seed words.

        This is the "64 random bits to select the starting position" of
        Algorithm 1: word ``w`` places a walker at vertex ``unpack(w)``.
        For ``m < 2**32`` coordinates are reduced mod m.
        """
        start_words = np.atleast_1d(np.asarray(start_words, dtype=np.uint64))
        x, y = self.graph.unpack(start_words)
        if self.graph.m != 2**32:
            x = x % np.uint64(self.graph.m)
            y = y % np.uint64(self.graph.m)
        dtype = np.uint32 if self.graph.m == 2**32 else np.uint64
        return WalkState(x.astype(dtype), y.astype(dtype))

    def restart(self, state: WalkState, start_words: np.ndarray) -> None:
        """Move ``state``'s walkers to fresh start vertices, in place.

        The lane count may change.  Counters, feed buffer and kernel
        scratch carry over; the fused kernel re-syncs its scratch with
        the new positions on its next step.
        """
        fresh = self.make_state(start_words)
        state.x, state.y = fresh.x, fresh.y

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------

    @staticmethod
    def _take_chunks(state: WalkState, source: BitSource, n: int) -> np.ndarray:
        """The next ``n`` chunks of the canonical chunk stream.

        Words are pulled whole (21 chunks each) and the tail is kept in
        ``state.feed_buffer``, so the *values* drawn are a fixed function
        of the word stream regardless of request slicing.  The number of
        words *read ahead* is too: a refill pulls up to ``F(T)`` total
        words, where ``T`` is the cumulative chunks requested so far and
        ``F`` rounds ``ceil(T / 21)`` up to a power of two (below
        :data:`PREFETCH_WORDS`) or to a multiple of the quantum (above).
        Because ``F`` is a monotone pure function of ``T`` and its image
        is totally ordered, any two request patterns with the same total
        demand leave the source at the same position -- while small
        banks ramp up geometrically instead of over-fetching thousands
        of words on their first step.

        The returned slice may view already-consumed buffer memory;
        callers may mutate it freely (nothing re-reads it).
        """
        buf = state.feed_buffer
        if buf.size >= n:
            state.feed_buffer = buf[n:]
            return buf[:n]
        deficit = n - buf.size
        # Invariant: every chunk requested so far has been counted into
        # ``chunks_consumed`` (callers increment right after each take),
        # so words pulled so far = (consumed + buffered) / 21, exactly.
        pulled = (state.chunks_consumed + buf.size) // CHUNKS_PER_WORD
        need = -(-(state.chunks_consumed + n) // CHUNKS_PER_WORD)
        if need <= PREFETCH_WORDS:
            target = 1 << (need - 1).bit_length()
        else:
            target = -(-need // PREFETCH_WORDS) * PREFETCH_WORDS
        fresh = source.chunks3((target - pulled) * CHUNKS_PER_WORD)
        state.feed_buffer = fresh[deficit:]
        if not buf.size:
            return fresh[:deficit]
        return np.concatenate([buf, fresh[:deficit]])

    def _draw_indices(self, n: int, source: BitSource, state: WalkState) -> np.ndarray:
        """Draw ``n`` neighbour indices (0..6) under the configured policy.

        The returned array may be any shape-(n,) uint8; the 'reject' policy
        redraws offending entries in vectorized rounds (expected < 2),
        taking each redraw batch from the same canonical chunk stream.
        """
        chunks = self._take_chunks(state, source, n)
        state.chunks_consumed += n
        if self.policy in FIXED_CONSUMPTION_POLICIES:
            return self.indices_from_chunks(chunks)
        # 'reject': redraw lanes that read 111 until none remain.  Track
        # offending indices so each round only touches the shrinking
        # rejection set instead of rescanning the full array.
        idx = np.flatnonzero(chunks == _U8(7))
        while idx.size:
            redraw = self._take_chunks(state, source, idx.size)
            state.chunks_consumed += idx.size
            chunks[idx] = redraw
            idx = idx[redraw == _U8(7)]
        return chunks

    def indices_from_chunks(self, chunks: np.ndarray) -> np.ndarray:
        """Map raw 3-bit chunks to neighbour indices, no feed interaction.

        Only valid for the fixed-consumption policies (one chunk per
        step): 'mod' folds 7 onto 0 via subtraction, 'lazy' maps 7 to
        the identity neighbour.  'reject' consumes a data-dependent
        number of chunks per step and therefore has no chunk-pure
        mapping -- offset-addressable streams cannot use it.
        """
        if self.policy == "mod":
            return np.where(chunks >= DEGREE, chunks - _U8(DEGREE), chunks)
        if self.policy == "lazy":
            return np.where(chunks == _U8(7), _U8(0), chunks)
        raise ValueError(
            "policy 'reject' consumes a data-dependent number of chunks; "
            f"only fixed-consumption policies {FIXED_CONSUMPTION_POLICIES} "
            "map pre-drawn chunks to indices"
        )

    # -- fused kernel --------------------------------------------------

    def _fused_buffers(self, state: WalkState):
        """Per-state (2, n) ping-pong scratch for the fused kernel.

        ``state.x`` / ``state.y`` are row views into the current buffer
        after a fused step; the stored view identities detect external
        reassignment (snapshot restore, :meth:`restart`, fresh state)
        and copy the positions back in.  Returns ``(cur, nxt, t)`` with
        ``cur`` holding the current positions.
        """
        n = state.num_walkers
        bufs = getattr(state, "_fused_bufs", None)
        if bufs is None or bufs[0].shape[1] != n:
            bufs = tuple(np.empty((2, n), dtype=np.uint32) for _ in range(3))
            state._fused_xy = (None, None)
        cur = bufs[0]
        xv, yv = state._fused_xy
        if state.x is not xv or state.y is not yv:
            cur[0] = state.x
            cur[1] = state.y
        return bufs

    @staticmethod
    def _coefficients(k: np.ndarray, a: np.ndarray, c: np.ndarray) -> None:
        """Fused-step coefficients of raw chunks ``k`` (L, n) into (L, 2, n).

        Row 0 moves x by the x-maps 4..6 (``a = 2``, ``c = k - 4``), row
        1 moves y by the y-maps 1..3 (``a = 2``, ``c = k - 1``), and
        chunks 0 and 7 get ``(0, 0)``, the identity.  With uint8
        wraparound one unsigned compare picks a row's three maps:
        ``k - off < 3`` exactly when ``off <= k < off + 3``.  Four uint8
        ufuncs over the whole block, no lookups and no temporaries.
        """
        np.subtract(k[:, None, :], _COEF_OFFSETS, out=c)
        np.less(c, _U8(3), out=a.view(np.bool_))
        np.multiply(c, a, out=c)
        np.add(a, a, out=a)

    def _advance_fused(self, state: WalkState, chunks: np.ndarray) -> None:
        """``len(chunks)`` fused steps, three NumPy calls each.

        With positions held as a (2, n) array ``pos`` (row 0 = x, row 1
        = y) a step is one broadcast update,
        ``pos' = pos + a * pos[::-1] + c``, because x reads y and y
        reads x (``pos[::-1]`` swaps the rows) and at most one row's
        coefficient is nonzero per lane; uint32 wraparound is the mod
        2**32.  Coefficients are built per block of steps (see
        :data:`COEF_BLOCK_LANE_STEPS`) in per-thread scratch.
        """
        n = state.num_walkers
        steps = len(chunks)
        block = max(1, COEF_BLOCK_LANE_STEPS // max(n, 1))
        cur, nxt, t = self._fused_buffers(state)
        rows = min(block, steps)
        size = rows * 2 * n
        bufs = getattr(_COEF_SCRATCH, "bufs", None)
        if bufs is None or bufs[0].size < size:
            bufs = tuple(np.empty(size, dtype=np.uint8) for _ in range(2))
            _COEF_SCRATCH.bufs = bufs
        a, c = (buf[:size].reshape(rows, 2, n) for buf in bufs)
        for s0 in range(0, steps, block):
            k = chunks[s0 : s0 + block]
            lb = len(k)
            self._coefficients(k, a[:lb], c[:lb])
            for i in range(lb):
                np.multiply(cur[::-1], a[i], out=t)
                np.add(t, c[i], out=t)
                np.add(cur, t, out=nxt)
                cur, nxt = nxt, cur
        state._fused_bufs = (cur, nxt, t)
        state.x, state.y = cur[0], cur[1]
        state._fused_xy = (state.x, state.y)
        state.steps_taken += steps * n

    def advance(self, state: WalkState, chunks: np.ndarray) -> None:
        """Advance every walker by ``len(chunks)`` steps on raw chunks.

        ``chunks`` is an ``(L, n)`` step-major block of raw 3-bit chunks
        (0..7): step ``i`` moves lane ``j`` by the map ``chunks[i, j]``
        names under a fixed-consumption policy, chunk 7 included.  The
        caller has already taken (and counted) the chunks.  The fused
        kernel reads them raw; the reference path maps them with
        :meth:`indices_from_chunks` and steps one row at a time.
        """
        if self.policy not in FIXED_CONSUMPTION_POLICIES:
            raise ValueError(
                f"policy {self.policy!r} redraws chunk 7, so raw chunks do "
                "not name its steps; use walk() or step()"
            )
        if self._fused:
            self._advance_fused(state, chunks)
            return
        for ks in self.indices_from_chunks(chunks):
            self._apply_indices(state, ks)

    def _apply_indices(self, state: WalkState, ks: np.ndarray) -> None:
        """Advance all walkers by one step given neighbour indices ``ks``.

        Fused engines run the fused kernel on a one-step block (indices
        0..6 are raw chunks naming the same maps).  Reference native
        path (m = 2**32): fused-LUT updates into double-buffered
        scratch arrays -- no per-step allocations, ~2x the throughput of
        the naive expression.  At most one of a_y/a_x is nonzero per k
        (both zero for k == 0), so both updates can read the pre-step
        x and y.
        """
        if self._fused:
            self._advance_fused(state, ks[None])
            return
        n = state.num_walkers
        if self._dtype is np.uint32:
            # Scratch lives on the state (never shared across states).
            scratch = getattr(state, "_scratch", None)
            if scratch is None or scratch[0].size != n:
                scratch = tuple(np.empty(n, dtype=np.uint32) for _ in range(4))
            t1, t2, nx, ny = scratch
            x, y = state.x, state.y
            np.take(self._a_y, ks, out=t1)
            np.multiply(t1, x, out=t1)
            np.take(self._luts[1], ks, out=t2)  # c_y
            np.add(t1, t2, out=t1)
            np.add(y, t1, out=ny)
            np.take(self._a_x, ks, out=t1)
            np.multiply(t1, y, out=t1)
            np.take(self._luts[3], ks, out=t2)  # c_x
            np.add(t1, t2, out=t1)
            np.add(x, t1, out=nx)
            # Swap: the old position arrays become the next step's scratch.
            state._scratch = (t1, t2, x, y)
            state.x = nx
            state.y = ny
        else:
            is_y, c_y, is_x, c_x = self._luts
            x, y = state.x, state.y
            two = self._dtype(2)
            ny = y + is_y[ks] * (two * x + c_y[ks])
            nx = x + is_x[ks] * (two * y + c_x[ks])
            mm = self._dtype(self.graph.m)
            nx %= mm
            ny %= mm
            state.x = nx
            state.y = ny
        state.steps_taken += state.num_walkers

    def step(self, state: WalkState, source: BitSource) -> None:
        """Advance every walker by one step, in place."""
        ks = self._draw_indices(state.num_walkers, source, state)
        self._apply_indices(state, ks)

    def walk(self, state: WalkState, source: BitSource, length: int) -> None:
        """Advance every walker by ``length`` steps, in place.

        Bit-for-bit equal to ``length`` separate :meth:`step` calls under
        every policy (the stream contract).  For 'mod' and 'lazy' that
        equivalence lets all ``length * n`` chunks be drawn in one bulk
        request (step-major order) -- the chunk stream is continuous, so
        slicing cannot change it.  'reject' must interleave each step's
        redraws with the next step's base draw, so it steps one at a
        time.
        """
        check_positive("length", length)
        if self.policy == "reject":
            for _ in range(length):
                self.step(state, source)
            return
        n = state.num_walkers
        chunks = self._take_chunks(state, source, length * n)
        state.chunks_consumed += length * n
        self.advance(state, chunks.reshape(length, n))

    def outputs(self, state: WalkState) -> np.ndarray:
        """Current vertex ids of all walkers -- the emitted random numbers."""
        return self.graph.pack(state.x, state.y)

    def outputs_into(self, state: WalkState, out: np.ndarray) -> None:
        """Write the walkers' vertex ids into ``out`` (uint64, size n).

        The zero-copy delivery primitive: for the native graph the pack
        ``(x << 32) | y`` is computed in-place in the caller's buffer,
        with no intermediate array.
        """
        if out.shape != state.x.shape:
            raise ValueError(
                f"out has shape {out.shape}, expected {state.x.shape}"
            )
        if self._dtype is np.uint32 and out.dtype == np.uint64:
            np.copyto(out, state.x, casting="safe")
            np.left_shift(out, np.uint64(32), out=out)
            np.bitwise_or(out, state.y, out=out)
            return
        out[...] = self.graph.pack(state.x, state.y)

    # ------------------------------------------------------------------
    # Analysis helpers
    # ------------------------------------------------------------------

    def expected_chunks_per_step(self) -> float:
        """Mean 3-bit chunks consumed per walker step under the policy."""
        return 8.0 / 7.0 if self.policy == "reject" else 1.0

    def bits_per_number(self, walk_length: int) -> float:
        """Mean feed bits consumed to emit one random number."""
        return 3.0 * self.expected_chunks_per_step() * walk_length
