"""Reimplementation of glibc ``rand()`` -- the paper's CPU feed generator.

The paper's FEED work unit calls ANSI C ``rand()`` which, on the Fedora 14
system used (Section IV-A), is glibc's **TYPE_3 additive-feedback
generator**:

* state: 31 lagged 32-bit words (34 including warm-up copies),
* recurrence ``r[i] = r[i-3] + r[i-31] (mod 2**32)``,
* output ``r[i] >> 1`` (a 31-bit value in ``0 .. 2**31 - 1``).

Seeding follows glibc ``srandom()``: 30 steps of the Park-Miller minimal
standard LCG (``x <- 16807 x mod 2**31 - 1``, computed with Schrage's
trick exactly as glibc does), then 310 warm-up outputs are discarded.
The implementation is verified against the well-known glibc sequence for
``seed = 1`` (1804289383, 846930886, ...) in the test suite.

Also provided is :class:`AnsiCLcg`, the K&R reference ``rand()`` (TYPE_0
LCG), which the paper's Table I/II place at the bottom of the quality
ranking.

The blocked FEED kernel
-----------------------
The additive-feedback recurrence is *linear* over ``Z / 2**32``: the 31
state words of one lag window are a fixed linear map ``C`` of the
previous window's 31 words.  Advancing ``k`` windows therefore collapses
to a single integer matrix-vector product against the stacked powers
``[C; C^2; ...; C^k]`` -- one NumPy call produces ``31 * k`` raw words
instead of ``k`` Python-level window updates of three tiny cumulative
sums each.  ``C`` is built by pushing unit vectors through the scalar
window update (:func:`_advance_window`), so the blocked kernel agrees
with the reference implementation by construction; the golden-vector and
equivalence tests then pin it word-for-word.  Pass ``blocked=False`` to
keep the window-at-a-time reference path (the benchmark harness measures
both variants in one run).
"""

from __future__ import annotations

import numpy as np

from repro.bitsource.base import BitSource

__all__ = ["GlibcRandom", "AnsiCLcg", "glibc_rand_sequence"]

_U32 = np.uint32
_U64 = np.uint64

_DEG = 31  # r[i-31]
_SEP = 3  # r[i-3]
_WARMUP = 310  # glibc discards 10 * 31 outputs after seeding

#: Lag windows (31 raw words each) the blocked kernel advances per
#: matrix-vector product: 128 windows = 3968 words per NumPy call, and
#: the stacked-power matrix stays under 500 KiB.
BLOCK_WINDOWS = 128


def _advance_window(prev: np.ndarray) -> np.ndarray:
    """One lag window: the next 31 raw words from the previous 31.

    ``new[i] = new[i-3] + prev[i]`` with carry-in ``new[j-3] =
    prev[28 + j]`` -- three cumulative sums, one per residue class
    mod 3.  This is the reference window update; the blocked kernel is
    derived from it and verified against it.
    """
    new = np.empty(_DEG, dtype=_U32)
    for j in range(_SEP):
        idx = np.arange(j, _DEG, _SEP)
        csum = np.cumsum(prev[idx], dtype=_U32)
        new[idx] = csum + prev[_DEG - _SEP + j]
    return new


_POW2_WINDOW_MAPS: list = []  # _POW2_WINDOW_MAPS[j] = C**(2**j)


def _window_pow2(j: int) -> np.ndarray:
    """``C**(2**j)`` mod ``2**32``, memoized across all instances.

    The window map ``C`` is seed-independent, so its repeated squarings
    are a process-wide table (31x31 uint32 each, ~4 KiB per entry).
    Memoizing them is what makes seek latency *flat* in the offset: a
    cold process pays the squarings once, after which any seek is just
    popcount(exponent) matrix-vector products.
    """
    while len(_POW2_WINDOW_MAPS) <= j:
        if not _POW2_WINDOW_MAPS:
            _POW2_WINDOW_MAPS.append(_stacked_window_powers()[:_DEG].copy())
        else:
            sq = np.empty((_DEG, _DEG), dtype=_U32)
            np.matmul(_POW2_WINDOW_MAPS[-1], _POW2_WINDOW_MAPS[-1], out=sq)
            _POW2_WINDOW_MAPS.append(sq)
    return _POW2_WINDOW_MAPS[j]


def _window_map_power(exponent: int) -> np.ndarray:
    """``C**exponent`` mod ``2**32`` by square-and-multiply.

    ``C`` is the 31x31 window map; uint32 matmul wraps mod ``2**32``
    natively, so each of the O(log exponent) products is exact.  Seeks
    apply :func:`_window_pow2` factors directly to the ring *vector*
    instead (31x matvec is far cheaper than matmul); this full-matrix
    form remains for verification and for composing new tables.
    """
    result = np.eye(_DEG, dtype=_U32)
    j = 0
    while exponent:
        if exponent & 1:
            nxt = np.empty((_DEG, _DEG), dtype=_U32)
            np.matmul(_window_pow2(j), result, out=nxt)
            result = nxt
        exponent >>= 1
        j += 1
    return result


_STACKED_POWERS: np.ndarray = None  # built lazily, shared by all instances


def _stacked_window_powers() -> np.ndarray:
    """``[C; C^2; ...; C^K]`` mod ``2**32`` as one ``(31 K, 31)`` matrix.

    ``C`` is the linear window map, extracted column-by-column from
    :func:`_advance_window` on unit vectors.  All arithmetic is uint32
    with native wraparound, which is exactly reduction mod ``2**32``.
    """
    global _STACKED_POWERS
    if _STACKED_POWERS is None:
        c = np.empty((_DEG, _DEG), dtype=_U32)
        unit = np.zeros(_DEG, dtype=_U32)
        for j in range(_DEG):
            unit[j] = 1
            c[:, j] = _advance_window(unit)
            unit[j] = 0
        powers = np.empty((_DEG * BLOCK_WINDOWS, _DEG), dtype=_U32)
        powers[:_DEG] = c
        for b in range(1, BLOCK_WINDOWS):
            np.matmul(c, powers[_DEG * (b - 1) : _DEG * b],
                      out=powers[_DEG * b : _DEG * (b + 1)])
        _STACKED_POWERS = powers
    return _STACKED_POWERS


def _srandom_state(seed: int) -> np.ndarray:
    """Replicate glibc ``srandom_r`` for TYPE_3: the initial 34-word table."""
    seed = seed & 0xFFFFFFFF
    if seed == 0:
        seed = 1
    r = np.zeros(_DEG + _SEP, dtype=np.int64)
    r[0] = seed
    # Park-Miller via Schrage: hi = s / 127773, lo = s % 127773,
    # word = 16807 * lo - 2836 * hi  (+ 2147483647 if negative).
    s = int(seed)
    for i in range(1, _DEG):
        hi, lo = divmod(s, 127773)
        word = 16807 * lo - 2836 * hi
        if word < 0:
            word += 2147483647
        r[i] = word
        s = word
    for i in range(_DEG, _DEG + _SEP):
        r[i] = r[i - _DEG]
    return r.astype(_U32)


class GlibcRandom(BitSource):
    """glibc TYPE_3 ``random()`` as a :class:`BitSource` and a scalar RNG.

    Scalar access (:meth:`rand`) matches C ``rand()`` output exactly.
    Bulk access uses the blocked kernel by default: up to
    :data:`BLOCK_WINDOWS` lag windows (31 raw words each) advance per
    integer matrix-vector product, with the block count sized from the
    request.  ``blocked=False`` selects the window-at-a-time reference
    path (three cumulative sums per 31 outputs); both produce the
    identical word stream.
    """

    name = "glibc-rand"
    #: RAND_MAX for this generator (outputs are 31-bit).
    RAND_MAX = 2**31 - 1

    def __init__(self, seed: int = 1, blocked: bool = True):
        self._blocked = bool(blocked)
        self.reseed(seed)

    def reseed(self, seed: int) -> None:
        self._seed = int(seed)
        table = _srandom_state(seed)
        #   maintain a ring of the last 31 raw words r[t-31..t-1]
        self._ring = table[_SEP:].copy()  # r[3..33] == last 31 values
        self._pending = np.empty(0, dtype=_U32)
        # Warm up exactly like glibc: discard 310 outputs (10 windows).
        self._raw(_WARMUP)

    def _advance_block(self) -> np.ndarray:
        """Produce the next 31 raw state words (before the >> 1 output step)."""
        new = _advance_window(self._ring)
        self._ring = new
        return new

    def _raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 32-bit state words (output = raw >> 1)."""
        out = np.empty(n, dtype=_U32)
        have = min(n, self._pending.size)
        if have:
            out[:have] = self._pending[:have]
            self._pending = self._pending[have:]
        pos = have
        while pos < n:
            if self._blocked:
                k = min(-(-(n - pos) // _DEG), BLOCK_WINDOWS)
                block = _stacked_window_powers()[: _DEG * k] @ self._ring
                self._ring = block[-_DEG:].copy()
            else:
                block = self._advance_block()
            take = min(n - pos, block.size)
            out[pos : pos + take] = block[:take]
            if take < block.size:
                self._pending = block[take:]
            pos += take
        return out

    # -- jump-ahead ----------------------------------------------------

    @property
    def seekable(self) -> bool:
        return True

    def seek_raw(self, n_outputs: int) -> None:
        """Jump so the next raw word is output ``n_outputs`` since seeding.

        Window ``k`` of the lag recurrence is ``C**k`` applied to the
        seeded ring (window 0), so an arbitrary offset costs one
        O(log n) matrix power plus at most one reference window update
        for the partial window -- independent of ``n_outputs``.
        """
        if n_outputs < 0:
            raise ValueError(f"raw offset must be non-negative, got {n_outputs}")
        ring0 = _srandom_state(self._seed)[_SEP:]
        full, rem = divmod(n_outputs, _DEG)
        # Apply C**full to the ring as a chain of memoized pow2 factors:
        # popcount(full) matrix-vector products, never a fresh matmul,
        # so the cost is flat in the offset once the table is warm.
        ring = ring0.copy()
        j = 0
        while full:
            if full & 1:
                nxt = np.empty(_DEG, dtype=_U32)
                np.matmul(_window_pow2(j), ring, out=nxt)
                ring = nxt
            full >>= 1
            j += 1
        if rem:
            ring = _advance_window(ring)
            self._pending = ring[rem:].copy()
        else:
            self._pending = np.empty(0, dtype=_U32)
        self._ring = ring

    def seek(self, word_offset: int) -> None:
        """Jump to an absolute :meth:`words64` offset in O(log offset).

        Each 64-bit word consumes three raw outputs, and seeding discards
        ``_WARMUP`` raw warm-up outputs before the stream starts.
        """
        if word_offset < 0:
            raise ValueError(f"word offset must be non-negative, got {word_offset}")
        self.seek_raw(_WARMUP + 3 * word_offset)

    # -- scalar C-compatible API --------------------------------------

    def rand(self) -> int:
        """Exactly C ``rand()``: the next 31-bit value as a Python int."""
        return int(self._raw(1)[0] >> _U32(1))

    def rand_array(self, n: int) -> np.ndarray:
        """The next ``n`` C ``rand()`` outputs as ``uint32`` (31-bit values)."""
        return self._raw(n) >> _U32(1)

    # -- BitSource API -------------------------------------------------

    def words64(self, n: int) -> np.ndarray:
        """Pack pairs of 31-bit outputs plus 2 extra bits into 64-bit words.

        Each word consumes three ``rand()`` outputs: two full 31-bit values
        and the low 2 bits of a third, i.e. 64 fresh bits per word.
        """
        if n < 0:
            raise ValueError(f"word count must be non-negative, got {n}")
        if n == 0:
            return np.empty(0, dtype=_U64)
        vals = self.rand_array(3 * n).astype(_U64).reshape(n, 3)
        return (
            (vals[:, 0] << _U64(33))
            | (vals[:, 1] << _U64(2))
            | (vals[:, 2] & _U64(3))
        )


class AnsiCLcg(BitSource):
    """The K&R / ANSI C reference ``rand()``: a 15-bit-output LCG.

    ``state <- state * 1103515245 + 12345 (mod 2**31)``; output
    ``(state >> 16) & 0x7FFF``.  Deliberately weak -- the bottom row of the
    paper's quality tables.
    """

    name = "ansi-c-lcg"
    RAND_MAX = 32767

    _A = 1103515245
    _C = 12345
    _MASK = (1 << 31) - 1
    _BLOCK = 4096
    #: Largest precomputed jump table: one vectorized expression covers
    #: requests up to 2**16 outputs before the Python loop re-enters.
    _MAX_BLOCK = 1 << 16

    def __init__(self, seed: int = 1):
        # Precompute A^i and the LCG increment series for a whole block so
        # bulk generation runs one vectorized expression per block:
        #   x_i = A^i x_0 + C (A^{i-1} + ... + 1)   (mod 2**31).
        # The tables start at _BLOCK entries and double on demand (capped
        # at _MAX_BLOCK) when a request wants a larger block.
        a_pows = np.empty(self._BLOCK, dtype=_U64)
        c_terms = np.empty(self._BLOCK, dtype=_U64)
        a, c = 1, 0
        mod = 1 << 31
        for i in range(self._BLOCK):
            a = (a * self._A) % mod
            c = (c * self._A + self._C) % mod
            a_pows[i] = a
            c_terms[i] = c
        self._a_pows = a_pows
        self._c_terms = c_terms
        self.reseed(seed)

    def _ensure_block(self, size: int) -> None:
        """Grow the jump tables to cover blocks of ``size`` (capped).

        Affine composition extends them vectorized: with ``f^k(x) =
        a_k x + c_k``, ``a_{j+k} = a_j a_k`` and ``c_{j+k} = a_j c_k +
        c_j`` (mod ``2**31``).  Products of two 31-bit values stay below
        ``2**62``, so uint64 arithmetic is exact.
        """
        size = min(size, self._MAX_BLOCK)
        cur = self._a_pows.size
        while cur < size:
            mask = _U64(self._MASK)
            a_cur = self._a_pows[cur - 1]
            c_cur = self._c_terms[cur - 1]
            self._a_pows = np.concatenate(
                [self._a_pows, (self._a_pows * a_cur) & mask]
            )
            self._c_terms = np.concatenate(
                [self._c_terms, (self._a_pows[:cur] * c_cur + self._c_terms)
                 & mask]
            )
            cur = self._a_pows.size

    def reseed(self, seed: int) -> None:
        self._seed = int(seed)
        self._state = np.uint64(seed & 0x7FFFFFFF)

    @property
    def seekable(self) -> bool:
        return True

    def seek(self, word_offset: int) -> None:
        """Jump to an absolute :meth:`words64` offset in O(log offset).

        With ``f(x) = A x + C mod 2**31``, the k-step map is the affine
        composition ``f^k(x) = a_k x + c_k`` where ``a_{j+k} = a_j a_k``
        and ``c_{j+k} = a_j c_k + c_j`` -- computed by square-and-multiply
        in exact Python integers.  Each word consumes five outputs.
        """
        if word_offset < 0:
            raise ValueError(f"word offset must be non-negative, got {word_offset}")
        mod = 1 << 31
        k = 5 * word_offset
        ra, rc = 1, 0
        ba, bc = self._A % mod, self._C % mod
        while k:
            if k & 1:
                ra, rc = (ba * ra) % mod, (ba * rc + bc) % mod
            k >>= 1
            if k:
                ba, bc = (ba * ba) % mod, (ba * bc + bc) % mod
        self._state = np.uint64((ra * (self._seed & 0x7FFFFFFF) + rc) % mod)

    def rand(self) -> int:
        """The next ANSI C ``rand()`` value (0..32767)."""
        self._state = (
            self._state * _U64(self._A) + _U64(self._C)
        ) & _U64(0x7FFFFFFF)
        return int((self._state >> _U64(16)) & _U64(0x7FFF))

    def rand_array(self, n: int) -> np.ndarray:
        """Vectorized generation of ``n`` outputs, one block per step.

        The block is sized from the request (up to ``_MAX_BLOCK`` states
        per vectorized jump).  ``A^i x_0`` never exceeds ``2**62`` so the
        blocked jump stays exact in ``uint64`` arithmetic.
        """
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        if n == 0:
            return np.empty(0, dtype=_U32)
        self._ensure_block(n)
        out = np.empty(n, dtype=_U32)
        mask = _U64(self._MASK)
        pos = 0
        while pos < n:
            take = min(self._a_pows.size, n - pos)
            states = (
                self._a_pows[:take] * self._state + self._c_terms[:take]
            ) & mask
            self._state = states[-1]
            out[pos : pos + take] = (
                (states >> _U64(16)) & _U64(0x7FFF)
            ).astype(_U32)
            pos += take
        return out

    def words64(self, n: int) -> np.ndarray:
        """Pack five 15-bit outputs (74 bits, truncated) into each word."""
        if n < 0:
            raise ValueError(f"word count must be non-negative, got {n}")
        if n == 0:
            return np.empty(0, dtype=_U64)
        vals = self.rand_array(5 * n).astype(_U64).reshape(n, 5)
        out = np.zeros(n, dtype=_U64)
        for j in range(5):
            out = (out << _U64(15)) | vals[:, j]
        return out  # 75 bits folded into 64: the first value keeps 4 bits


def glibc_rand_sequence(seed: int, n: int) -> list[int]:
    """First ``n`` outputs of glibc ``rand()`` for ``seed`` (reference helper).

    Equivalent to ``srand(seed)`` followed by ``n`` calls to ``rand()`` on a
    glibc system.
    """
    gen = GlibcRandom(seed)
    return [int(v) for v in gen.rand_array(n)]
