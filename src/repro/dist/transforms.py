"""Stateless, vectorized variate kernels over raw 64-bit words.

Every kernel here maps a block of uint64 words to variates with **no
internal state**: the stateful stream contract (carry buffers, word
accounting, fetch-size invariance) lives in
:class:`repro.dist.stream.DistStream`; this module is the pure math.

The invariance story rests on one structural rule: each kernel consumes
its words in **atomic attempts of fixed word cost**, processes attempts
in stream order, and either emits or rejects each attempt wholesale.
Because an attempt never straddles a block boundary and emitted variates
keep attempt order, the variate sequence is a pure function of the word
sequence -- independent of how the words were blocked into calls.

The kernels are plain NumPy on ``uint64`` word blocks.  The integer
kernels (``mulhilo64``, ``lemire_bounded``) are exact: the tests check
them against Python-integer references.

Kernels
-------
``uniform53``            1 word  -> 1 double in [0, 1) (53 bits);
``uniform53_nonzero``    1 word  -> 1 double in (0, 1];
``exponential_inverse``  1 word  -> 1 Exp(1) variate (inversion);
``ziggurat_normal``      2 words -> 0 or 1 N(0,1) variate (256-layer
                         ziggurat; the tail is sampled by *exact
                         inversion* of the normal survival function, so
                         an attempt entering the tail always emits --
                         required for attempt-discard exactness);
``polar_normal``         2 words -> 0 or 2 N(0,1) variates (Marsaglia
                         polar; ~78.5% of attempts emit a pair);
``boxmuller_normal``     2 words -> exactly 2 N(0,1) variates;
``lemire_bounded``       1 word  -> 0 or 1 integer in [0, span)
                         (Lemire's multiply-shift with the unbiasing
                         rejection, via 128-bit products built from
                         32-bit limbs).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri

from repro.dist.tables import ZIG_RATIO, ZIG_TAIL_SF, ZIG_X, ZIG_Y

__all__ = [
    "WORDS_PER_ATTEMPT",
    "MAX_YIELD",
    "uniform53",
    "uniform53_nonzero",
    "exponential_inverse",
    "ziggurat_normal",
    "polar_normal",
    "boxmuller_normal",
    "mulhilo64",
    "lemire_bounded",
]

_U53_SCALE = 1.0 / 9007199254740992.0  # 2**-53
_MASK32 = 0xFFFFFFFF
_SHIFT11 = np.uint64(11)
_SHIFT32 = np.uint64(32)

#: Words one atomic attempt consumes, per kernel name.
WORDS_PER_ATTEMPT = {
    "uniform53": 1,
    "exponential_inverse": 1,
    "ziggurat_normal": 2,
    "polar_normal": 2,
    "boxmuller_normal": 2,
    "lemire_bounded": 1,
}

#: Most variates one attempt can emit, per kernel name.
MAX_YIELD = {
    "uniform53": 1,
    "exponential_inverse": 1,
    "ziggurat_normal": 1,
    "polar_normal": 2,
    "boxmuller_normal": 2,
    "lemire_bounded": 1,
}


def uniform53(words: np.ndarray) -> np.ndarray:
    """Top 53 bits of each word -> double in [0, 1); 1 word, 1 variate."""
    return (words >> _SHIFT11).astype(np.float64) * _U53_SCALE


def uniform53_nonzero(words: np.ndarray) -> np.ndarray:
    """Doubles in (0, 1] -- the log-safe complement of :func:`uniform53`."""
    return 1.0 - uniform53(words)


def exponential_inverse(words: np.ndarray) -> np.ndarray:
    """Exp(1) by inversion: ``-log(1 - u)``; 1 word, 1 variate, exact."""
    # -log1p(-u) keeps full precision for small u where 1-u rounds.
    return -np.log1p(-uniform53(words))


def ziggurat_normal(words: np.ndarray) -> np.ndarray:
    """N(0,1) via the 256-layer ziggurat; 2 words/attempt, yield <= 1.

    Word 1 of an attempt supplies the layer index (low 8 bits), the sign
    (bit 8) and the 53-bit position uniform (bits 11..63 -- disjoint from
    the index/sign bits).  Word 2 supplies the wedge/tail uniform.  The
    base-layer tail is sampled by exact inversion (``ndtri`` on the tail
    slice of the survival function), so every attempt that reaches the
    tail emits -- wedge rejections discard the whole attempt, which is
    distributionally identical to the classic "goto start" retry.
    """
    w = words.reshape(-1, 2)
    layer = (w[:, 0] & 0xFF).astype(np.intp)
    negative = (w[:, 0] & 0x100) != 0
    u1 = uniform53(w[:, 0])
    x = u1 * ZIG_X[layer]
    accept = u1 < ZIG_RATIO[layer]
    slow = ~accept
    if slow.any():
        u2 = uniform53(w[slow, 1])
        idx = layer[slow]
        tail = idx == 0
        wedge = ~tail
        slow_accept = np.zeros(idx.size, dtype=bool)
        if wedge.any():
            iw = idx[wedge]
            xw = x[slow][wedge]
            y = ZIG_Y[iw] + u2[wedge] * (ZIG_Y[iw + 1] - ZIG_Y[iw])
            slow_accept[wedge] = y < np.exp(-0.5 * xw * xw)
        if tail.any():
            # Exact inversion within the tail mass: u2 in [0,1) maps
            # 1-u2 into (0,1], so the isf argument never hits 0.
            xt = -ndtri(ZIG_TAIL_SF * (1.0 - u2[tail]))
            xs = x[slow]
            xs[tail] = xt
            x[slow] = xs
            slow_accept[tail] = True
        accept[slow] = slow_accept
    signed = np.where(negative, -x, x)
    return signed[accept]


def polar_normal(words: np.ndarray) -> np.ndarray:
    """N(0,1) pairs via the Marsaglia polar method; 2 words/attempt.

    Each attempt maps its two words to a point in the square
    ``[-1, 1)^2`` and emits a pair of variates iff the point lands
    strictly inside the unit disk (excluding the origin); ~78.5% of
    attempts emit.  Emitted pairs keep attempt order and in-pair order.
    """
    w = words.reshape(-1, 2)
    u = 2.0 * uniform53(w[:, 0]) - 1.0
    v = 2.0 * uniform53(w[:, 1]) - 1.0
    s = u * u + v * v
    ok = (s < 1.0) & (s > 0.0)
    u, v, s = u[ok], v[ok], s[ok]
    m = np.sqrt(-2.0 * np.log(s) / s)
    out = np.empty(2 * s.size, dtype=np.float64)
    out[0::2] = u * m
    out[1::2] = v * m
    return out


def boxmuller_normal(words: np.ndarray) -> np.ndarray:
    """N(0,1) pairs via Box-Muller; 2 words/attempt, always emits 2."""
    w = words.reshape(-1, 2)
    r = np.sqrt(-2.0 * np.log(uniform53_nonzero(w[:, 0])))
    theta = (2.0 * math.pi) * uniform53(w[:, 1])
    out = np.empty(w.shape[0] * 2, dtype=np.float64)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out


def mulhilo64(a: np.ndarray, b: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-element 64x64 -> 128-bit product as ``(hi, lo)`` uint64 arrays.

    NumPy has no 128-bit integers, so the product is assembled from
    32-bit limbs entirely in uint64 arithmetic (all wraps intended).
    """
    bv = b & (2**64 - 1)
    b_lo = bv & _MASK32
    b_hi = bv >> 32
    a_lo = a & _MASK32
    a_hi = a >> _SHIFT32
    with np.errstate(over="ignore"):
        ll = a_lo * b_lo
        lh = a_lo * b_hi
        hl = a_hi * b_lo
        hh = a_hi * b_hi
        carry = (ll >> _SHIFT32) + (lh & _MASK32) + (hl & _MASK32)
        lo = (ll & _MASK32) | (carry << 32)
        hi = hh + (lh >> _SHIFT32) + (hl >> _SHIFT32) + (carry >> _SHIFT32)
    return hi, lo


def lemire_bounded(words: np.ndarray, span: int) -> np.ndarray:
    """Unbiased integers in ``[0, span)``; 1 word/attempt, yield <= 1.

    Lemire's multiply-shift: ``hi(w * span)`` is uniform on ``[0, span)``
    once the ``2**64 mod span`` smallest low-halves are rejected.  When
    ``span`` is a power of two no word is ever rejected.  Returns uint64.
    """
    if not 1 <= span <= 2**64:
        raise ValueError(f"span must be in [1, 2**64], got {span}")
    if span == 2**64:
        return words.astype(np.uint64, copy=True)
    hi, lo = mulhilo64(words, span)
    threshold = (2**64 - span) % span  # == 2**64 mod span
    if threshold:
        return hi[lo >= np.uint64(threshold)]
    return hi
