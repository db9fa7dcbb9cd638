"""Streaming statistical detectors over windows of 64-bit words.

Each detector reduces one sampled window to a p-value under the null
hypothesis "the words are i.i.d. uniform on ``[0, 2**64)``"; the
:class:`~repro.obs.sentinel.verdict.StreamSentinel` turns those p-values
into a sticky verdict with an alpha-spending schedule.  The detectors
are window-local (monobit, runs, byte chi-square) except the KS drift
check, which runs on a reservoir accumulated across windows.

The p-values come from ``scipy.special``, imported lazily inside the
evaluation calls, so importing the sentinel does not load ``scipy``;
only the first evaluated window does.  Not from
``scipy.stats``: its import takes about a second and 45 MB, and a
server would pay both on the event loop at its first evaluated window.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "popcount",
    "monobit_pvalue",
    "runs_pvalue",
    "byte_chi2_pvalue",
    "entropy_rate",
    "ks_drift_pvalue",
    "evaluate_window",
]

#: Bits set per byte value; vectorized popcount via a uint8 view.
_POPCOUNT_LUT = np.array(
    [bin(i).count("1") for i in range(256)], dtype=np.uint16
)

#: Mask clearing bit 63 (``x ^ (x >> 1)`` has a spurious MSB).
_MASK63 = np.uint64((1 << 63) - 1)


def popcount(words: np.ndarray) -> int:
    """Total set bits across a uint64 array."""
    if words.size == 0:
        return 0
    return int(_POPCOUNT_LUT[words.view(np.uint8)].sum())


def monobit_pvalue(words: np.ndarray) -> float:
    """NIST frequency (monobit) test over the window's bits.

    ``z = (2 * ones - bits) / sqrt(bits)`` is standard normal under H0;
    the returned p-value is two-sided.
    """
    bits = 64 * words.size
    if bits == 0:
        return 1.0
    ones = popcount(words)
    z = (2.0 * ones - bits) / math.sqrt(bits)
    return math.erfc(abs(z) / math.sqrt(2.0))


def runs_pvalue(words: np.ndarray) -> Optional[float]:
    """NIST runs test over the window's bit sequence (MSB-first words).

    Counts bit transitions vectorized: within-word via
    ``popcount((x ^ (x >> 1)) & ~2**63)``, across word boundaries by
    comparing each word's LSB with the next word's MSB.  Returns ``None``
    when the monobit precondition ``|pi - 1/2| >= 2 / sqrt(n)`` fails --
    the frequency test has already caught that window.
    """
    n = 64 * words.size
    if n < 128:
        return None
    pi = popcount(words) / n
    tau = 2.0 / math.sqrt(n)
    if abs(pi - 0.5) >= tau:
        return None  # precondition failed; monobit owns this window
    transitions = popcount((words ^ (words >> np.uint64(1))) & _MASK63)
    if words.size > 1:
        boundary = (words[:-1] & np.uint64(1)) ^ (
            words[1:] >> np.uint64(63)
        )
        transitions += int(boundary.sum())
    v = transitions + 1
    denom = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return math.erfc(abs(v - 2.0 * n * pi * (1.0 - pi)) / denom)


def byte_chi2_pvalue(words: np.ndarray) -> float:
    """Chi-square goodness of fit of the window's byte histogram.

    255 degrees of freedom against the uniform byte distribution; the
    decision statistic behind the entropy-rate gauge.
    """
    if words.size == 0:
        return 1.0
    hist = np.bincount(words.view(np.uint8), minlength=256)
    expected = hist.sum() / 256.0
    stat = float(((hist - expected) ** 2 / expected).sum())
    from scipy.special import chdtrc  # what scipy.stats.chi2.sf calls

    return float(chdtrc(255, stat))


def entropy_rate(words: np.ndarray) -> float:
    """Plug-in Shannon entropy of the window's bytes, in bits/byte.

    Informational (exported as a gauge): the plug-in estimator is biased
    low by roughly ``255 / (2 * ln(2) * n_bytes)`` bits, so it is not a
    test statistic -- :func:`byte_chi2_pvalue` is the decision.
    """
    if words.size == 0:
        return 0.0
    hist = np.bincount(words.view(np.uint8), minlength=256)
    probs = hist[hist > 0] / hist.sum()
    return float(-(probs * np.log2(probs)).sum())


def ks_drift_pvalue(samples: Sequence[float]) -> Optional[float]:
    """KS p-value of reservoir-held uniform samples against U(0, 1).

    ``None`` when the reservoir is too small to be meaningful.  The
    two-sided tail is twice the one-sided (Smirnov) tail, capped at 1:
    the same value ``scipy.stats.kstest`` gives where it is small, which
    is where every alpha threshold lies, and an upper bound near 1.
    """
    arr = np.sort(np.asarray(samples, dtype=np.float64))
    n = arr.size
    if n < 20:
        return None
    d = max((np.arange(1.0, n + 1) / n - arr).max(),
            (arr - np.arange(0.0, n) / n).max())
    from scipy.special import smirnov

    return min(1.0, 2.0 * float(smirnov(n, d)))


def evaluate_window(words: np.ndarray) -> dict:
    """All window-local detectors at once: name -> p-value (or ``None``).

    The caller owns combining these (Bonferroni within the window) and
    any cross-window state; this function is pure.
    """
    return {
        "monobit": monobit_pvalue(words),
        "runs": runs_pvalue(words),
        "byte_chi2": byte_chi2_pvalue(words),
    }
