"""Offline paranoid-style detectors for pathological stream *pairs*.

The online sentinel watches one stream at a time; these checks look at
the relationships a deployment actually depends on -- that
``derive_seed`` substreams are independent, that no two sessions
collapse onto one stream through a weak seed, and that the glibc feed's
additive-feedback lattice (``o[i] = o[i-3] + o[i-31] (+carry)``) does
not leak through the expander walk into the served numbers.  They are
batch jobs, run from ``repro sentinel`` (and the CI sentinel job), not
from the serving hot path.

All ``repro.core`` / ``repro.bitsource`` imports are deferred into the
functions, so each call looks ``derive_seed`` up in
``repro.core.streams`` when it runs: the tests collapse the derivation
by patching that module attribute, and the screens must see the patch.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "substream_correlation",
    "weak_seed_screen",
    "lag_structure",
    "glibc_lag_reference",
]

#: Flagging threshold for the corrected cross-correlation p-value.
CORRELATION_ALPHA = 1e-6

#: A lag-structure hit rate this far above chance flags feed leakage.
LAG_ALPHA = 1e-9


def substream_correlation(
    master_seed: int,
    streams: int = 8,
    words: int = 4096,
    lanes: int = 64,
) -> dict:
    """Pairwise cross-correlation of ``derive_seed`` substreams.

    Generates ``streams`` independent expander streams exactly the way
    the serve layer derives session streams (SplitMix64 feed seeded with
    ``derive_seed(master_seed, i)``), maps them to uniforms, and tests
    every pair's Pearson correlation with the Fisher z-transform,
    Bonferroni-corrected over all pairs.  Under independence the
    corrected minimum p-value is uniform-ish; a shared or mirrored
    stream drives it to ~0.
    """
    if streams < 2:
        raise ValueError(f"need at least 2 streams, got {streams}")
    if words < 8:
        raise ValueError(f"need at least 8 words per stream, got {words}")
    from repro.bitsource.counter import SplitMix64Source
    from repro.core.parallel import ParallelExpanderPRNG
    from repro.core.streams import derive_seed
    from repro.utils.bits import u01_from_u64

    u = np.empty((streams, words), dtype=np.float64)
    for i in range(streams):
        prng = ParallelExpanderPRNG(
            num_threads=lanes,
            bit_source=SplitMix64Source(derive_seed(master_seed, i)),
        )
        u[i] = u01_from_u64(prng.generate(words))
    corr = np.corrcoef(u)
    pairs = []
    n = words
    worst_p = 1.0
    npairs = streams * (streams - 1) // 2
    for i in range(streams):
        for j in range(i + 1, streams):
            r = float(np.clip(corr[i, j], -0.999999, 0.999999))
            z = math.sqrt(n - 3) * math.atanh(r)
            p = math.erfc(abs(z) / math.sqrt(2.0))
            corrected = min(1.0, p * npairs)
            worst_p = min(worst_p, corrected)
            if corrected < CORRELATION_ALPHA:
                pairs.append({"i": i, "j": j, "r": r, "p": corrected})
    return {
        "check": "substream_correlation",
        "streams": streams,
        "words": words,
        "pairs_tested": npairs,
        "worst_p": worst_p,
        "flagged": pairs,
        "ok": not pairs,
    }


def weak_seed_screen(
    master_seed: int,
    streams: int = 256,
    prefix_words: int = 8,
) -> dict:
    """Screen ``derive_seed`` session indices for colliding streams.

    Three independent collision checks over stream indices
    ``0..streams-1`` (the serve layer's SHA-256 session indices land in
    the same space):

    * **derived-seed collisions** -- two indices mapping to the same
      64-bit seed (SplitMix64 is a bijection per master seed, so any
      collision is a wiring bug);
    * **effective glibc-seed collisions** -- ``GlibcRandom`` consumes
      ``seed & 0xFFFFFFFF`` with 0 coerced to 1, so distinct 64-bit
      seeds *can* collapse if only the low word is used somewhere;
    * **feed-prefix collisions** -- the first ``prefix_words`` feed
      words of each stream's SplitMix64 source; a collision here means
      two sessions would serve overlapping numbers.
    """
    if streams < 2:
        raise ValueError(f"need at least 2 streams, got {streams}")
    from repro.bitsource.counter import SplitMix64Source
    from repro.core.streams import derive_seed

    seeds = [derive_seed(master_seed, i) for i in range(streams)]
    seed_dupes = _collisions(seeds)
    effective = [(s & 0xFFFFFFFF) or 1 for s in seeds]
    glibc_dupes = _collisions(effective)
    prefixes = [
        SplitMix64Source(s).words64(prefix_words).tobytes() for s in seeds
    ]
    prefix_dupes = _collisions(prefixes)
    flagged = sorted(set(seed_dupes) | set(prefix_dupes))
    return {
        "check": "weak_seed_screen",
        "streams": streams,
        "prefix_words": prefix_words,
        "seed_collisions": len(seed_dupes),
        "effective_glibc_collisions": len(glibc_dupes),
        "prefix_collisions": len(prefix_dupes),
        "flagged": [{"i": i, "j": j} for i, j in flagged],
        "ok": not flagged,
    }


def _collisions(values: Sequence) -> list:
    """Index pairs of equal values, first occurrence wins."""
    first = {}
    out = []
    for i, v in enumerate(values):
        if v in first:
            out.append((first[v], i))
        else:
            first[v] = i
    return out


def lag_structure(
    outputs: np.ndarray,
    deg: int = 31,
    sep: int = 3,
    modulus: int = 2**31,
) -> dict:
    """Detect glibc TYPE_3 additive-feedback structure in an output run.

    The glibc feed satisfies ``o[i] = o[i-3] + o[i-31] + c (mod 2**31)``
    with carry ``c`` in ``{0, 1}`` for *every* i, because the table
    recurrence adds full 32-bit words and emits ``raw >> 1``.  For an
    i.i.d. uniform stream the relation holds by chance with probability
    ``2 / modulus`` per index (~1e-9), so essentially any hits flag
    leakage.  Feed the *raw 31-bit feed outputs* here (the leak being
    screened for); the expander walk's 64-bit numbers cannot be unpacked
    back into that stream, which is exactly the point -- a generator
    whose output *can* be fed through this check and lights it up is
    passing its feed straight through.
    """
    arr = np.asarray(outputs, dtype=np.uint64)
    if arr.ndim != 1 or arr.size <= deg:
        raise ValueError(
            f"need a 1-D run longer than deg={deg}, got size {arr.size}"
        )
    mod = np.uint64(modulus)
    lhs = arr[deg:]
    pred = (arr[deg - sep : -sep] + arr[: -deg]) % mod
    resid = (lhs - pred) % mod
    hits = int(((resid == 0) | (resid == 1)).sum())
    n = int(lhs.size)
    p0 = 2.0 / modulus
    p_value = _binom_sf(hits - 1, n, p0) if hits else 1.0
    return {
        "check": "lag_structure",
        "deg": deg,
        "sep": sep,
        "n": n,
        "hits": hits,
        "fraction": hits / n,
        "p_value": p_value,
        "leaky": p_value < LAG_ALPHA,
    }


def glibc_lag_reference(seed: int = 1, n: int = 4096) -> dict:
    """Positive control: :func:`lag_structure` on the raw glibc feed.

    Returns the check's result for ``n`` raw ``rand()`` outputs --
    expected ``fraction == 1.0`` and ``leaky == True``.  Used by the CLI
    and tests to prove the detector works.
    """
    from repro.bitsource.glibc import GlibcRandom

    outputs = GlibcRandom(seed).rand_array(n)
    return lag_structure(np.asarray(outputs, dtype=np.uint64))


def _binom_sf(k: int, n: int, p: float) -> float:
    """P(X > k) for X ~ Binomial(n, p); lazy SciPy with a Poisson guard.

    For the tiny ``p`` used here the Poisson tail is an excellent
    fallback, but SciPy is present in this environment so the exact
    survival function is used.
    """
    try:
        import scipy.stats as sps

        return float(sps.binom.sf(k, n, p))
    except Exception:  # pragma: no cover - scipy is a hard dep in practice
        lam = n * p
        # P(X > k) = 1 - sum_{i<=k} e^-lam lam^i / i!
        term = math.exp(-lam)
        total = term
        for i in range(1, k + 1):
            term *= lam / i
            total += term
        return max(0.0, 1.0 - total)
