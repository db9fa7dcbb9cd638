"""Sticky statistical verdicts over a sampled stream: the sentinel core.

A :class:`StreamSentinel` watches one logical stream through the words
its owner hands to :meth:`StreamSentinel.observe`, samples one word in
``sample_every`` into a private window buffer, and evaluates the
:mod:`online <repro.obs.sentinel.online>` detectors whenever a window
fills.  The verdict is **sticky** -- once a stream has looked bad it
stays flagged until the sentinel is reset -- mirroring how the
resilience layer's ``FeedHealth`` never silently un-degrades.

False positives are controlled with an **alpha-spending schedule**: the
failure threshold of window ``k`` (0-based) is::

    alpha_k = alpha_budget * 6 / (pi**2 * (k + 1)**2)

which sums to at most ``alpha_budget`` over an *unbounded* run, so a
healthy stream served forever still has probability < ``alpha_budget``
of ever leaving STAT_OK.  Within a window, the minimum detector p-value
is Bonferroni-corrected by the number of detectors evaluated.

Escalation:

* corrected ``p < alpha_k``     -> one *failure*; the verdict becomes
  STAT_SUSPECT, and STAT_BAD after ``bad_after`` cumulative failures;
* corrected ``p < p_bad``       -> STAT_BAD immediately (a stream of
  zeros should not need two windows to be condemned).

Verdicts are exported through :mod:`repro.obs.metrics` and a
``sentinel`` trace span per evaluated window, and map onto the
resilience health scale via :meth:`StreamSentinel.health_name`
(STAT_SUSPECT -> DEGRADED, STAT_BAD -> FAILED) so serve health checks
fail on statistically-bad streams.
"""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.sentinel import online
from repro.obs.trace import span

__all__ = ["Verdict", "SentinelConfig", "StreamSentinel",
           "SENTINEL_P_BUCKETS"]

#: p-value histogram bounds for sentinel windows (log-ish low tail).
SENTINEL_P_BUCKETS = (
    1e-12, 1e-9, 1e-6, 1e-4, 0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0
)


class Verdict(enum.IntEnum):
    """Statistical health of a stream; ordered so ``max`` is 'worst'."""

    STAT_OK = 0
    STAT_SUSPECT = 1
    STAT_BAD = 2


#: Verdict -> resilience ``FeedHealth`` name (kept as strings so the
#: sentinel never imports the resilience layer).
_HEALTH_NAME = {
    Verdict.STAT_OK: "OK",
    Verdict.STAT_SUSPECT: "DEGRADED",
    Verdict.STAT_BAD: "FAILED",
}


@dataclass(frozen=True)
class SentinelConfig:
    """Sampling and decision parameters of one sentinel."""

    #: Sampled words per evaluated window.
    window_words: int = 4096
    #: Keep one word in this many (1 = observe everything).
    sample_every: int = 16
    #: Uniform samples retained across windows for the KS drift check.
    reservoir: int = 256
    #: Run the KS drift check every this many completed windows.
    ks_every: int = 4
    #: Total false-alarm probability over an unbounded run.
    alpha_budget: float = 1e-4
    #: Immediate STAT_BAD when a corrected window p-value is below this.
    p_bad: float = 1e-12
    #: Cumulative window failures before STAT_SUSPECT becomes STAT_BAD.
    bad_after: int = 2
    #: Keys the deterministic reservoir-replacement decisions.
    seed: int = 0

    def __post_init__(self):
        if self.window_words < 64:
            raise ValueError(
                f"window_words must be >= 64, got {self.window_words}"
            )
        if self.sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {self.sample_every}"
            )
        if self.reservoir < 0:
            raise ValueError(f"reservoir must be >= 0, got {self.reservoir}")
        if self.ks_every < 1:
            raise ValueError(f"ks_every must be >= 1, got {self.ks_every}")
        if not 0.0 < self.alpha_budget < 1.0:
            raise ValueError(
                f"alpha_budget must be in (0, 1), got {self.alpha_budget}"
            )
        if not 0.0 < self.p_bad < 1.0:
            raise ValueError(f"p_bad must be in (0, 1), got {self.p_bad}")
        if self.bad_after < 1:
            raise ValueError(f"bad_after must be >= 1, got {self.bad_after}")


def _mix64(x: int) -> int:
    """SplitMix64 finalizer (local copy; keeps this module core-free)."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class StreamSentinel:
    """Streaming statistical health of one stream; thread-safe, sticky.

    ``observe(values)`` is the whole write API: hand it every generated
    batch, in stream order, and read ``verdict`` / ``state()`` back.
    ``observe`` treats its argument as read-only and copies the sampled
    words, so callers may reuse or byte-swap their buffers freely
    afterwards -- the non-consuming guarantee golden streams rely on.
    """

    def __init__(
        self,
        config: Optional[SentinelConfig] = None,
        name: str = "stream",
    ):
        self.config = config or SentinelConfig()
        self.name = name
        self._lock = threading.Lock()
        self._window = np.empty(self.config.window_words, dtype=np.uint64)
        self._fill = 0
        self._seen = 0       # raw words observed (pre-sampling)
        self._sampled = 0    # words copied into windows
        self._windows = 0    # completed (evaluated) windows
        self._failures = 0   # windows that failed their alpha share
        self._verdict = Verdict.STAT_OK
        self._worst_p = 1.0
        self._last: dict = {}
        self._entropy_rate = float("nan")
        self._ks_p: Optional[float] = None
        self._reservoir = np.empty(self.config.reservoir, dtype=np.float64)
        self._reservoir_fill = 0
        self._reservoir_seen = 0

    # ------------------------------------------------------------------
    # Observation (hot path)
    # ------------------------------------------------------------------

    def observe(self, values) -> None:
        """Sample a freshly generated batch into the current window.

        Sampling keeps a persistent phase across calls (word ``i`` of
        the *stream* is kept iff ``i % sample_every == 0``), so how a
        client sizes its fetches cannot change which words the sentinel
        sees -- the same slicing invariance the stream itself has.
        """
        if values is None:
            return
        arr = np.asarray(values)
        if arr.size == 0 or arr.dtype != np.uint64 or arr.ndim != 1:
            return
        k = self.config.sample_every
        with self._lock:
            start = (-self._seen) % k
            self._seen += arr.size
            if start >= arr.size:
                return
            # Copy: the caller may byte-swap/reuse this buffer next.
            sampled = arr[start::k].copy() if k > 1 else arr.copy()
            self._sampled += sampled.size
            pos = 0
            while pos < sampled.size:
                take = min(
                    sampled.size - pos, self._window.size - self._fill
                )
                self._window[self._fill : self._fill + take] = (
                    sampled[pos : pos + take]
                )
                self._fill += take
                pos += take
                if self._fill == self._window.size:
                    self._evaluate_window()
                    self._fill = 0

    # ------------------------------------------------------------------
    # Window evaluation (holds the lock; called from observe)
    # ------------------------------------------------------------------

    def _alpha(self, k: int) -> float:
        """Window ``k``'s share of the alpha budget (sums to the budget)."""
        return self.config.alpha_budget * 6.0 / (math.pi**2 * (k + 1) ** 2)

    def _evaluate_window(self) -> None:
        cfg = self.config
        k = self._windows
        window = self._window
        p_values = online.evaluate_window(window)
        self._entropy_rate = online.entropy_rate(window)
        self._update_reservoir(window)
        if cfg.reservoir and (k + 1) % cfg.ks_every == 0:
            self._ks_p = online.ks_drift_pvalue(
                self._reservoir[: self._reservoir_fill]
            )
            p_values["ks_drift"] = self._ks_p
        evaluated = {n: p for n, p in p_values.items() if p is not None}
        self._last = dict(evaluated)
        self._windows += 1
        # Bonferroni within the window, alpha-spending across windows.
        m = max(1, len(evaluated))
        p_min = min(evaluated.values(), default=1.0)
        corrected = min(1.0, p_min * m)
        self._worst_p = min(self._worst_p, corrected)
        threshold = self._alpha(k)
        failed = corrected < threshold
        if failed:
            self._failures += 1
            if corrected < cfg.p_bad or self._failures >= cfg.bad_after:
                verdict = Verdict.STAT_BAD
            else:
                verdict = Verdict.STAT_SUSPECT
            self._verdict = max(self._verdict, verdict)
        self._export(k, corrected, failed)

    def _update_reservoir(self, window: np.ndarray) -> None:
        """Deterministic reservoir of uniform samples across windows.

        Uses Algorithm R with SplitMix64-keyed replacement decisions, so
        the same stream always yields the same reservoir (the sentinel
        stays as replayable as the generator it watches).  One candidate
        per window head keeps the cost per window O(1)-ish.
        """
        size = self.config.reservoir
        if size == 0 or window.size == 0:
            return
        # Thin the window: at most 16 candidates per window keeps the
        # reservoir slow-moving (drift detection, not window detection).
        step = max(1, window.size // 16)
        for value in window[::step]:
            u = float(value) / 2.0**64
            j = self._reservoir_seen
            self._reservoir_seen += 1
            if self._reservoir_fill < size:
                self._reservoir[self._reservoir_fill] = u
                self._reservoir_fill += 1
                continue
            r = _mix64(self.config.seed ^ j) % (j + 1)
            if r < size:
                self._reservoir[r] = u

    def _export(self, k: int, corrected: float, failed: bool) -> None:
        """Metrics + one trace span per evaluated window."""
        obs_metrics.counter(
            "repro_sentinel_windows_total", "Sentinel windows evaluated"
        ).inc()
        if failed:
            obs_metrics.counter(
                "repro_sentinel_failures_total",
                "Sentinel windows outside their alpha share",
            ).inc()
        obs_metrics.gauge(
            "repro_sentinel_verdict",
            "Worst sentinel verdict (0=OK, 1=SUSPECT, 2=BAD)",
        ).set(int(self._verdict))
        obs_metrics.gauge(
            "repro_sentinel_entropy_rate",
            "Plug-in byte entropy of the last window (bits/byte)",
        ).set(self._entropy_rate)
        obs_metrics.histogram(
            "repro_sentinel_window_p_values", SENTINEL_P_BUCKETS,
            "Bonferroni-corrected minimum p-value per sentinel window",
        ).observe(corrected)
        with span(
            "sentinel",
            stream=self.name,
            window=k,
            p=corrected,
            verdict=self._verdict.name,
        ):
            pass

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------

    @property
    def verdict(self) -> Verdict:
        with self._lock:
            return self._verdict

    def health_name(self) -> str:
        """Verdict on the resilience scale: OK / DEGRADED / FAILED."""
        return _HEALTH_NAME[self.verdict]

    def state(self) -> dict:
        """JSON-ready nested view (the serve STATUS payload shape)."""
        with self._lock:
            return {
                "verdict": self._verdict.name,
                "windows": self._windows,
                "failures": self._failures,
                "words_seen": self._seen,
                "words_sampled": self._sampled,
                "worst_p": self._worst_p,
                "entropy_rate": (
                    None
                    if math.isnan(self._entropy_rate)
                    else round(self._entropy_rate, 4) + 0.0
                ),
                "last_window": {
                    name: float(p) for name, p in self._last.items()
                },
                "sample_every": self.config.sample_every,
                "window_words": self.config.window_words,
            }

    def summary(self) -> dict:
        """Flat view for :class:`repro.obs.report.RunReport` sections."""
        state = self.state()
        out = {
            "verdict": state["verdict"],
            "windows": state["windows"],
            "failures": state["failures"],
            "words_seen": state["words_seen"],
            "words_sampled": state["words_sampled"],
            "worst_p": state["worst_p"],
            "entropy_rate": state["entropy_rate"],
        }
        for name, p in state["last_window"].items():
            out[f"p_{name}"] = p
        return out

    def reset(self) -> None:
        """Forget everything, including the sticky verdict."""
        with self._lock:
            self._fill = 0
            self._seen = 0
            self._sampled = 0
            self._windows = 0
            self._failures = 0
            self._verdict = Verdict.STAT_OK
            self._worst_p = 1.0
            self._last = {}
            self._entropy_rate = float("nan")
            self._ks_p = None
            self._reservoir_fill = 0
            self._reservoir_seen = 0

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"StreamSentinel(name={self.name!r}, "
            f"verdict={self.verdict.name}, windows={self._windows})"
        )
