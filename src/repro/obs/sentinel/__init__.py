"""Continuous quality sentinel: streaming statistical health of streams.

The offline batteries (:mod:`repro.quality`) certify a generator before
deployment; the sentinel watches it *while serving*.  Whoever holds the
generated words hands them to :meth:`StreamSentinel.observe`, which
samples windows into incremental detectors
(:mod:`~repro.obs.sentinel.online`) and turns window p-values into a
sticky STAT_OK / STAT_SUSPECT / STAT_BAD verdict with a bounded
lifetime false-alarm budget (:mod:`~repro.obs.sentinel.verdict`).
Offline pair-level checks (cross-correlation, weak seeds, glibc lag
leakage) live in :mod:`~repro.obs.sentinel.pairs` behind the ``repro
sentinel`` CLI.

Typical in-process use::

    from repro.obs import sentinel

    guard = sentinel.StreamSentinel(name="bulk")
    prng.generate_into(out)
    guard.observe(out)                   # reads and copies, never consumes
    print(guard.verdict.name, guard.state())

The serve layer instead creates one sentinel per session and folds its
verdict into session/server health (see :mod:`repro.serve.session`).
"""

from repro.obs.sentinel.verdict import (
    SENTINEL_P_BUCKETS,
    SentinelConfig,
    StreamSentinel,
    Verdict,
)

__all__ = [
    "Verdict",
    "SentinelConfig",
    "StreamSentinel",
    "SENTINEL_P_BUCKETS",
]
