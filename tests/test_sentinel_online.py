"""Tests for the sentinel's online detectors and verdict engine."""

import subprocess
import sys

import numpy as np
import pytest


from repro.obs import metrics as obs_metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.sentinel import (
    SentinelConfig,
    StreamSentinel,
    Verdict,
)
from repro.obs.sentinel import online


def _good_words(n, seed=7):
    """An i.i.d.-uniform uint64 stream the detectors must not flag."""
    return np.random.default_rng(seed).integers(
        0, 2**64, size=n, dtype=np.uint64
    )


class TestOnlineDetectors:
    def test_popcount_matches_python(self):
        words = _good_words(64)
        expected = sum(bin(int(w)).count("1") for w in words)
        assert online.popcount(words) == expected

    def test_monobit_zeros_is_condemned(self):
        assert online.monobit_pvalue(np.zeros(64, dtype=np.uint64)) < 1e-100

    def test_monobit_balanced_is_perfect(self):
        words = np.full(64, 0xAAAAAAAAAAAAAAAA, dtype=np.uint64)
        assert online.monobit_pvalue(words) == pytest.approx(1.0)

    def test_monobit_good_stream_passes(self):
        assert online.monobit_pvalue(_good_words(4096)) > 1e-4

    def test_runs_alternating_bits_is_condemned(self):
        # 0b0101... has the maximum possible number of runs.
        words = np.full(64, 0x5555555555555555, dtype=np.uint64)
        assert online.runs_pvalue(words) < 1e-100

    def test_runs_counts_word_boundary_transitions(self):
        # All-ones then all-zeros: one transition, V = 2, far below the
        # expected ~n/2 runs -- but the monobit precondition fails first
        # (pi is exactly 1/2 here, so the runs test does run).
        words = np.array([~np.uint64(0), np.uint64(0)], dtype=np.uint64)
        p = online.runs_pvalue(words)
        assert p is not None and p < 1e-6

    def test_runs_precondition_defers_to_monobit(self):
        assert online.runs_pvalue(np.zeros(64, dtype=np.uint64)) is None

    def test_runs_good_stream_passes(self):
        assert online.runs_pvalue(_good_words(4096)) > 1e-4

    def test_byte_chi2_constant_bytes_condemned(self):
        words = np.full(256, 0x4141414141414141, dtype=np.uint64)
        assert online.byte_chi2_pvalue(words) < 1e-100

    def test_byte_chi2_good_stream_passes(self):
        assert online.byte_chi2_pvalue(_good_words(4096)) > 1e-4

    def test_entropy_rate_bounds(self):
        assert online.entropy_rate(np.zeros(64, dtype=np.uint64)) == 0.0
        rate = online.entropy_rate(_good_words(4096))
        assert 7.9 < rate <= 8.0

    def test_ks_drift_needs_samples(self):
        assert online.ks_drift_pvalue([0.5] * 5) is None

    def test_ks_drift_flags_collapsed_uniforms(self):
        assert online.ks_drift_pvalue([0.5] * 200) < 1e-12

    def test_ks_drift_passes_uniforms(self):
        u = np.random.default_rng(3).random(200)
        assert online.ks_drift_pvalue(u) > 1e-4


class TestPValuesWithoutScipyStats:
    """The detectors take their tails from ``scipy.special``: importing
    ``scipy.stats`` costs about a second and 45 MB, which a server paid
    on its event loop at the first evaluated window."""

    def test_a_served_sentinel_never_imports_scipy_stats(self, repro_env):
        script = (
            "import sys\n"
            "import numpy as np\n"
            "import repro.serve\n"
            "from repro.obs.sentinel import SentinelConfig, StreamSentinel\n"
            "cfg = SentinelConfig()\n"
            "s = StreamSentinel(cfg)\n"
            "rng = np.random.default_rng(1)\n"
            "for _ in range(cfg.ks_every):\n"
            "    s.observe(rng.integers(0, 2**64, cfg.window_words"
            " * cfg.sample_every, dtype=np.uint64))\n"
            "state = s.state()\n"
            "assert state['windows'] == cfg.ks_every\n"
            "assert {'byte_chi2', 'ks_drift'} <= set(state['last_window'])\n"
            "print('scipy.stats' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], env=repro_env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"

    def test_byte_chi2_matches_scipy_stats(self):
        import scipy.stats as sps

        rng = np.random.default_rng(4)
        for size in (16, 256, 4096):
            for mask in (2**64 - 1, 0xFEFFFFFFFFFFFFFF, 0xFEFEFEFEFEFEFEFE):
                words = rng.integers(0, 2**64, size=size, dtype=np.uint64)
                words &= np.uint64(mask)
                hist = np.bincount(words.view(np.uint8), minlength=256)
                assert online.byte_chi2_pvalue(words) == pytest.approx(
                    sps.chisquare(hist).pvalue, rel=1e-12, abs=1e-300
                )

    @pytest.mark.parametrize("n", [64, 128, 192, 256])
    def test_ks_drift_matches_scipy_stats(self, n):
        """The reservoir's sizes at the first four KS checks.  Where
        scipy's p is small the two agree; elsewhere this one may read
        higher, by at most 0.13, and never lower beyond rounding."""
        import scipy.stats as sps

        rng = np.random.default_rng(n)
        small = 0
        for power in (1.0, 1.25, 1.5, 2.0):  # uniform, then drifted
            for _ in range(40):
                u = rng.random(n) ** power
                want = sps.kstest(u, "uniform").pvalue
                got = online.ks_drift_pvalue(u)
                if want < 0.01:
                    small += 1
                    assert got == pytest.approx(want, rel=1e-6)
                else:
                    assert want * (1 - 1e-4) <= got <= want + 0.13
        assert small >= 40


def test_generators_import_no_sentinel_module(repro_env):
    """Generators know nothing of the sentinel: whoever holds the words
    calls ``observe``."""
    script = (
        "import sys\n"
        "import repro.core\n"
        "print(sorted(m for m in sys.modules"
        " if m.startswith('repro.obs.sentinel')))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], env=repro_env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


class TestSentinelConfig:
    def test_defaults_valid(self):
        cfg = SentinelConfig()
        assert cfg.window_words == 4096 and cfg.sample_every == 16

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_words": 32},
            {"sample_every": 0},
            {"reservoir": -1},
            {"ks_every": 0},
            {"alpha_budget": 0.0},
            {"alpha_budget": 1.5},
            {"p_bad": 0.0},
            {"bad_after": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            SentinelConfig(**kwargs)


class TestStreamSentinel:
    def test_zeros_go_stat_bad_within_one_window(self):
        s = StreamSentinel(SentinelConfig(window_words=256, sample_every=1))
        s.observe(np.zeros(256, dtype=np.uint64))
        assert s.verdict is Verdict.STAT_BAD
        assert s.health_name() == "FAILED"

    def test_good_stream_stays_ok(self):
        s = StreamSentinel(SentinelConfig(window_words=1024, sample_every=1))
        rng = np.random.default_rng(11)
        for _ in range(16):
            s.observe(rng.integers(0, 2**64, size=2048, dtype=np.uint64))
        assert s.verdict is Verdict.STAT_OK
        state = s.state()
        assert state["windows"] == 32 and state["failures"] == 0

    def test_observe_is_non_consuming(self):
        s = StreamSentinel(SentinelConfig(window_words=64, sample_every=1))
        arr = _good_words(256)
        before = arr.copy()
        s.observe(arr)
        np.testing.assert_array_equal(arr, before)

    def test_fetch_sizing_cannot_change_what_is_sampled(self):
        """Slicing invariance: the same stream in different chunkings
        yields the identical sentinel state (stride phase persists)."""
        stream = _good_words(6000, seed=5)

        def run(chunks):
            s = StreamSentinel(
                SentinelConfig(window_words=256, sample_every=4, seed=9)
            )
            pos = 0
            for c in chunks:
                s.observe(stream[pos : pos + c])
                pos += c
            return s.state()

        whole = run([6000])
        sliced = run([1, 7, 250, 1024, 3, 4715])
        assert whole == sliced
        assert whole["words_seen"] == 6000
        assert whole["words_sampled"] == 1500

    def test_verdict_is_sticky_until_reset(self):
        s = StreamSentinel(SentinelConfig(window_words=128, sample_every=1))
        s.observe(np.zeros(128, dtype=np.uint64))
        assert s.verdict is Verdict.STAT_BAD
        for _ in range(8):
            s.observe(_good_words(128))
        assert s.verdict is Verdict.STAT_BAD  # sticky
        s.reset()
        assert s.verdict is Verdict.STAT_OK
        assert s.state()["windows"] == 0

    def test_ignores_non_uint64_and_empty(self):
        s = StreamSentinel(SentinelConfig(window_words=64))
        s.observe(None)
        s.observe(np.empty(0, dtype=np.uint64))
        s.observe(np.zeros(64, dtype=np.float64))
        assert s.state()["words_seen"] == 0

    def test_alpha_schedule_sums_to_budget(self):
        s = StreamSentinel(SentinelConfig(alpha_budget=1e-4))
        total = sum(s._alpha(k) for k in range(100_000))
        assert total < 1e-4
        assert total > 0.9e-4

    def test_metrics_exported_when_enabled(self):
        registry = MetricsRegistry()
        old = obs_metrics.get_registry()
        obs_metrics.set_registry(registry)
        try:
            s = StreamSentinel(
                SentinelConfig(window_words=128, sample_every=1)
            )
            s.observe(np.zeros(256, dtype=np.uint64))
        finally:
            obs_metrics.set_registry(old if old.enabled else None)
        snap = registry.snapshot()
        assert snap["repro_sentinel_windows_total"] == 2
        assert snap["repro_sentinel_failures_total"] == 2
        assert snap["repro_sentinel_verdict"] == 2.0

    def test_state_is_json_ready(self):
        import json

        s = StreamSentinel(SentinelConfig(window_words=128, sample_every=1))
        s.observe(_good_words(512))
        doc = json.loads(json.dumps(s.state()))
        assert doc["verdict"] == "STAT_OK"
        assert set(doc["last_window"]) >= {"monobit", "byte_chi2"}

    def test_summary_is_flat(self):
        s = StreamSentinel(SentinelConfig(window_words=128, sample_every=1))
        s.observe(_good_words(256))
        summary = s.summary()
        assert summary["verdict"] == "STAT_OK"
        assert all(
            not isinstance(v, (dict, list)) for v in summary.values()
        )
        assert "p_monobit" in summary

