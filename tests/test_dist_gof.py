"""Goodness-of-fit tests for the ``repro.dist`` samplers.

Fixed seeds, generous p-value floors (0.01): these are correctness
tests of the transforms (a wrong ziggurat table or a biased bounded
integer fails them decisively), not flakiness probes.
"""

import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.hybrid_adapter import HybridPRNG
from repro.baselines.mt19937 import MT19937
from repro.bitsource import SplitMix64Source
from repro.dist import DistStream
from repro.dist.tables import ZIG_R, ZIG_TAIL_SF


def stream(seed=271828):
    return DistStream(MT19937(seed).u64_array)


N = 200_000


class TestUniform01:
    def test_ks(self):
        assert sps.kstest(stream().uniform01(N), "uniform").pvalue > 0.01

    def test_range_and_granularity(self):
        x = stream().uniform01(N)
        assert x.min() >= 0.0 and x.max() < 1.0
        # 53-bit mantissas: values times 2**53 are exact integers.
        scaled = x * 2.0**53
        assert np.array_equal(scaled, np.floor(scaled))


class TestNormal:
    @pytest.mark.parametrize("method", ["ziggurat", "polar", "boxmuller"])
    def test_ks(self, method):
        x = stream().normal(N, method=method)
        assert sps.kstest(x, "norm").pvalue > 0.01

    @pytest.mark.parametrize("method", ["ziggurat", "polar", "boxmuller"])
    def test_moments(self, method):
        x = stream().normal(N, mean=3.0, std=2.0, method=method)
        assert x.mean() == pytest.approx(3.0, abs=0.05)
        assert x.std() == pytest.approx(2.0, abs=0.05)

    def test_moments_on_expander_stream(self):
        """The samplers hold on the paper's generator, not only on MT."""
        gen = HybridPRNG(seed=1, num_threads=1024,
                         bit_source=SplitMix64Source(1))
        x = DistStream(gen.u64_array).normal(30_000)
        assert abs(x.mean()) < 0.03
        assert abs(x.std() - 1) < 0.03

    def test_ziggurat_tail_mass(self):
        """The exact-inversion tail: mass beyond R matches 2*(1-Phi(R)).

        This is the test a discard-the-attempt tail resampler would
        fail -- it undersamples the tail by its acceptance rate.
        """
        n = 2_000_000
        x = stream().normal(n)
        observed = int(np.count_nonzero(np.abs(x) > ZIG_R))
        expected = 2.0 * ZIG_TAIL_SF * n
        # Poisson-ish count (~516 expected): 5 sigma window.
        assert abs(observed - expected) < 5.0 * np.sqrt(expected)

    def test_ziggurat_extreme_quantiles(self):
        x = stream().normal(2_000_000)
        for q in (1e-5, 1e-4, 1e-3):
            lo = float(np.quantile(x, q))
            assert lo == pytest.approx(sps.norm.ppf(q), abs=0.15)


class TestExponential:
    def test_ks(self):
        x = stream().exponential(N, rate=1.0)
        assert sps.kstest(x, "expon").pvalue > 0.01

    def test_rate_scaling_ks(self):
        x = stream().exponential(N, rate=2.5)
        assert sps.kstest(
            x, "expon", args=(0, 1 / 2.5)
        ).pvalue > 0.01

    def test_strictly_positive(self):
        assert (stream().exponential(N) > 0).all()

    @given(st.floats(min_value=0.1, max_value=20.0))
    @settings(max_examples=15, deadline=None)
    def test_mean_any_rate(self, rate):
        x = stream(int(rate * 1e4)).exponential(60_000, rate=rate)
        assert x.mean() == pytest.approx(1.0 / rate, rel=0.08)


class TestIntegers:
    def test_chi2_uniform(self):
        # 97 cells (prime, not a power of two): modulo bias or a wrong
        # Lemire threshold shows up as a huge chi-square.
        x = stream().integers(N, 0, 97)
        counts = np.bincount(x, minlength=97)
        assert sps.chisquare(counts).pvalue > 0.01

    def test_chi2_signed_range(self):
        x = stream().integers(N, -31, 32)
        counts = np.bincount(x + 31, minlength=63)
        assert sps.chisquare(counts).pvalue > 0.01

    def test_near_full_span_has_no_dead_zone(self):
        """span = 2**64 - 1 rejects ~nothing but exercises the widest
        multiply; top/bottom halves must stay balanced."""
        x = stream().integers(N, 0, 2**64 - 1)
        high = int(np.count_nonzero(x >= np.uint64(2**63)))
        assert abs(high - N / 2) < 5 * np.sqrt(N / 4)
