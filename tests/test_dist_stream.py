"""Stream-exactness tests for the ``repro.dist`` variate subsystem.

The load-bearing property: a variate stream is a pure function of the
underlying word stream, so (a) fetch sizing is invisible
(``normal(4); normal(4) == normal(8)`` bitwise) and (b) any kernel
variant producing byte-identical words produces byte-identical
variates.
"""

import numpy as np
import pytest

from repro.baselines.mt19937 import MT19937
from repro.bitsource.glibc import GlibcRandom
from repro.core.parallel import ParallelExpanderPRNG
from repro.dist import SERVE_DISTRIBUTIONS, DistStream
from repro.dist import tables as zt
from repro.dist import transforms as tr


def words(seed=31415):
    """A cheap deterministic word source for sampler-logic tests."""
    return MT19937(seed).u64_array


#: (label, sampler factory) -- sampler(ds, n) -> ndarray, covering every
#: public sampler including all three normal methods.
SAMPLERS = [
    ("uniform01", lambda ds, n: ds.uniform01(n)),
    ("normal-ziggurat", lambda ds, n: ds.normal(n)),
    ("normal-polar", lambda ds, n: ds.normal(n, method="polar")),
    ("normal-boxmuller", lambda ds, n: ds.normal(n, method="boxmuller")),
    ("exponential", lambda ds, n: ds.exponential(n, rate=2.0)),
    ("integers-small", lambda ds, n: ds.integers(n, 0, 1000)),
    ("integers-signed", lambda ds, n: ds.integers(n, -7, 9)),
    ("integers-pow2", lambda ds, n: ds.integers(n, 0, 1 << 32)),
    ("integers-u64", lambda ds, n: ds.integers(n, 2**63, 2**64)),
]

SPLITS = [1, 7, 2, 30, 24]  # sums to 64


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


class TestFetchSplitInvariance:
    @pytest.mark.parametrize("label,sample", SAMPLERS,
                             ids=[s[0] for s in SAMPLERS])
    def test_chunked_equals_bulk(self, label, sample):
        bulk = sample(DistStream(words()), sum(SPLITS))
        ds = DistStream(words())
        chunked = np.concatenate([sample(ds, k) for k in SPLITS])
        np.testing.assert_array_equal(_bits(chunked), _bits(bulk))

    def test_single_variate_calls(self):
        """The degenerate split: 64 calls of size 1."""
        bulk = DistStream(words()).normal(64)
        ds = DistStream(words())
        ones = np.concatenate([ds.normal(1) for _ in range(64)])
        np.testing.assert_array_equal(_bits(ones), _bits(bulk))

    def test_interleaved_params_share_one_standard_stream(self):
        """(mean, std) scaling happens outside the carry, so mixed
        parameterizations of one stream stay exact."""
        base = DistStream(words()).normal(6, method="polar")
        ds = DistStream(words())
        a = ds.normal(3, mean=5.0, std=2.0, method="polar")
        b = ds.normal(3, method="polar")
        # Undoing the affine map is float-rounded, so approx there --
        # but the *unscaled* continuation must stay bit-exact.
        np.testing.assert_allclose((a - 5.0) / 2.0, base[:3], rtol=1e-15)
        np.testing.assert_array_equal(_bits(b), _bits(base[3:]))


class TestCarry:
    def test_zero_carry_samplers(self):
        """Every serve-facing sampler leaves no buffered variates, for
        any request size -- the clean-resume-boundary property."""
        ds = DistStream(words())
        for n in (1, 7, 64, 129):
            ds.uniform01(n)
            ds.normal(n)
            ds.exponential(n)
            ds.integers(n, 0, 1000)
            assert all(
                ds.carry_size(k) == 0 for k in list(ds._carry)
            ), f"carry after size-{n} calls"

    def test_pair_emitters_buffer_at_most_one(self):
        ds = DistStream(words())
        ds.normal(3, method="boxmuller")
        assert ds.carry_size(("normal", "boxmuller")) == 1
        ds.normal(1, method="boxmuller")  # consumes the carry, draws none
        assert ds.carry_size(("normal", "boxmuller")) == 0

    def test_methods_have_independent_carries(self):
        ds = DistStream(words())
        ds.normal(1, method="boxmuller")
        ds.normal(2, method="polar")
        assert ds.carry_size(("normal", "boxmuller")) == 1
        assert ds.carry_size(("normal", "ziggurat")) == 0

    def test_reset_carry(self):
        ds = DistStream(words())
        ds.normal(1, method="boxmuller")
        ds.reset_carry()
        assert ds.carry_size(("normal", "boxmuller")) == 0

    def test_degenerate_source_raises_instead_of_spinning(self):
        # Constant-zero words map to (-1, -1) in the polar square:
        # s = 2 >= 1 rejects every attempt, forever.
        ds = DistStream(lambda n: np.zeros(n, dtype=np.uint64))
        with pytest.raises(RuntimeError, match="no progress|degenerate"):
            ds.normal(1, method="polar")


class TestKernelVariantByteIdentity:
    """blocked/scalar feed x fused/unfused walk: same words, same
    variates, bit for bit."""

    @pytest.fixture
    def variant_streams(self):
        def make(blocked, fused):
            return DistStream(ParallelExpanderPRNG(
                num_threads=16,
                bit_source=GlibcRandom(99, blocked=blocked),
                fused=fused,
            ))
        return [make(b, f) for b in (True, False) for f in (True, False)]

    def test_normal_identical(self, variant_streams):
        outs = [ds.normal(513) for ds in variant_streams]
        for other in outs[1:]:
            np.testing.assert_array_equal(_bits(outs[0]), _bits(other))

    def test_integers_identical(self, variant_streams):
        outs = [ds.integers(257, -50, 1000) for ds in variant_streams]
        for other in outs[1:]:
            np.testing.assert_array_equal(outs[0], other)


class TestIntoVariants:
    def test_parity_with_allocating_calls(self):
        pairs = [
            (lambda d, o: d.uniform01_into(o), lambda d, n: d.uniform01(n),
             np.float64),
            (lambda d, o: d.normal_into(o, mean=1.0, std=3.0),
             lambda d, n: d.normal(n, mean=1.0, std=3.0), np.float64),
            (lambda d, o: d.exponential_into(o, rate=0.5),
             lambda d, n: d.exponential(n, rate=0.5), np.float64),
            (lambda d, o: d.integers_into(o, -10, 10),
             lambda d, n: d.integers(n, -10, 10), np.int64),
        ]
        for into, alloc, dtype in pairs:
            expect = alloc(DistStream(words()), 100)
            out = np.empty(100, dtype=dtype)
            got = into(DistStream(words()), out)
            assert got is out
            np.testing.assert_array_equal(_bits(out), _bits(expect))

    def test_validation(self):
        ds = DistStream(words())
        with pytest.raises(TypeError):
            ds.uniform01_into([0.0] * 4)
        with pytest.raises(TypeError):
            ds.normal_into(np.empty(4, dtype=np.float32))
        with pytest.raises(ValueError):
            ds.uniform01_into(np.empty((2, 2), dtype=np.float64))
        with pytest.raises(ValueError):
            ds.uniform01_into(np.empty(8, dtype=np.float64)[::2])
        ro = np.empty(4, dtype=np.float64)
        ro.flags.writeable = False
        with pytest.raises(ValueError):
            ds.uniform01_into(ro)
        with pytest.raises(TypeError):
            # uint64 range demands a uint64 out buffer
            ds.integers_into(np.empty(4, dtype=np.int64), 2**63, 2**64)

    def test_empty_out_is_a_noop(self):
        ds = DistStream(words())
        ds.uniform01_into(np.empty(0, dtype=np.float64))
        assert ds.words_consumed == 0


class TestIntegers:
    def test_dtype_rules(self):
        ds = DistStream(words())
        assert ds.integers(4, 0, 10).dtype == np.int64
        assert ds.integers(4, -(2**63), 2**63).dtype == np.int64
        assert ds.integers(4, 2**63, 2**64).dtype == np.uint64
        assert ds.integers(4, 0, 2**64).dtype == np.uint64

    def test_rejected_ranges(self):
        ds = DistStream(words())
        with pytest.raises(ValueError):
            ds.integers(4, 5, 5)
        with pytest.raises(ValueError):
            ds.integers(4, -1, 2**64)  # > 2**64 values
        with pytest.raises(ValueError):
            ds.integers(4, -1, 2**63 + 1)  # fits neither dtype

    def test_bounds_hold(self):
        ds = DistStream(words())
        for lo, hi in [(0, 7), (-19, -3), (2**63, 2**63 + 5), (-5, 6)]:
            x = ds.integers(2000, lo, hi)
            assert int(x.min()) >= lo and int(x.max()) < hi

    def test_full_span_equals_raw_words(self):
        """[0, 2**64) has nothing to reject: output is the word stream."""
        raw = words()(64)
        np.testing.assert_array_equal(
            DistStream(words()).integers(64, 0, 2**64), raw
        )

    def test_power_of_two_span_consumes_one_word_each(self):
        ds = DistStream(words())
        ds.integers(100, 0, 1 << 20)
        assert ds.words_consumed == 100

    def test_mulhilo64_exact(self):
        rng = np.random.Generator(np.random.PCG64(7))
        a = rng.integers(0, 2**64, 50, dtype=np.uint64)
        for b in (3, 2**32 + 1, 2**63 + 12345):
            hi, lo = tr.mulhilo64(a, np.uint64(b))
            for av, hv, lv in zip(a.tolist(), hi.tolist(), lo.tolist()):
                prod = av * b
                assert hv == prod >> 64 and lv == prod & (2**64 - 1)

    def test_lemire_bounded_matches_int_reference(self):
        """The unbiasing compare ``lo >= 2**64 mod span`` is exact.

        This span rejects about a quarter of all words.  Every word has
        its top bit set, and the last two land one below and exactly on
        the threshold (``lo == threshold`` is kept).
        """
        span = 3 * 2**62 + 1
        threshold = 2**64 % span
        rng = np.random.Generator(np.random.PCG64(11))
        w = rng.integers(0, 2**64, 4000, dtype=np.uint64) | np.uint64(1 << 63)
        w = np.concatenate([w, np.array(
            [0xBFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)])
        expect = [
            (x * span) >> 64 for x in w.tolist()
            if (x * span) % 2**64 >= threshold
        ]
        got = tr.lemire_bounded(w, span)
        assert got.dtype == np.uint64
        assert got.tolist() == expect
        assert 0.2 < 1 - len(expect) / w.size < 0.3
        assert expect[-1] == (0xFFFFFFFFFFFFFFFF * span) >> 64


class TestSampleDispatch:
    def test_matches_direct_calls(self):
        for dist, params, direct in [
            ("uniform01", {}, lambda d: d.uniform01(32)),
            ("normal", {"mean": 2.0, "std": 0.5},
             lambda d: d.normal(32, mean=2.0, std=0.5)),
            ("exponential", {"rate": 3.0},
             lambda d: d.exponential(32, rate=3.0)),
            ("integers", {"lo": -4, "hi": 40},
             lambda d: d.integers(32, -4, 40)),
        ]:
            got = DistStream(words()).sample(dist, 32, params)
            expect = direct(DistStream(words()))
            np.testing.assert_array_equal(_bits(got), _bits(expect))

    def test_unknown_distribution(self):
        with pytest.raises(ValueError, match="unknown distribution"):
            DistStream(words()).sample("cauchy", 4, {})

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="unknown"):
            DistStream(words()).sample("normal", 4, {"scale": 2.0})

    def test_serve_registry_is_all_zero_carry(self):
        ds = DistStream(words())
        for dist in SERVE_DISTRIBUTIONS:
            ds.sample(dist, 17, None)
        assert all(v.size == 0 for v in ds._carry.values())


class TestParameterValidation:
    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            DistStream(words()).normal(10, std=-1)

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ValueError):
            DistStream(words()).exponential(10, rate=0)


class TestZigguratTables:
    def test_self_check(self):
        zt._self_check()

    def test_layer_geometry(self):
        # Every interior rectangle has area V; the base strip + tail too.
        for i in range(1, zt.ZIG_LAYERS):
            area = zt.ZIG_X[i] * (zt.ZIG_Y[i + 1] - zt.ZIG_Y[i])
            assert area == pytest.approx(zt.ZIG_V, rel=1e-9)
        assert zt.ZIG_X[zt.ZIG_LAYERS] == 0.0
        assert zt.ZIG_TAIL_SF == pytest.approx(1.29016e-4, rel=1e-3)

    def test_attempt_word_costs(self):
        assert tr.WORDS_PER_ATTEMPT["ziggurat_normal"] == 2
        assert tr.MAX_YIELD["ziggurat_normal"] == 1
        assert tr.MAX_YIELD["polar_normal"] == 2
        assert tr.MAX_YIELD["boxmuller_normal"] == 2


class TestSourceContract:
    def test_rejects_sourceless_object(self):
        with pytest.raises(TypeError):
            DistStream(42)

    def test_accepts_generate_object_and_callable_identically(self):
        gen = MT19937(7)
        a = DistStream(gen.u64_array).normal(50)

        class Wrapped:
            def __init__(self):
                self._g = MT19937(7)

            def generate(self, n):
                return self._g.u64_array(n)

        b = DistStream(Wrapped()).normal(50)
        np.testing.assert_array_equal(_bits(a), _bits(b))

    def test_words_consumed_accounting(self):
        ds = DistStream(words())
        ds.uniform01(10)
        assert ds.words_consumed == 10
        ds.normal(5)  # ziggurat: 2 words per attempt, maybe retries
        assert ds.words_consumed >= 20
        assert ds.words_consumed % 2 == 0
