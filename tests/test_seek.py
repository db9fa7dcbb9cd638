"""Seek correctness: O(log offset) jump-ahead vs. fresh replay.

The contract under test, at every layer, is the same sentence: after
``seek(offset)``, the stream continues exactly as a freshly seeded
instance would after generating (and discarding) ``offset`` words.

* feed level -- every seekable :class:`BitSource` (GlibcRandom blocked
  and scalar, AnsiCLcg, SplitMix64Source, RawCounterSource), including
  offsets that straddle the glibc ring/window boundaries;
* walker level -- :class:`AddressableExpanderPRNG` across the
  fixed-consumption policies x all four kernel variants (fused /
  reference walk x blocked / scalar feed), plus the chained
  :class:`ParallelExpanderPRNG`'s forward replay-seek for ``reject``;
* golden vectors -- hardcoded words at fixed offsets (several beyond
  2**32) so a regression in the jump-ahead linear algebra cannot hide
  behind a matching regression in the sequential path.
"""

import numpy as np
import pytest

from repro.bitsource.base import UnseekableSourceError
from repro.bitsource.counter import RawCounterSource, SplitMix64Source
from repro.bitsource.glibc import AnsiCLcg, GlibcRandom
from repro.bitsource.os_entropy import OsEntropySource
from repro.core.parallel import AddressableExpanderPRNG, ParallelExpanderPRNG
from repro.core.walk import FIXED_CONSUMPTION_POLICIES, POLICIES

# Offsets straddling every interesting boundary of the glibc kernel:
# the 31-word ring, the 310-output warmup, and the 128-window blocks.
BOUNDARY_OFFSETS = [0, 1, 2, 30, 31, 32, 61, 62, 103, 104, 310, 311,
                    1000, 4095, 4096, 4097]

#: Offsets far beyond anything replay could verify in test time.
HUGE_OFFSETS = [(1 << 32) + 5, (1 << 40) + 123, (1 << 48) + 7]


def _seekable_sources():
    return [
        ("glibc-blocked", lambda: GlibcRandom(12345, blocked=True)),
        ("glibc-scalar", lambda: GlibcRandom(12345, blocked=False)),
        ("ansi-c", lambda: AnsiCLcg(12345)),
        ("splitmix64", lambda: SplitMix64Source(12345)),
        ("raw-counter", lambda: RawCounterSource(12345)),
    ]


class TestFeedSeek:
    @pytest.mark.parametrize(
        "name,make", _seekable_sources(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_seek_equals_fresh_replay(self, name, make):
        ref = make().words64(BOUNDARY_OFFSETS[-1] + 64)
        for offset in BOUNDARY_OFFSETS:
            src = make()
            src.seek(offset)
            np.testing.assert_array_equal(
                src.words64(64), ref[offset:offset + 64],
                err_msg=f"{name} seek({offset})",
            )

    @pytest.mark.parametrize(
        "name,make", _seekable_sources(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_seek_backwards_and_rewind(self, name, make):
        """Offsets are absolute: backwards seeks and rewinds to 0 work."""
        ref = make().words64(128)
        src = make()
        src.words64(100)
        src.seek(17)
        np.testing.assert_array_equal(src.words64(30), ref[17:47])
        src.seek(0)
        np.testing.assert_array_equal(src.words64(128), ref)

    @pytest.mark.parametrize(
        "name,make", _seekable_sources(), ids=lambda v: v if isinstance(v, str) else ""
    )
    def test_huge_offsets_compose(self, name, make):
        """seek(big); read k  ==  seek(big + k): the only replay-free
        cross-check available past 2**32, and it exercises the matrix
        power at two different exponents."""
        for base in HUGE_OFFSETS:
            a = make()
            a.seek(base)
            run = a.words64(40)
            b = make()
            b.seek(base + 25)
            np.testing.assert_array_equal(
                b.words64(15), run[25:40], err_msg=f"{name} @ {base}"
            )

    def test_seekable_flags(self):
        for name, make in _seekable_sources():
            assert make().seekable, name
        assert not OsEntropySource().seekable

    def test_os_entropy_rejects_seek(self):
        with pytest.raises(UnseekableSourceError):
            OsEntropySource().seek(0)

    def test_negative_offset_rejected(self):
        for name, make in _seekable_sources():
            with pytest.raises(ValueError):
                make().seek(-1)

    def test_glibc_seek_raw_mixes_with_rand(self):
        """seek_raw targets raw 31-bit outputs, interleaving with rand()."""
        from repro.bitsource.glibc import _WARMUP

        ref_src = GlibcRandom(777)
        ref = [int(ref_src.rand()) for _ in range(500)]
        src = GlibcRandom(777)
        src.seek_raw(_WARMUP + 321)
        assert int(src.rand()) == ref[321]


# Golden words at fixed offsets: ``source.seek(offset); words64(1)``.
# Regenerate only for a deliberate, documented stream change.
GOLDEN_GLIBC_12345 = {
    0: 0x2DAB508ECCA28655,
    1: 0x364D9E761FB60984,
    31: 0x1E7E5545E8A03BC6,
    311: 0xF3E54BB2FCE9C0BE,
    4096: 0xC3C17548E95E70D2,
    (1 << 32) + 5: 0xBD368376D4253F68,
    (1 << 40) + 123: 0xBB62D289CE1F20A4,
    (1 << 48) + 7: 0x4D7FC5A59F84F20D,
}
GOLDEN_ANSI_12345 = {
    0: 0xC4E0959946D5421F,
    1: 0xD9A3ABD6906D2FE5,
    31: 0xBA67A3C4263E4AF7,
    311: 0xD2D837476EE19F9A,
    4096: 0x53E31935100349FF,
    (1 << 32) + 5: 0x4B5597AD0B0E8202,
    (1 << 40) + 123: 0x4347CEEE31B8E3B9,
    (1 << 48) + 7: 0x265BE5D7E9575BB7,
}
GOLDEN_SPLITMIX_12345 = {
    0: 0x22118258A9D111A0,
    1: 0x346EDCE5F713F8ED,
    31: 0xDF6F910A08F884F2,
    311: 0x2D5B8A73CCCE0029,
    4096: 0xA709F513500E653F,
    (1 << 32) + 5: 0x0DF4C3DC30735523,
    (1 << 40) + 123: 0x6D6A8353960AF3B9,
    (1 << 48) + 7: 0x7E191784542F3FEF,
}
# AddressableExpanderPRNG(num_threads=8, bit_source=GlibcRandom(9)):
# identical for 'mod' and 'lazy' because DEGREE == 7 makes both fold
# chunk 7 onto vertex-map 0 (7 - DEGREE == 0 and the lazy identity).
GOLDEN_BANK_LANES8_SEED9 = {
    0: 0x1D7F55C2CC5E68CF,
    1: 0xA4716B360B002191,
    31: 0x8630E5C4302F448E,
    311: 0x313F6782FD7C7AD7,
    4096: 0x71306FED920C19FD,
    (1 << 32) + 5: 0x8CA9D6A4425A3A2D,
    (1 << 40) + 123: 0x02A5E86959E80F4F,
    (1 << 48) + 7: 0xCB6EF215C46A09AB,
}


class TestGoldenOffsets:
    @pytest.mark.parametrize("make,golden", [
        (lambda: GlibcRandom(12345, blocked=True), GOLDEN_GLIBC_12345),
        (lambda: GlibcRandom(12345, blocked=False), GOLDEN_GLIBC_12345),
        (lambda: AnsiCLcg(12345), GOLDEN_ANSI_12345),
        (lambda: SplitMix64Source(12345), GOLDEN_SPLITMIX_12345),
    ], ids=["glibc-blocked", "glibc-scalar", "ansi-c", "splitmix64"])
    def test_feed_golden_offsets(self, make, golden):
        for offset, expected in golden.items():
            src = make()
            src.seek(offset)
            assert int(src.words64(1)[0]) == expected, f"offset {offset}"

    @pytest.mark.parametrize("policy", FIXED_CONSUMPTION_POLICIES)
    def test_bank_golden_offsets(self, policy):
        for offset, expected in GOLDEN_BANK_LANES8_SEED9.items():
            prng = AddressableExpanderPRNG(
                num_threads=8, bit_source=GlibcRandom(9), policy=policy
            )
            prng.seek(offset)
            assert int(prng.generate(1)[0]) == expected, f"offset {offset}"


class TestBankSeek:
    """seek == fresh replay across 3 policies x 4 kernel variants."""

    OFFSETS = [0, 1, 7, 8, 9, 63, 64, 65, 100, 255, 256, 300]

    @pytest.mark.parametrize("blocked", [True, False])
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_seek_equals_fresh_replay(self, policy, fused, blocked):
        def make():
            cls = (
                ParallelExpanderPRNG if policy == "reject"
                else AddressableExpanderPRNG
            )
            return cls(
                num_threads=8,
                bit_source=GlibcRandom(42, blocked=blocked),
                policy=policy,
                fused=fused,
            )

        ref = make().generate(self.OFFSETS[-1] + 48)
        for offset in self.OFFSETS:
            prng = make()
            prng.seek(offset)
            np.testing.assert_array_equal(
                prng.generate(48), ref[offset:offset + 48],
                err_msg=f"policy={policy} fused={fused} blocked={blocked} "
                        f"seek({offset})",
            )

    @pytest.mark.parametrize("policy", FIXED_CONSUMPTION_POLICIES)
    @pytest.mark.parametrize("feed", [
        lambda: GlibcRandom(11), lambda: AnsiCLcg(11),
        lambda: SplitMix64Source(11),
    ], ids=["glibc", "ansi-c", "splitmix64"])
    def test_backwards_seek(self, policy, feed):
        """Addressable banks seek backwards in O(log offset): no replay."""
        make = lambda: AddressableExpanderPRNG(
            num_threads=8, bit_source=feed(), policy=policy
        )
        ref = make().generate(200)
        prng = make()
        prng.generate(150)
        prng.seek(13)
        np.testing.assert_array_equal(prng.generate(50), ref[13:63])
        prng.seek(0)
        np.testing.assert_array_equal(prng.generate(200), ref)

    def test_chained_seek_is_forward_only(self):
        prng = ParallelExpanderPRNG(
            num_threads=8, bit_source=GlibcRandom(1), policy="reject"
        )
        prng.generate(100)
        with pytest.raises(ValueError, match="AddressableExpanderPRNG"):
            prng.seek(10)

    def test_reject_policy_not_addressable(self):
        with pytest.raises(ValueError, match="fixed-consumption"):
            AddressableExpanderPRNG(
                num_threads=8, bit_source=GlibcRandom(1), policy="reject"
            )

    def test_tell_tracks_position(self):
        prng = AddressableExpanderPRNG(
            num_threads=8, bit_source=GlibcRandom(3)
        )
        assert prng.tell() == 0
        prng.generate(13)
        assert prng.tell() == 13
        prng.seek(1000)
        assert prng.tell() == 1000
        prng.generate(5)
        assert prng.tell() == 1005

    def test_unseekable_feed_generates_but_cannot_seek(self):
        """Sequential generation never seeks the feed; only seek() needs
        a seekable source (and the entropy fallback is exactly that
        trade: live randomness, no resume)."""
        prng = AddressableExpanderPRNG(
            num_threads=8, bit_source=OsEntropySource()
        )
        assert prng.generate(64).size == 64
        with pytest.raises(UnseekableSourceError):
            prng.seek(0)

    def test_split_fetch_invariance_after_seek(self):
        make = lambda: AddressableExpanderPRNG(
            num_threads=8, bit_source=GlibcRandom(5)
        )
        ref = make().generate(300)
        prng = make()
        prng.seek(117)
        parts = [prng.generate(n) for n in (1, 10, 53, 64, 55)]
        np.testing.assert_array_equal(
            np.concatenate(parts), ref[117:300]
        )

    def test_huge_offset_composes(self):
        """Same composition identity as the feeds, at the bank level."""
        base = (1 << 40) + 17
        make = lambda: AddressableExpanderPRNG(
            num_threads=8, bit_source=GlibcRandom(21)
        )
        a = make()
        a.seek(base)
        run = a.generate(40)
        b = make()
        b.seek(base + 25)
        np.testing.assert_array_equal(b.generate(15), run[25:40])


class TestFusedRounds:
    """Multi-round fusion: K rounds of an nt-lane bank run as one
    K*nt-lane walk must be bit-identical to strict per-round
    production (the serve-throughput tentpole's correctness core)."""

    @pytest.mark.parametrize("policy", sorted(FIXED_CONSUMPTION_POLICIES))
    def test_fused_equals_per_round(self, policy, monkeypatch):
        import repro.core.parallel as parallel_mod

        def bank():
            return AddressableExpanderPRNG(
                num_threads=8, bit_source=SplitMix64Source(5),
                walk_length=12, policy=policy,
            )

        fused = bank().generate(1000)
        # Forcing the per-launch lane budget down to the bank width
        # degenerates every launch to exactly one round.
        monkeypatch.setattr(parallel_mod, "FUSED_LAUNCH_LANES", 1)
        strict = bank().generate(1000)
        np.testing.assert_array_equal(fused, strict)

    def test_launch_spanning_coefficient_blocks(self, monkeypatch):
        """2048 lanes x 40 rounds launches as 32 + 8 rounds: 65536 and
        16384 lanes, so 16 and 4 coefficient blocks of the 64-step
        walk.  Equal to the reference kernel and to one round per
        launch (one block each)."""
        import repro.core.parallel as parallel_mod

        def bank(fused=True):
            return AddressableExpanderPRNG(
                num_threads=2048, bit_source=SplitMix64Source(5),
                fused=fused,
            )

        n = 2048 * 40
        fused = bank().generate(n)
        np.testing.assert_array_equal(fused, bank(fused=False).generate(n))
        monkeypatch.setattr(parallel_mod, "FUSED_LAUNCH_LANES", 1)
        np.testing.assert_array_equal(fused, bank().generate(n))

    def test_fused_split_fetch_and_seek(self):
        a = AddressableExpanderPRNG(
            num_threads=8, bit_source=SplitMix64Source(5)
        )
        b = AddressableExpanderPRNG(
            num_threads=8, bit_source=SplitMix64Source(5)
        )
        whole = a.generate(800)
        parts = np.concatenate(
            [b.generate(n) for n in (7, 493, 300)]
        )
        np.testing.assert_array_equal(whole, parts)
        b.seek(250)
        np.testing.assert_array_equal(b.generate(100), whole[250:350])
