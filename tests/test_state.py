"""Tests for generator state capture/restore."""

import json

import numpy as np
import pytest

from repro.bitsource import AnsiCLcg, GlibcRandom, RawCounterSource, SplitMix64Source
from repro.core.generator import ExpanderWalkPRNG
from repro.core.parallel import AddressableExpanderPRNG, ParallelExpanderPRNG
from repro.core.state import capture_state, restore_state

#: ``capture_state`` of ``ExpanderWalkPRNG(bit_source=SplitMix64Source(5))``
#: after ``next_batch(3)``, as written while the one-lane generator had a
#: class of its own: format 2 with no ``remainder`` key.
ONE_LANE_SNAPSHOT_WITHOUT_REMAINDER = {
    "version": 2, "kind": "ExpanderWalkPRNG", "m": 4294967296,
    "walk_length": 64, "policy": "reject",
    "x": [984083247], "y": [1589886336],
    "steps_taken": 256, "chunks_consumed": 291,
    "feed_buffer": [1, 2, 7, 6, 2, 1, 5, 1, 2, 4, 3, 1, 3, 4, 5, 3, 3, 3, 5,
                    0, 4, 1, 0, 7, 3, 5, 5, 0, 3, 6, 4, 5, 5, 6, 6, 1, 0, 6,
                    6, 0, 3, 0, 3, 2, 5],
    "numbers_generated": 3,
    "source": {"kind": "splitmix64", "state": 9344711191398858090},
}

#: The four numbers that generator went on to emit.
ONE_LANE_SNAPSHOT_NEXT = [
    0x7caac6692b1d2c01, 0xdb78c1f8f148f42e, 0x062ef126cc871108,
    0xe209763c4dadd6f2,
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "feed",
        [
            lambda: SplitMix64Source(5),
            lambda: GlibcRandom(5),
            lambda: AnsiCLcg(5),
            lambda: RawCounterSource(5),
        ],
    )
    def test_scalar_generator_resumes_exactly(self, feed):
        a = ExpanderWalkPRNG(bit_source=feed())
        a.next_batch(7)
        snap = capture_state(a)
        expected = a.next_batch(10)

        b = ExpanderWalkPRNG(bit_source=feed())
        restore_state(b, snap)
        assert np.array_equal(b.next_batch(10), expected)

    def test_parallel_generator_resumes_exactly(self):
        a = ParallelExpanderPRNG(num_threads=128, bit_source=SplitMix64Source(9))
        a.generate(500)
        snap = capture_state(a)
        expected = a.generate(500)

        b = ParallelExpanderPRNG(num_threads=128, bit_source=SplitMix64Source(1))
        restore_state(b, snap)
        assert np.array_equal(b.generate(500), expected)

    def test_snapshot_is_json_serializable(self):
        a = ExpanderWalkPRNG(bit_source=GlibcRandom(3))
        a.get_next_rand()
        snap = capture_state(a)
        roundtripped = json.loads(json.dumps(snap))
        b = ExpanderWalkPRNG(bit_source=GlibcRandom(1))
        restore_state(b, roundtripped)
        assert b.get_next_rand() == a.get_next_rand()

    def test_one_lane_snapshot_without_remainder_resumes_exactly(self):
        b = ExpanderWalkPRNG(bit_source=SplitMix64Source(0))
        restore_state(b, json.loads(json.dumps(
            ONE_LANE_SNAPSHOT_WITHOUT_REMAINDER
        )))
        assert [b.get_next_rand() for _ in range(4)] == ONE_LANE_SNAPSHOT_NEXT
        assert b.numbers_generated == 7

    def test_counters_restored(self):
        a = ParallelExpanderPRNG(num_threads=32, bit_source=SplitMix64Source(2))
        a.generate(100)
        snap = capture_state(a)
        b = ParallelExpanderPRNG(num_threads=32, bit_source=SplitMix64Source(0))
        restore_state(b, snap)
        assert b.numbers_generated == a.numbers_generated
        assert b.bits_consumed == a.bits_consumed


class TestValidation:
    def test_wrong_kind(self):
        a = ExpanderWalkPRNG(bit_source=SplitMix64Source(1))
        snap = capture_state(a)
        b = ParallelExpanderPRNG(num_threads=4, bit_source=SplitMix64Source(1))
        with pytest.raises(TypeError, match="snapshot is for"):
            restore_state(b, snap)

    def test_wrong_thread_count(self):
        a = ParallelExpanderPRNG(num_threads=8, bit_source=SplitMix64Source(1))
        snap = capture_state(a)
        b = ParallelExpanderPRNG(num_threads=16, bit_source=SplitMix64Source(1))
        with pytest.raises(ValueError, match="walkers"):
            restore_state(b, snap)

    def test_wrong_walk_length(self):
        a = ExpanderWalkPRNG(bit_source=SplitMix64Source(1), walk_length=32)
        snap = capture_state(a)
        b = ExpanderWalkPRNG(bit_source=SplitMix64Source(1), walk_length=64)
        with pytest.raises(ValueError, match="walk length"):
            restore_state(b, snap)

    def test_wrong_feed_type(self):
        a = ExpanderWalkPRNG(bit_source=SplitMix64Source(1))
        snap = capture_state(a)
        b = ExpanderWalkPRNG(bit_source=GlibcRandom(1))
        with pytest.raises(TypeError):
            restore_state(b, snap)

    def test_unsupported_generator(self):
        with pytest.raises(TypeError):
            capture_state(object())

    def test_bad_version(self):
        a = ExpanderWalkPRNG(bit_source=SplitMix64Source(1))
        snap = capture_state(a)
        snap["version"] = 99
        with pytest.raises(ValueError, match="version"):
            restore_state(a, snap)

    def test_custom_source_protocol(self):
        class MySource(SplitMix64Source):
            def __getstate_dict__(self):
                return {"s": int(self._state)}

            def __setstate_dict__(self, data):
                self._state = np.uint64(data["s"])

        a = ExpanderWalkPRNG(bit_source=MySource(4))
        a.get_next_rand()
        snap = capture_state(a)
        assert snap["source"]["kind"] == "custom"
        b = ExpanderWalkPRNG(bit_source=MySource(0))
        restore_state(b, snap)
        assert b.get_next_rand() == a.get_next_rand()


class TestAddressableBanks:
    """An addressable bank's state is its word offset: ``tell()`` is its
    snapshot and ``seek()`` its restore, so the walker snapshot refuses
    it."""

    def test_stale_offset_restore_cannot_happen(self):
        """Restoring walker state taken at offset 100 into a bank at
        offset 500 would leave ``tell()`` at 500, so a later
        ``seek(500)`` would be skipped and the bank would serve the
        words at offset 100.  So capture is refused, and the offset
        does the job."""
        earlier = AddressableExpanderPRNG(
            num_threads=8, bit_source=SplitMix64Source(3)
        )
        earlier.generate(100)
        later = AddressableExpanderPRNG(
            num_threads=8, bit_source=SplitMix64Source(3)
        )
        later.generate(500)
        with pytest.raises(TypeError, match=r"tell\(\)"):
            capture_state(earlier)
        later.seek(earlier.tell())
        np.testing.assert_array_equal(later.generate(8), earlier.generate(8))

    def test_fresh_and_used_banks_are_refused(self):
        chained = capture_state(
            ParallelExpanderPRNG(num_threads=8, bit_source=SplitMix64Source(3))
        )
        for words in (0, 100):
            bank = AddressableExpanderPRNG(
                num_threads=8, bit_source=SplitMix64Source(3)
            )
            bank.generate(words)
            with pytest.raises(TypeError, match=r"tell\(\)"):
                capture_state(bank)
            with pytest.raises(TypeError, match=r"seek\(\)"):
                restore_state(bank, chained)
            assert bank.tell() == words
