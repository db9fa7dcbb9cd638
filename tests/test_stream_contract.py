"""Property-style stream-contract tests across every layer.

The contract: a stream is one canonical sequence determined by its
identity (seed, lanes, walk length, policy -- and for the engine,
shard count), and ``generate(n)`` merely slices it.  Splitting ``n``
across arbitrary fetch sizes must never change the values, at any
layer: the core bank, the process-sharded engine, and a serve session.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitsource.counter import SplitMix64Source
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.streams import derive_seed
from repro.engine import EngineConfig, ShardedEngine, serial_reference
from repro.serve.session import SessionStream


def fetch_split(generate, sizes):
    return np.concatenate([generate(s) for s in sizes])


split_sizes = st.lists(
    st.integers(min_value=0, max_value=150), min_size=1, max_size=8
)


class TestCoreContract:
    @given(split_sizes)
    @settings(max_examples=25, deadline=None)
    def test_any_split_equals_bulk(self, sizes):
        p = ParallelExpanderPRNG(
            num_threads=32, bit_source=SplitMix64Source(1)
        )
        q = ParallelExpanderPRNG(
            num_threads=32, bit_source=SplitMix64Source(1)
        )
        np.testing.assert_array_equal(
            fetch_split(p.generate, sizes), q.generate(sum(sizes))
        )

    @given(split_sizes)
    @settings(max_examples=10, deadline=None)
    def test_batch_size_never_changes_values(self, sizes):
        p = ParallelExpanderPRNG(
            num_threads=32, bit_source=SplitMix64Source(2)
        )
        q = ParallelExpanderPRNG(
            num_threads=32, bit_source=SplitMix64Source(2)
        )
        a = np.concatenate(
            [p.generate(s, batch_size=1 + i) for i, s in enumerate(sizes)]
        )
        np.testing.assert_array_equal(a, q.generate(sum(sizes)))


class TestEngineContract:
    """The shard pool serves the same canonical stream."""

    CONFIG = EngineConfig(seed=5, shards=2, lanes=8, ring_slots=2)

    @pytest.mark.parametrize("sizes", [
        [1, 37, 2, 100, 60],
        [16, 16, 16, 16],
        [0, 3, 0, 97],
        [200],
    ])
    def test_any_split_equals_serial_reference(self, sizes):
        ref = serial_reference(self.CONFIG, sum(sizes))
        with ShardedEngine(self.CONFIG) as eng:
            got = fetch_split(eng.generate, sizes)
        np.testing.assert_array_equal(got, ref)

    def test_named_stream_split_invariance(self):
        sizes = (3, 50, 1, 10)
        offsets = np.cumsum((0,) + sizes[:-1])
        with ShardedEngine(self.CONFIG) as eng:
            a = np.concatenate([
                eng.fetch_stream(11, 16, s, int(off))
                for s, off in zip(sizes, offsets)
            ])
            b = eng.fetch_stream(12, 16, 64, 0)  # decoy: different stream
            with ShardedEngine(self.CONFIG) as eng2:
                bulk = eng2.fetch_stream(11, 16, 64, 0)
        np.testing.assert_array_equal(a, bulk)
        assert not np.array_equal(b, bulk)


class TestServeContract:
    def test_session_split_invariance(self):
        a = SessionStream("alice", master_seed=7, lanes=16)
        b = SessionStream("alice", master_seed=7, lanes=16)
        np.testing.assert_array_equal(
            fetch_split(a.generate, [3, 50, 1, 10]), b.generate(64)
        )


class TestShardDisjointness:
    """Shards derive disjoint substreams of the master seed."""

    def test_shard_feed_seeds_distinct(self):
        seeds = [derive_seed(9, i) for i in range(64)]
        assert len(set(seeds)) == 64

    def test_shard_blocks_share_no_values(self):
        config = EngineConfig(seed=9, shards=4, lanes=16)
        rounds = serial_reference(config, 4 * 16 * 8).reshape(8, 4, 16)
        # Lane blocks within a round are pairwise distinct...
        for r in range(8):
            for i in range(4):
                for j in range(i + 1, 4):
                    assert not np.array_equal(rounds[r, i], rounds[r, j])
        # ...and the 64-bit outputs never collide across the sample.
        assert np.unique(rounds).size == rounds.size
