"""Stream-derivation tests at the service boundary.

The serving contract (ISSUE 3): distinct session ids get independent
streams, the same ``(master_seed, session_id)`` pair reproduces the
identical stream across a server restart, and the id -> seed derivation
is collision-free at the 10k-session scale.
"""

import numpy as np
import pytest

from repro.bitsource.counter import SplitMix64Source
from repro.resilience.faults import FaultyBitSource
from repro.serve.session import (
    SessionStream,
    session_index,
    session_seed,
)


class TestDerivation:
    def test_index_is_stable_and_id_dependent(self):
        assert session_index("alice") == session_index("alice")
        assert session_index("alice") != session_index("bob")
        assert 0 <= session_index("alice") < 2**64

    def test_seed_depends_on_master_and_id(self):
        assert session_seed(1, "alice") == session_seed(1, "alice")
        assert session_seed(1, "alice") != session_seed(2, "alice")
        assert session_seed(1, "alice") != session_seed(1, "bob")

    def test_no_collisions_across_10k_session_ids(self):
        seeds = {session_seed(1, f"client-{i}") for i in range(10_000)}
        assert len(seeds) == 10_000
        indexes = {session_index(f"client-{i}") for i in range(10_000)}
        assert len(indexes) == 10_000


class TestSessionStream:
    def test_distinct_ids_have_disjoint_prefixes(self):
        a = SessionStream("alice", master_seed=1)
        b = SessionStream("bob", master_seed=1)
        va = set(map(int, a.generate(512)))
        vb = set(map(int, b.generate(512)))
        assert not va & vb

    def test_restart_reproduces_identical_stream(self):
        """A fresh instance (fresh server) replays the same stream."""
        first = SessionStream("alice", master_seed=9).generate(256)
        second = SessionStream("alice", master_seed=9).generate(256)
        np.testing.assert_array_equal(first, second)

    def test_split_fetches_equal_one_bulk_fetch(self):
        """Request sizing must not change the stream (on-demand contract)."""
        split = SessionStream("carol", master_seed=3)
        bulk = SessionStream("carol", master_seed=3)
        chunks = [split.generate(n) for n in (10, 1, 53)]
        np.testing.assert_array_equal(
            np.concatenate(chunks), bulk.generate(64)
        )

    def test_master_seed_separates_fleets(self):
        one = SessionStream("alice", master_seed=1).generate(256)
        two = SessionStream("alice", master_seed=2).generate(256)
        assert set(map(int, one)).isdisjoint(set(map(int, two)))

    def test_accounting_and_describe(self):
        s = SessionStream("dave", master_seed=1)
        s.generate(32)
        s.generate(16)
        assert s.words_served == 48
        assert s.requests == 2
        doc = s.describe()
        assert doc["session"] == "dave"
        assert doc["words_served"] == 48
        assert doc["health"] == "OK"
        assert doc["stream_index"] == session_index("dave")
        assert "seed" not in doc  # no seed material over the wire

    def test_dying_primary_degrades_not_kills(self):
        def factory(seed):
            return FaultyBitSource(
                SplitMix64Source(seed), "failover", sleep=lambda s: None
            )

        # Enough traffic to exhaust the walk engine's prefetched feed
        # buffer and force fresh draws from the (now dead) primary.
        s = SessionStream("sick", master_seed=1, source_factory=factory)
        for _ in range(40):
            assert s.generate(128).size == 128
        assert s.health == "DEGRADED"
        assert s.supervisor.stats.failovers >= 1

    def test_failover_disabled_fails_hard(self):
        from repro.resilience.errors import FeedFailedError

        def factory(seed):
            return FaultyBitSource(
                SplitMix64Source(seed), "fatal", sleep=lambda s: None
            )

        # The walker bank draws its start vertices at construction, so a
        # fatal feed with no failover chain must surface the structured
        # error immediately -- never a hang, never a half-built session.
        with pytest.raises(FeedFailedError):
            SessionStream(
                "doomed", master_seed=1, source_factory=factory,
                failover=False,
            )

    def test_lanes_are_part_of_stream_identity(self):
        a = SessionStream("alice", master_seed=1, lanes=64).generate(64)
        b = SessionStream("alice", master_seed=1, lanes=32).generate(64)
        assert not np.array_equal(a, b)
