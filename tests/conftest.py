"""Shared fixtures for the test suite.

The per-test hang guard (default timeout) lives in the repository-root
``conftest.py`` so it also covers the benchmarks directory.
"""

import os

import numpy as np
import pytest

import repro
from repro.core.expander import GabberGalilExpander


@pytest.fixture
def small_graph():
    """A Gabber-Galil graph small enough for exhaustive checks."""
    return GabberGalilExpander(m=7)


@pytest.fixture
def native_graph():
    """The paper's graph: m = 2**32, 64-bit vertex ids."""
    return GabberGalilExpander()


@pytest.fixture
def repro_env():
    """Environment for a subprocess that imports this checkout's repro."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.fixture
def rng():
    """Deterministic NumPy generator for test-local randomness."""
    return np.random.Generator(np.random.PCG64(12345))


@pytest.fixture
def chaos():
    """Factory for fault-injected bit sources and supervised chains.

    Usage::

        src = chaos("flaky")                       # FaultyBitSource
        feed = chaos("failover", supervised=True)  # + failover chain
        chaos.tear_journal(path)                   # recovery faults
        chaos.kill_server(proc)

    Backoff sleeps are no-ops so chaos tests run at full speed; pass
    ``sleep=...`` to override.  The durability-plane recovery faults
    (:data:`repro.resilience.RECOVERY_FAULTS`) hang off the factory as
    attributes so crash drills come from the same fixture.
    """
    from repro.bitsource.counter import SplitMix64Source, splitmix64
    from repro.resilience import (
        RECOVERY_FAULTS,
        FaultyBitSource,
        RetryPolicy,
        SupervisedFeed,
        kill_server,
        tear_journal,
    )

    def make(
        profile="flaky",
        seed=1,
        fault_seed=0,
        supervised=False,
        fallbacks=None,
        policy=None,
        sleep=lambda s: None,
    ):
        primary = FaultyBitSource(
            SplitMix64Source(seed), profile, fault_seed=fault_seed,
            sleep=sleep,
        )
        if not supervised and fallbacks is None:
            return primary
        if fallbacks is None:
            fallback_seed = int(splitmix64(np.uint64(seed + 1)))
            fallbacks = [SplitMix64Source(fallback_seed)]
        return SupervisedFeed(
            [primary, *fallbacks],
            policy=policy or RetryPolicy(backoff_base_s=0.0),
            jitter_seed=fault_seed,
            sleep=sleep,
        )

    make.tear_journal = tear_journal
    make.kill_server = kill_server
    make.recovery_faults = RECOVERY_FAULTS
    return make
