"""repro.engine: the stream-exact, process-sharded generation core.

The engine is the hot path behind
:class:`~repro.core.parallel.ParallelExpanderPRNG` at scale: worker
shards own disjoint lane ranges of one virtual walker bank, stream
whole rounds through shared-memory rings, and answer named stream
fetches for ``repro.serve`` -- all without changing a single value
relative to the in-process generators (see
:func:`~repro.engine.sharded.serial_reference`).
"""

from repro.engine.ring import RingHandle, RingWriter, SharedRing
from repro.engine.sharded import (
    DEFAULT_ENGINE_LANES,
    DEFAULT_RING_BURST,
    DEFAULT_RING_SLOTS,
    EngineConfig,
    ShardedEngine,
    serial_reference,
)

__all__ = [
    "DEFAULT_ENGINE_LANES",
    "DEFAULT_RING_BURST",
    "DEFAULT_RING_SLOTS",
    "EngineConfig",
    "RingHandle",
    "RingWriter",
    "SharedRing",
    "ShardedEngine",
    "serial_reference",
]
