"""Generator state capture and restore.

Long Monte Carlo campaigns need checkpointing: capture the complete
state of a chained walker bank of one lane or many (walker positions
plus the feed's own state), serialize it, and resume bit-for-bit later.
States are plain dicts of JSON-friendly values (NumPy arrays encoded as
lists), so they can be stored anywhere.

An :class:`AddressableExpanderPRNG` is refused: its state is its word
offset, so ``tell()`` is its snapshot and ``seek()`` its restore.

Feed state is handled via a small protocol: sources expose their state
through ``__getstate_dict__`` / ``__setstate_dict__`` if present, else
the known source types are handled here explicitly.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.bitsource.counter import RawCounterSource, SplitMix64Source
from repro.bitsource.glibc import AnsiCLcg, GlibcRandom
from repro.core.parallel import AddressableExpanderPRNG, ParallelExpanderPRNG

__all__ = ["capture_state", "restore_state"]

#: v2 added the stream-contract buffers: the walker bank's ``feed_buffer``
#: (tail chunks of the last feed word) and, for the parallel generator,
#: the round remainder of ``generate``.  v1 snapshots predate the
#: canonical stream and cannot resume it bit-for-bit, so they are refused.
_FORMAT_VERSION = 2


def _source_state(source) -> Dict[str, Any]:
    if hasattr(source, "__getstate_dict__"):
        return {"kind": "custom", "data": source.__getstate_dict__()}
    if isinstance(source, SplitMix64Source):
        return {"kind": "splitmix64", "state": int(source._state)}
    if isinstance(source, RawCounterSource):
        return {"kind": "raw-counter", "counter": int(source._counter)}
    if isinstance(source, GlibcRandom):
        return {
            "kind": "glibc",
            "ring": [int(v) for v in source._ring],
            "pending": [int(v) for v in source._pending],
        }
    if isinstance(source, AnsiCLcg):
        return {"kind": "ansi-lcg", "state": int(source._state)}
    raise TypeError(
        f"cannot capture state of feed type {type(source).__name__}; "
        "implement __getstate_dict__/__setstate_dict__ on it"
    )


def _restore_source(source, state: Dict[str, Any]) -> None:
    kind = state["kind"]
    if kind == "custom":
        source.__setstate_dict__(state["data"])
        return
    if kind == "splitmix64":
        if not isinstance(source, SplitMix64Source):
            raise TypeError("state kind does not match feed type")
        source._state = np.uint64(state["state"])
        return
    if kind == "raw-counter":
        source._counter = np.uint64(state["counter"])
        return
    if kind == "glibc":
        if not isinstance(source, GlibcRandom):
            raise TypeError("state kind does not match feed type")
        source._ring = np.array(state["ring"], dtype=np.uint32)
        source._pending = np.array(state["pending"], dtype=np.uint32)
        return
    if kind == "ansi-lcg":
        source._state = np.uint64(state["state"])
        return
    raise ValueError(f"unknown feed state kind {kind!r}")


def _check_chained(prng) -> None:
    if isinstance(prng, AddressableExpanderPRNG):
        raise TypeError(
            "an AddressableExpanderPRNG's state is its word offset: "
            "tell() is its snapshot and seek() its restore"
        )
    if not isinstance(prng, ParallelExpanderPRNG):
        raise TypeError(f"unsupported generator type {type(prng).__name__}")


def capture_state(prng) -> Dict[str, Any]:
    """Snapshot a chained walker bank of one lane or many."""
    _check_chained(prng)
    state = prng._state
    return {
        "version": _FORMAT_VERSION,
        "kind": type(prng).__name__,
        "m": prng.graph.m,
        "walk_length": prng.walk_length,
        "policy": prng.engine.policy,
        "x": [int(v) for v in state.x],
        "y": [int(v) for v in state.y],
        "steps_taken": int(state.steps_taken),
        "chunks_consumed": int(state.chunks_consumed),
        "feed_buffer": [int(v) for v in state.feed_buffer],
        "numbers_generated": int(prng.numbers_generated),
        "remainder": [int(v) for v in prng._remainder],
        "source": _source_state(prng.source),
    }


def restore_state(prng, snapshot: Dict[str, Any]) -> None:
    """Restore a snapshot in place.  The generator must match structurally."""
    _check_chained(prng)
    if snapshot.get("version") != _FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot version {snapshot.get('version')}")
    if snapshot["kind"] != type(prng).__name__:
        raise TypeError(
            f"snapshot is for {snapshot['kind']}, got {type(prng).__name__}"
        )
    if snapshot["m"] != prng.graph.m:
        raise ValueError("snapshot graph modulus does not match")
    if snapshot["walk_length"] != prng.walk_length:
        raise ValueError("snapshot walk length does not match")
    if snapshot["policy"] != prng.engine.policy:
        raise ValueError("snapshot policy does not match")
    x = np.array(snapshot["x"])
    if x.size != prng.num_threads:
        raise ValueError(
            f"snapshot has {x.size} walkers, generator has {prng.num_threads}"
        )
    dtype = np.uint32 if prng.graph.m == 2**32 else np.uint64
    prng._state.x = x.astype(dtype)
    prng._state.y = np.array(snapshot["y"]).astype(dtype)
    prng._state.steps_taken = snapshot["steps_taken"]
    prng._state.chunks_consumed = snapshot["chunks_consumed"]
    prng._state.feed_buffer = np.array(
        snapshot["feed_buffer"], dtype=np.uint8
    )
    prng.numbers_generated = snapshot["numbers_generated"]
    # One-lane snapshots written while ExpanderWalkPRNG had a class of
    # its own carry no remainder; a one-lane round never leaves one.
    prng._remainder = np.array(snapshot.get("remainder", ()), dtype=np.uint64)
    _restore_source(prng.source, snapshot["source"])
