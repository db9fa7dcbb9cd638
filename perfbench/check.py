"""Correctness checks against the program's own reference paths.

The references are recomputed, never stored digests, so a change that
re-keys a stream together with its reference still passes.  Each check
returns the number of operations whose delivered values differ from the
reference.  They run after the measured phase, never inside it.

    python3 check.py < log.pickle

runs :func:`serve` in a process of its own over a log written by
:func:`pack_log`, and prints the number of wrong operations.
"""

from __future__ import annotations

import pickle
import sys
from typing import Iterable, List, NamedTuple, Optional, Tuple

import numpy as np


def bulk_local(seed: int, threads: int, prefix: np.ndarray) -> int:
    """A prefix of ``ParallelExpanderPRNG(threads, seed)`` against the
    reference kernels: the unfused walk over the unblocked glibc feed.

    The reference is assembled from raw ``next_round`` outputs (the
    stream is rounds in order, thread-major within a round), so it
    shares no code with the ``generate_into`` delivery path it checks.
    """
    from repro.bitsource.glibc import GlibcRandom
    from repro.core.parallel import ParallelExpanderPRNG

    ref = ParallelExpanderPRNG(
        num_threads=threads, seed=seed, fused=False,
        bit_source=GlibcRandom(seed, blocked=False),
    )
    rounds = -(-prefix.size // threads)
    words = np.concatenate([ref.next_round() for _ in range(rounds)])
    return int(not np.array_equal(words[:prefix.size], prefix))


def bulk_engine(config, prefix: np.ndarray) -> int:
    """A prefix of the engine's bulk stream against ``serial_reference``."""
    from repro.engine import serial_reference

    return int(not np.array_equal(serial_reference(config, prefix.size),
                                  prefix))


class Served(NamedTuple):
    """One delivered request, as the client received it."""

    dist: Optional[str]
    count: int
    params: Optional[dict]
    values: np.ndarray
    #: The session's word offset after a VARIATE (from the reply).
    words: Optional[int] = None


def serve(master_seed: int, lanes: int,
          log: Iterable[Tuple[str, List[Served]]]) -> int:
    """Replay every session in-process, op by op, and compare bitwise.

    ``log`` holds ``(session id, ops in served order)`` pairs; each pair
    is replayed on a fresh stream, so one session may appear in several
    pairs (the same probe sent to several cold-started servers).
    """
    from repro.serve import SessionStream

    bad = 0
    for session, ops in log:
        stream = SessionStream(session, master_seed=master_seed, lanes=lanes)
        for op in ops:
            if op.dist is None:
                ref = stream.generate(op.count)
                ok = op.values.dtype == np.uint64 and np.array_equal(
                    ref, op.values
                )
            else:
                ref, words = stream.variates(op.dist, op.count, op.params)
                ok = (
                    words == op.words
                    and ref.dtype == op.values.dtype
                    and ref.shape == op.values.shape
                    and ref.tobytes() == op.values.tobytes()
                )
            bad += not ok
    return bad


def pack_log(master_seed: int, lanes: int,
             log: Iterable[Tuple[str, List[Served]]]) -> tuple:
    """:func:`serve`'s arguments as plain tuples and arrays, to pickle."""
    return master_seed, lanes, [
        (session, [tuple(op) for op in ops]) for session, ops in log
    ]


def main() -> int:
    master_seed, lanes, log = pickle.load(sys.stdin.buffer)
    print(serve(master_seed, lanes, [
        (session, [Served(*op) for op in ops]) for session, ops in log
    ]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
