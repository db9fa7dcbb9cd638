"""Per-client expander streams: the service's seeding and identity model.

Every client session names itself with an opaque string id.  The id is
hashed (SHA-256, truncated to 64 bits) to a **stream index**, and the
index is pushed through :func:`repro.core.streams.derive_seed` against
the server's master seed -- the same SplitMix64 derivation
``spawn_streams`` uses for in-process substreams -- so:

* two distinct session ids get independent walker banks (disjoint walks
  on the expander, never a shared feed);
* the same ``(master_seed, session_id)`` pair reproduces the identical
  stream on any server, including across a restart (the index depends
  only on the id, not on arrival order);
* the derivation is collision-resistant at service scale (the 64-bit
  index space is bijectively mixed per master seed; tests check 10k ids
  empirically).

Each :class:`SessionStream` owns a
:class:`~repro.resilience.supervised.SupervisedFeed` chain (primary
feed, an independent SplitMix64 fallback, OS entropy last) in front of
an :class:`~repro.core.parallel.AddressableExpanderPRNG` walker bank,
so a dying bit source degrades the session instead of killing it;
health is surfaced through the ``STATUS`` protocol op.  Because the
bank is offset-addressable, a session can :meth:`~SessionStream.seek`
to any word offset in O(log offset) -- the primitive behind the
``RESUME`` protocol op and crash recovery from the session journal.
"""

from __future__ import annotations

import hashlib
import threading
from collections import deque
from typing import Callable, Optional

import numpy as np

from repro.bitsource.base import BitSource
from repro.core.streams import derive_seed
from repro.dist import DistStream
from repro.resilience.supervised import FeedHealth, stream_bank

__all__ = [
    "DEFAULT_SESSION_LANES",
    "session_index",
    "session_seed",
    "SessionStream",
]

#: Walker lanes per session: small enough that hundreds of sessions are
#: cheap to hold, large enough that generation stays vectorized.
DEFAULT_SESSION_LANES = 64


def session_index(session_id: str) -> int:
    """Stable 64-bit stream index of a session id (SHA-256 truncation).

    Depends only on the id string, so it is identical across processes,
    restarts, and Python hash randomization.
    """
    digest = hashlib.sha256(session_id.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def session_seed(master_seed: int, session_id: str) -> int:
    """The feed seed of ``session_id``'s stream under ``master_seed``."""
    return derive_seed(master_seed, session_index(session_id))


class SessionStream:
    """One client's independent, supervised expander stream.

    Parameters
    ----------
    session_id : str
        Opaque client-chosen identity; determines the stream.
    master_seed : int
        The server's master seed.
    lanes : int
        Walker lanes in the session's bank (values depend on it, so it
        is part of the stream's identity alongside the seed).
    source_factory : callable, optional
        ``seed -> BitSource`` for the *primary* feed; defaults to
        :class:`SplitMix64Source`.  Tests inject fault wrappers here.
    failover : bool
        Install the fallback chain (independent SplitMix64 substream,
        then OS entropy) behind the primary.  The retry budget is
        always :data:`~repro.resilience.supervised.STREAM_RETRY_POLICY`.
    engine : ShardedEngine, optional
        Draw from a :class:`~repro.engine.sharded.ShardedEngine` shard
        pool instead of an in-process walker bank.  The engine worker
        builds the *same* bank
        (:func:`~repro.resilience.supervised.stream_bank`) from the same
        session seed, so the values a client sees are byte-identical
        either way; ``source_factory``/``failover`` are then ignored
        here (the engine's config sets both).
    sentinel : StreamSentinel, optional
        A :class:`repro.obs.sentinel.StreamSentinel` watching this
        session's served words.  It only *reads* (and copies what it
        samples), so the stream stays byte-identical; its sticky
        verdict folds into :attr:`health` (STAT_SUSPECT -> DEGRADED,
        STAT_BAD -> FAILED) and :meth:`describe`.
    readahead_max : int
        Word cap of the session's readahead buffer.  ``0`` (the
        default) disables readahead.  The buffer holds the *next* words
        of the same stream, prefilled by the batching planner, so hot
        sessions answer from memory; how much is prefetched is a pure
        function of cumulative demand (:meth:`plan_fill`), and the
        served bytes are identical with readahead on or off --
        ``words_served`` stays the only resume coordinate.
    """

    def __init__(
        self,
        session_id: str,
        master_seed: int,
        lanes: int = DEFAULT_SESSION_LANES,
        source_factory: Optional[Callable[[int], BitSource]] = None,
        failover: bool = True,
        engine=None,
        sentinel=None,
        readahead_max: int = 0,
    ):
        self.session_id = session_id
        self.index = session_index(session_id)
        self.seed = session_seed(master_seed, session_id)
        self.lanes = lanes
        self.engine = engine
        if engine is not None:
            self.supervisor = None
            self.prng = None
        else:
            self.prng = stream_bank(self.seed, lanes, source_factory, failover)
            self.supervisor = self.prng.source
            # The addressable bank draws lazily, so probe the feed here
            # and rewind: a fatal feed surfaces its structured error at
            # construction (never a half-built session), without moving
            # the stream position.
            if self.supervisor.seekable:
                self.supervisor.words64(1)
                self.supervisor.seek(0)
        self.sentinel = sentinel
        #: Serializes generation, so serve batches (on the event loop)
        #: and callers on other threads never interleave a stream.
        self.lock = threading.Lock()
        self.words_served = 0
        self.requests = 0
        self.variates_served = 0
        if readahead_max < 0:
            raise ValueError(
                f"readahead_max must be non-negative, got {readahead_max}"
            )
        self.readahead_max = readahead_max
        #: Cumulative words demanded (requested or estimated by the
        #: planner); drives the demand-pure readahead size.
        self.demand_words = 0
        # Readahead buffer: FIFO of uint64 chunks holding the words
        # [words_served, words_served + _ra_buffered) of this stream.
        # For in-process banks the invariant is prng.tell() ==
        # words_served + _ra_buffered (the bank sits at the end of the
        # buffer); engine fetches ship absolute offsets, so no engine-
        # side state depends on the buffer at all.
        self._ra_chunks: deque = deque()
        self._ra_buffered = 0
        # Typed variates ride the *same* word stream: the DistStream
        # draws through _draw_words_locked, so raw FETCHes and VARIATE
        # ops advance one shared word position and words_served stays
        # the single resume coordinate for both.
        self.dist = DistStream(self._draw_words_locked)

    def _fetch_direct(self, offset: int, n: int) -> np.ndarray:
        """Words ``[offset, offset + n)`` straight from the source."""
        if self.engine is not None:
            # The session's own position is the source of truth:
            # shipping it as an absolute offset makes every fetch
            # exact even across engine worker restarts and seeks.
            return self.engine.fetch_stream(
                self.seed, self.lanes, n, offset=offset
            )
        # Fresh buffer filled in place: the caller owns it outright
        # (the serve framing path byte-swaps it in place for the wire).
        if self.prng.tell() != offset:
            self.prng.seek(offset)
        out = np.empty(n, dtype=np.uint64)
        self.prng.generate_into(out)
        return out

    def _take_words(self, n: int) -> np.ndarray:
        """The next ``n`` words, buffer first, source for the rest."""
        if not self._ra_buffered:
            return self._fetch_direct(self.words_served, n)
        chunk = self._ra_chunks[0]
        if chunk.size >= n:
            # Hot path: one buffered chunk covers the request -- serve
            # a zero-copy view (disjoint from the rest of the buffer,
            # so the wire path's in-place byteswap is safe).
            if chunk.size == n:
                self._ra_chunks.popleft()
            else:
                self._ra_chunks[0] = chunk[n:]
            self._ra_buffered -= n
            return chunk[:n]
        out = np.empty(n, dtype=np.uint64)
        pos = 0
        while self._ra_chunks and pos < n:
            chunk = self._ra_chunks[0]
            take = min(chunk.size, n - pos)
            out[pos:pos + take] = chunk[:take]
            if take == chunk.size:
                self._ra_chunks.popleft()
            else:
                self._ra_chunks[0] = chunk[take:]
            self._ra_buffered -= take
            pos += take
        if pos < n:
            # Buffer underrun (variate rejection ate more words than
            # the planner estimated, or readahead is off): the tail
            # comes straight from the source at its absolute offset --
            # correctness never depends on the estimate.
            out[pos:] = self._fetch_direct(self.words_served + pos, n - pos)
        return out

    def _draw_words_locked(self, n: int) -> np.ndarray:
        """The next ``n`` words; the caller must hold :attr:`lock`.

        One code path for every op type: readahead buffer, engine or
        in-process bank, sentinel observation, word accounting.
        ``words_served`` is a *word* offset -- the only replay-safe
        coordinate once rejection samplers make words-per-variate
        data-dependent.
        """
        out = self._take_words(n)
        # The sentinel looks *before* the framing path byte-swaps
        # the buffer; it copies what it samples and never mutates,
        # so served values are unaffected.  It observes words in
        # served order whether they came from buffer or source.
        if self.sentinel is not None:
            self.sentinel.observe(out)
        self.words_served += n
        return out

    # -- readahead (driven by the batching planner) --------------------

    def _readahead_extra(self) -> int:
        """Extra words to prefetch past the current demand.

        A pure function of cumulative demand (like the PR 6 prefetch
        schedule): the next power of two of ``demand_words``, capped at
        :attr:`readahead_max`.  Purity keeps prefetch *volume*
        deterministic for a given request history; the served bytes
        never depend on it either way.
        """
        if self.readahead_max <= 0 or self.demand_words <= 0:
            return 0
        return min(
            self.readahead_max, 1 << (self.demand_words - 1).bit_length()
        )

    def plan_fill(self, demand: int) -> int:
        """Words the planner should prefill for ``demand`` more words.

        Caller must hold :attr:`lock`.  Records the demand, and returns
        ``0`` when the buffer already covers it (a readahead *hit*);
        otherwise the shortfall plus the demand-pure readahead margin.
        The fill must be fetched at :meth:`fill_offset` and handed back
        through :meth:`push_readahead` (or :meth:`fill_local`).
        """
        if demand < 0:
            raise ValueError(f"demand must be non-negative, got {demand}")
        self.demand_words += demand
        need = demand - self._ra_buffered
        if need <= 0:
            return 0
        return need + self._readahead_extra()

    def fill_offset(self) -> int:
        """Absolute word offset the next buffer fill starts at."""
        return self.words_served + self._ra_buffered

    def push_readahead(self, words: np.ndarray) -> None:
        """Append prefetched words (caller must hold :attr:`lock`).

        ``words`` must be the stream's words starting exactly at
        :meth:`fill_offset` -- the batching planner guarantees this by
        fetching the span ``(fill_offset, n)`` it just planned.
        """
        if words.size:
            self._ra_chunks.append(words)
            self._ra_buffered += words.size

    def fill_local(self, n: int) -> None:
        """Prefill ``n`` words from the in-process bank (lock held)."""
        if self.prng is None:
            raise RuntimeError("fill_local needs an in-process bank")
        if n <= 0:
            return
        offset = self.fill_offset()
        if self.prng.tell() != offset:
            self.prng.seek(offset)
        out = np.empty(n, dtype=np.uint64)
        self.prng.generate_into(out)
        self.push_readahead(out)

    @property
    def readahead_buffered(self) -> int:
        """Words currently sitting in the readahead buffer."""
        return self._ra_buffered

    # -- client-visible ops --------------------------------------------

    def generate_locked(self, n: int) -> np.ndarray:
        """:meth:`generate` body; the caller must hold :attr:`lock`.

        The batching executor serves whole batches while holding the
        locks of every session involved, so the public wrapper's
        ``with self.lock`` cannot be reused (``threading.Lock`` is not
        reentrant) -- this is the entry point it calls instead.
        """
        if n < 0:
            raise ValueError(f"count must be non-negative, got {n}")
        out = self._draw_words_locked(n)
        self.requests += 1
        return out

    def generate(self, n: int) -> np.ndarray:
        """The next ``n`` numbers of this session's stream (thread-safe).

        The session's stream is *one* well-defined sequence (lane-major
        round outputs) and fetches slice it, so how a client sizes its
        requests cannot change which numbers it sees -- fetching
        10 + 1 + 53 equals fetching 64.  Round-remainder buffering lives
        in :meth:`ParallelExpanderPRNG.generate` (the core stream
        contract); this wrapper only adds locking and accounting.
        """
        with self.lock:
            return self.generate_locked(n)

    def variates_locked(self, dist: str, n: int, params=None):
        """:meth:`variates` body; the caller must hold :attr:`lock`."""
        values = self.dist.sample(dist, n, params)
        self.requests += 1
        self.variates_served += len(values)
        return values, self.words_served

    def variates(self, dist: str, n: int, params=None):
        """``n`` typed variates off this session's word stream.

        Returns ``(values, words_served_after)``.  Only the zero-carry
        samplers in :data:`repro.dist.SERVE_DISTRIBUTIONS` are
        reachable, so after every op the stream holds no buffered
        variates and the returned word offset is a clean resume
        boundary: a client that reconnects ``RESUME``\\ s there and
        re-requests, and the continuation is byte-identical (the journal
        keeps recording plain word-offset acks -- no new record types).
        """
        with self.lock:
            return self.variates_locked(dist, n, params)

    def seek(self, word_offset: int) -> None:
        """Reposition the stream at an absolute word offset (thread-safe).

        O(log offset) via the bank's jump-ahead; the next
        :meth:`generate` returns exactly the words a fresh session would
        return after ``word_offset`` draws.  This is the ``RESUME``
        primitive: a restarted server seeks recovered sessions to their
        journaled offsets, and a reconnecting client can rewind to the
        last word it actually received for exactly-once delivery.
        """
        if word_offset < 0:
            raise ValueError(
                f"word offset must be non-negative, got {word_offset}"
            )
        with self.lock:
            if self.prng is not None:
                self.prng.seek(word_offset)
            # Engine-backed sessions ship absolute offsets per fetch, so
            # updating the position is all a seek needs to do there.
            self.words_served = word_offset
            # The readahead buffer describes the pre-seek position;
            # drop it (it was never journaled or acked, so exactly-once
            # accounting is untouched).
            self._ra_chunks.clear()
            self._ra_buffered = 0
            # Served samplers are zero-carry so this is belt-and-braces,
            # but any buffered variate describes the pre-seek stream.
            self.dist.reset_carry()

    @property
    def feed_health(self) -> str:
        """Resilience-layer health alone (ignores the sentinel)."""
        if self.engine is not None:
            return self.engine.health
        return self.supervisor.health.name

    @property
    def health(self) -> str:
        """``OK`` / ``DEGRADED`` / ``FAILED`` -- the worse of the
        supervised feed (or shard pool) and the statistical sentinel.

        A stream can be resilience-healthy yet statistically bad (a
        biased-but-alive feed); folding the sentinel verdict in here is
        what makes serve health checks fail on such streams.
        """
        worst = FeedHealth[self.feed_health]
        if self.sentinel is not None:
            worst = max(worst, FeedHealth[self.sentinel.health_name()])
        return worst.name

    def describe(self) -> dict:
        """STATUS-op view of the session (no seed material exposed)."""
        if self.engine is not None:
            active = f"engine-shard-{self.engine.stream_shard(self.seed)}"
        else:
            active = self.supervisor.active_source.name
        doc = {
            "session": self.session_id,
            "stream_index": self.index,
            "requests": self.requests,
            "words_served": self.words_served,
            "variates_served": self.variates_served,
            "readahead_buffered": self._ra_buffered,
            "health": self.health,
            "feed_health": self.feed_health,
            "active_source": active,
        }
        if self.sentinel is not None:
            doc["sentinel"] = self.sentinel.state()
        return doc

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return (
            f"SessionStream(id={self.session_id!r}, index={self.index:#x}, "
            f"health={self.health})"
        )
