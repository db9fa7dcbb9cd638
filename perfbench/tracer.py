"""Spans recorded from outside the program, around calls into its layers.

The traced run installs wrappers on each layer's entry points (see
:func:`install`); the program itself is not edited.  A span records its
name, start, end, parent span and the ops it serves.  An op is one bulk
``generate_into`` call or one served request; its root span is timed by
the caller (the bulk loop, or the load generator on the client side of
the socket), and every clock is ``time.monotonic`` -- CLOCK_MONOTONIC,
shared by all processes on the host -- so server-side spans line up with
client-side roots.

Self time follows one rule: every instant of an op's root interval is
charged to the innermost span of that op open at that instant, or to
``other`` when none is.  For properly nested spans this is the span's
duration minus the part its children cover; spans that overlap (a batch
still executing after this op's reply left) are clipped to the root and
never double-charged.  The layer self times plus ``other`` therefore add
up to the op time exactly, up to floating-point rounding.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

#: Ops the current asyncio task is serving (set when a request is
#: submitted; read by spans on the event-loop thread, such as framing).
CURRENT_OPS: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_ops", default=None
)

#: Name that time covered by no span is charged to.
OTHER = "other"


class Span(NamedTuple):
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    ops: Optional[tuple]
    #: Work the call did (words, numbers, spans) and how many items.
    n: int = 0
    k: int = 1

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]


Count = Callable[[tuple, object], Tuple[int, int]]


class Tracer:
    """Keeps spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._undo: List[tuple] = []
        #: Serve: the op each session is currently serving.  At most one
        #: request per session is in flight, because every session
        #: belongs to one closed-loop connection.
        self.session_ops: Dict[str, tuple] = {}
        self._session_requests: Dict[str, int] = defaultdict(int)

    # -- recording -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self) -> bool:
        """False in processes forked from the traced one (engine workers):
        their spans would never be written out, so they record none."""
        return os.getpid() == self._pid

    def record(self, name: str, start: float, end: float, ops) -> None:
        """A span timed by hand (no call to wrap)."""
        self.spans.append(Span(next(self._ids), name, start, end, None, ops))

    def call(self, name: str, fn, args, kwargs, ops=None,
             count: Optional[Count] = None):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None and parent[1] == name:
            # Re-entry into the same layer (a subclass calling its base
            # class's wrapped method) is part of the outer span.
            return fn(*args, **kwargs)
        if ops is None:
            ops = parent[2] if parent is not None else CURRENT_OPS.get()
        sid = next(self._ids)
        stack.append((sid, name, ops))
        parent_sid = parent[0] if parent is not None else None
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            end = time.monotonic()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent_sid, ops))
            raise
        end = time.monotonic()
        stack.pop()
        n, k = count(args, result) if count is not None else (0, 1)
        self.spans.append(Span(sid, name, start, end, parent_sid, ops, n, k))
        return result

    @contextlib.contextmanager
    def op(self, op_id):
        """Root span, named ``op``, of one op timed by its caller."""
        sid = next(self._ids)
        ops = (op_id,)
        stack = self._stack()
        stack.append((sid, "op", ops))
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append(Span(sid, "op", start, end, None, ops))

    # -- installing ----------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             count: Optional[Count] = None,
             ops_of: Optional[Callable[[tuple], Optional[tuple]]] = None):
        """Replace ``owner.attr`` with a span-recording wrapper."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active():
                return orig(*args, **kwargs)
            ops = ops_of(args) if ops_of is not None else None
            return tracer.call(name, orig, args, kwargs, ops, count)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def next_request(self, session_id: str) -> tuple:
        """Op id of a session's next request: ``(session id, index)``."""
        k = self._session_requests[session_id]
        self._session_requests[session_id] = k + 1
        return (session_id, k)

    def dump(self) -> list:
        return [list(s) for s in self.spans]


def load_spans(rows: Iterable[list]) -> List[Span]:
    """Inverse of :meth:`Tracer.dump` (JSON turns tuples into lists)."""
    out = []
    for row in rows:
        sid, name, start, end, parent, ops, n, k = row
        if ops is not None:
            ops = tuple(tuple(o) if isinstance(o, list) else o for o in ops)
        out.append(Span(sid, name, start, end, parent, ops, n, k))
    return out


# ----------------------------------------------------------------------
# Hook points
# ----------------------------------------------------------------------

def _words(args, result):
    return int(args[1]), 1


def _out_size(args, result):
    return int(args[1].size), 1


def install(tracer: Tracer) -> None:
    """Wrap every layer's entry points.

    One list for all workloads: a wrapper on a path a workload never
    takes costs nothing.  Two hooks are private names because the
    program has no public equivalent: ``BatchingExecutor._execute`` (the
    start of batch execution, which ends a request's queue wait) and
    ``SessionStream._draw_words_locked`` (the word draws inside a
    variate op, which ``dist`` self time excludes).
    """
    from repro.bitsource.counter import SplitMix64Source
    from repro.bitsource.glibc import GlibcRandom
    from repro.core.parallel import (
        AddressableExpanderPRNG,
        ParallelExpanderPRNG,
    )
    from repro.dist.stream import DistStream
    from repro.engine.ring import SharedRing
    from repro.engine.sharded import ShardedEngine
    from repro.obs.sentinel.verdict import StreamSentinel
    from repro.resilience.supervised import SupervisedFeed
    from repro.serve import protocol
    from repro.serve.batching import BatchingExecutor
    from repro.serve.session import SessionStream

    for cls in (GlibcRandom, SplitMix64Source):
        tracer.wrap(cls, "words64", "bitsource", count=_words)
        tracer.wrap(cls, "seek", "bitsource")
    tracer.wrap(SupervisedFeed, "words64", "resilience", count=_words)
    tracer.wrap(SupervisedFeed, "seek", "resilience")
    for cls in (ParallelExpanderPRNG, AddressableExpanderPRNG):
        tracer.wrap(cls, "generate_into", "core", count=_out_size)
    tracer.wrap(ShardedEngine, "generate_into", "engine", count=_out_size)
    tracer.wrap(
        ShardedEngine, "fetch_spans", "engine:fetch_spans",
        count=lambda a, r: (sum(int(s[3]) for s in a[1]), len(a[1])),
    )
    tracer.wrap(ShardedEngine, "fetch_stream", "engine",
                count=lambda a, r: (int(a[3]), 1))
    tracer.wrap(SharedRing, "peek", "engine.ring_wait")
    tracer.wrap(DistStream, "sample", "dist")
    tracer.wrap(StreamSentinel, "observe", "sentinel")

    def session_ops(args):
        return tracer.session_ops.get(args[0].session_id)

    tracer.wrap(SessionStream, "__init__", "serve.session_create",
                ops_of=lambda a: (("hello", a[1]),))
    for meth in ("generate_locked", "variates_locked", "_draw_words_locked",
                 "fill_local"):
        tracer.wrap(SessionStream, meth, "serve.session:" + meth,
                    ops_of=session_ops)
    # Words planned; 0 is a readahead hit.
    tracer.wrap(SessionStream, "plan_fill", "serve.session:plan_fill",
                count=lambda a, r: (int(r), 1), ops_of=session_ops)
    for fn in ("values_payload", "variates_payload", "variates_prefix",
               "frame_header"):
        tracer.wrap(protocol, fn, "serve.framing")

    submit = BatchingExecutor.try_submit

    def try_submit(self, session, count, dist=None, params=None):
        if tracer.active():
            ops = (tracer.next_request(session.session_id),)
            tracer.session_ops[session.session_id] = ops
            # The request's task keeps this context after the await, so
            # the framing calls that send its reply see the same op.
            CURRENT_OPS.set(ops)
        return submit(self, session, count, dist=dist, params=params)

    execute = BatchingExecutor._execute

    def _execute(self, batch, loop):
        if not tracer.active():
            return execute(self, batch, loop)
        started = time.monotonic()
        ops: list = []
        for req in batch:
            req_ops = tracer.session_ops.get(req.session.session_id)
            if req_ops:
                ops.extend(req_ops)
                tracer.record("serve.queue_wait", req.enqueued_at, started,
                              req_ops)
        return tracer.call("serve.execute", execute, (self, batch, loop),
                           {}, tuple(ops) or None)

    tracer.patch(BatchingExecutor, "try_submit", try_submit)
    tracer.patch(BatchingExecutor, "_execute", _execute)


# ----------------------------------------------------------------------
# Attribution
# ----------------------------------------------------------------------

def attribute(start: float, end: float, spans: List[Span]) -> Dict[str, float]:
    """Seconds of ``[start, end]`` charged to each span name (and OTHER).

    Each instant goes to the innermost open span: the one deepest in the
    parent chain among ``spans``, the latest started on a tie.
    """
    by_sid = {s.sid: s for s in spans}
    depth: Dict[int, int] = {}

    def depth_of(s: Span) -> int:
        d = depth.get(s.sid)
        if d is None:
            parent = by_sid.get(s.parent)
            d = 1 if parent is None else depth_of(parent) + 1
            depth[s.sid] = d
        return d

    events = []
    for i, s in enumerate(spans):
        a, b = max(s.start, start), min(s.end, end)
        if b > a:
            events.append((a, 1, i))
            events.append((b, 0, i))
    events.sort()
    charged: Dict[str, float] = defaultdict(float)
    active: Dict[int, tuple] = {}
    t = start
    for when, opening, i in events:
        if when > t:
            if active:
                inner = max(active, key=active.__getitem__)
                charged[spans[inner].name] += when - t
            else:
                charged[OTHER] += when - t
            t = when
        if opening:
            s = spans[i]
            active[i] = (depth_of(s), s.start, s.sid)
        else:
            del active[i]
    if end > t:
        charged[OTHER] += end - t
    return charged


class Breakdown(NamedTuple):
    ops: int
    #: Mean op time (seconds).
    op_s: float
    #: Mean seconds per op charged to each layer (``other`` included).
    self_s: Dict[str, float]
    #: Per-op sums of span work counts, split evenly over shared spans:
    #: ``(name, "n")`` and ``(name, "calls")``.
    counts: Dict[tuple, float]


def breakdown(roots: Dict[object, Tuple[float, float]],
              spans: List[Span]) -> Breakdown:
    """Per-op layer self times for ops with root intervals ``roots``."""
    by_op: Dict[object, List[Span]] = defaultdict(list)
    for s in spans:
        if s.ops:
            for op in s.ops:
                if op in roots:
                    by_op[op].append(s)
    total_self: Dict[str, float] = defaultdict(float)
    counts: Dict[tuple, float] = defaultdict(float)
    op_total = 0.0
    for op, (start, end) in roots.items():
        mine = by_op.get(op, [])
        op_total += end - start
        for name, secs in attribute(start, end, mine).items():
            layer = OTHER if name == OTHER else name.split(":", 1)[0]
            total_self[layer] += secs
        for s in mine:
            share = 1.0 / len(s.ops)
            counts[(s.name, "n")] += s.n * share
            counts[(s.name, "calls")] += s.k * share
    n = max(1, len(roots))
    return Breakdown(
        ops=len(roots),
        op_s=op_total / n,
        self_s={k: v / n for k, v in total_self.items()},
        counts={k: v / n for k, v in counts.items()},
    )


def inclusive(spans: Iterable[Span], layer: str) -> Tuple[float, float]:
    """``(seconds, work)`` summed over the outermost spans of ``layer``."""
    spans = list(spans)
    layer_of = {s.sid: s.layer for s in spans}
    secs = work = 0.0
    for s in spans:
        if s.layer == layer and layer_of.get(s.parent) != layer:
            secs += s.end - s.start
            work += s.n
    return secs, work
