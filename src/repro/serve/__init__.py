"""repro.serve: the on-demand RNG service layer.

The paper's differentiator over batch GPU generators is that the
expander-walk PRNG is *on demand* -- any consumer calls
``GetNextRand()`` whenever it wants a number.  This package carries that
contract across a network boundary, Shoverand-style: every client
session gets an **independently seeded, reproducible expander stream**
(SplitMix64 ``derive_seed`` under the server's master seed, keyed by the
session id), requests from all sessions are **coalesced into batches**
run one at a time on the event loop, and overload is **explicit
backpressure** (bounded queues, per-session token buckets, ``BUSY``
responses) instead of unbounded buffering.

Modules
-------
:mod:`repro.serve.protocol`  length-prefixed binary frames + JSON-lines
                             debug mode, shared by server and clients;
:mod:`repro.serve.session`   per-client stream derivation and the
                             supervised feed chain behind each stream;
:mod:`repro.serve.batching`  request coalescing, batch execution on the
                             event loop, and the token-bucket rate limiter;
:mod:`repro.serve.journal`   the durable append-only session journal
                             behind crash recovery and ``RESUME``;
:mod:`repro.serve.server`    the asyncio TCP server + background-thread
                             harness for embedding;
:mod:`repro.serve.client`    blocking and asyncio clients.

See ``docs/serving.md`` for the protocol spec and operational
semantics, and ``examples/serve_client.py`` for a runnable walkthrough.
"""

from repro.serve.batching import BatchingExecutor, TokenBucket
from repro.serve.client import AsyncServeClient, ConnectError, ServeClient
from repro.serve.journal import JournalState, SessionJournal, read_journal
from repro.serve.protocol import (
    ProtocolError,
    ServeError,
    ServerBusyError,
    SessionRequiredError,
)
from repro.serve.server import (
    BackgroundServer,
    RNGServer,
    ServeConfig,
    serve_background,
)
from repro.serve.session import SessionStream, session_index, session_seed

__all__ = [
    "AsyncServeClient",
    "BackgroundServer",
    "BatchingExecutor",
    "ConnectError",
    "JournalState",
    "ProtocolError",
    "RNGServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerBusyError",
    "SessionJournal",
    "SessionRequiredError",
    "SessionStream",
    "TokenBucket",
    "read_journal",
    "serve_background",
    "session_index",
    "session_seed",
]
