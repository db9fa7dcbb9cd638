"""Wire protocol of the on-demand RNG service.

The service speaks a small **length-prefixed binary protocol**: every
frame is a 4-byte big-endian length followed by a 1-byte opcode and a
payload.  Values travel as raw big-endian 64-bit words, so a ``FETCH``
of ``n`` numbers costs ``5 + 8n`` bytes on the wire and decodes to a
NumPy ``uint64`` array with one ``frombuffer`` call.

    +----------------+--------+---------------------+
    | length (u32 BE)| opcode | payload (length - 1)|
    +----------------+--------+---------------------+

Request opcodes
    ``HELLO``   utf-8 session id (establishes / resumes a stream);
    ``FETCH``   u32 BE count of 64-bit numbers wanted;
    ``VARIATE`` u8 distribution id + u32 BE count + fixed-width BE
                parameters -- typed variates from the session's *word*
                stream (see "Typed variates" below);
    ``RESUME``  u64 BE word offset + utf-8 session id -- establish the
                session *and* seek its stream to the offset (the
                exactly-once reconnect primitive: a client resumes at
                the last word it actually received);
    ``STATUS``  empty payload -- server/session health and stats;
    ``BYE``     empty payload -- orderly goodbye.

Response opcodes
    ``VALUES``  raw big-endian u64 words (the numbers);
    ``VARIATES`` u8 distribution id + u64 BE *word offset after the op*
                + raw big-endian 8-byte values (f64 for the float
                distributions, i64/u64 for ``integers``);
    ``BUSY``    utf-8 reason -- explicit backpressure, retry later;
    ``ERROR``   utf-8 message -- the request was invalid;
    ``JSON``    utf-8 JSON document (HELLO ack, STATUS body, BYE ack).

Typed variates
    A ``VARIATE`` request names one of :data:`DIST_IDS` --
    ``uniform01`` (no parameters), ``normal`` (mean, std as f64),
    ``exponential`` (rate as f64) or ``integers`` (a signedness flag,
    the low bound as a raw u64, and the span with 0 meaning ``2**64``).
    Crucially, the session journals and resumes by **words consumed**,
    not variates emitted: rejection sampling makes the words-per-variate
    ratio data-dependent, so the only well-defined replay coordinate is
    the underlying word stream.  Every ``VARIATES`` response therefore
    carries the session's absolute word offset *after* the op; a client
    that reconnects ``RESUME``\\ s at that word offset and re-requests,
    and the served distributions are all zero-carry (see
    :data:`repro.dist.SERVE_DISTRIBUTIONS`), so the continuation is
    byte-identical -- forward replay, never a seek backwards through a
    variate count.

A connection whose **first byte is ``{``** switches to the JSON-lines
debug mode instead: one JSON object per line (``{"op": "fetch",
"n": 8}``), answered with one JSON object per line.  Same semantics,
human-typable through ``nc``: the server decodes both modes into the
same ``(op, args)`` and answers them with one op handler, and the
argument rules below (:func:`check_session_id`, :func:`check_count`,
:func:`check_offset`) are the only ones either mode applies.

This module is shared by the server and both clients; it has no I/O of
its own beyond ``asyncio`` stream helpers.
"""

from __future__ import annotations

import asyncio
import json
import operator
import socket
import struct
import sys
from typing import Optional, Tuple

import numpy as np

__all__ = [
    "OP_HELLO",
    "OP_FETCH",
    "OP_STATUS",
    "OP_BYE",
    "OP_RESUME",
    "OP_VARIATE",
    "OP_VALUES",
    "OP_BUSY",
    "OP_ERROR",
    "OP_JSON",
    "OP_VARIATES",
    "DIST_IDS",
    "DIST_NAMES",
    "MAX_FRAME_BYTES",
    "MAX_FETCH_COUNT",
    "MAX_SESSION_ID_BYTES",
    "ServeError",
    "ProtocolError",
    "ServerBusyError",
    "SessionRequiredError",
    "check_session_id",
    "check_count",
    "check_offset",
    "check_dist",
    "pack_frame",
    "pack_fetch",
    "pack_hello",
    "pack_resume",
    "unpack_resume",
    "pack_variate",
    "unpack_variate",
    "variate_values_dtype",
    "frame_header",
    "encode_values",
    "values_payload",
    "variates_payload",
    "variates_prefix",
    "decode_values",
    "decode_variates",
    "read_frame",
    "read_frame_socket",
    "decode_json_payload",
    "json_line",
]

# Request opcodes (client -> server).
OP_HELLO = 0x01
OP_FETCH = 0x02
OP_STATUS = 0x03
OP_BYE = 0x04
OP_RESUME = 0x05
OP_VARIATE = 0x06

# Response opcodes (server -> client).
OP_VALUES = 0x81
OP_BUSY = 0x82
OP_ERROR = 0x83
OP_JSON = 0x84
OP_VARIATES = 0x85

#: Wire ids of the served distributions (never renumber: they are wire
#: format).  Matches :data:`repro.dist.SERVE_DISTRIBUTIONS`.
DIST_IDS = {"uniform01": 1, "normal": 2, "exponential": 3, "integers": 4}
DIST_NAMES = {v: k for k, v in DIST_IDS.items()}

#: Hard cap on a frame, both directions (16 MiB covers a 2M-number fetch).
MAX_FRAME_BYTES = 16 * 1024 * 1024

#: Largest single FETCH the server will accept (numbers per request).
MAX_FETCH_COUNT = (MAX_FRAME_BYTES - 1) // 8

#: Session ids are short opaque strings, not documents.
MAX_SESSION_ID_BYTES = 256

_LEN = struct.Struct("!I")
_U32 = struct.Struct("!I")
_U64 = struct.Struct("!Q")


class ServeError(Exception):
    """Base class for service-layer errors."""


class ProtocolError(ServeError):
    """Malformed or oversized frame, unknown opcode, truncated stream."""


class ServerBusyError(ServeError):
    """The server shed this request (backpressure); retry later."""


class SessionRequiredError(ServeError):
    """A FETCH arrived before HELLO established a session."""


# ----------------------------------------------------------------------
# Argument rules (the client encoders and the server's op handler)
# ----------------------------------------------------------------------


def check_session_id(session_id) -> str:
    """The session-id rule: 1 to :data:`MAX_SESSION_ID_BYTES` bytes of UTF-8.

    Takes the id as it arrived -- wire bytes, or a str from a caller or
    a JSON message -- and returns it as a str.
    """
    try:
        if isinstance(session_id, bytes):
            raw, text = session_id, session_id.decode("utf-8")
        elif isinstance(session_id, str):
            raw, text = session_id.encode("utf-8"), session_id
        else:
            raise ProtocolError(
                f"session id must be a string, got {session_id!r}"
            )
    except UnicodeError as exc:
        raise ProtocolError(f"session id is not UTF-8: {exc}") from None
    if not raw:
        raise ProtocolError("session id must be non-empty")
    if len(raw) > MAX_SESSION_ID_BYTES:
        raise ProtocolError(
            f"session id too long: {len(raw)} > {MAX_SESSION_ID_BYTES} bytes"
        )
    return text


def _integer(name: str, value) -> int:
    """``value`` as an int; a JSON ``true`` is a bool, not a count."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__"):
        raise ProtocolError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


def check_count(count, what: str = "fetch") -> int:
    """The count rule: an integer in ``[1, MAX_FETCH_COUNT]``."""
    count = _integer(f"{what} count", count)
    if not 1 <= count <= MAX_FETCH_COUNT:
        raise ProtocolError(
            f"{what} count must be in [1, {MAX_FETCH_COUNT}], got {count}"
        )
    return count


def check_offset(offset) -> int:
    """The offset rule: a word offset is an integer in ``[0, 2**64)``."""
    offset = _integer("offset", offset)
    if not 0 <= offset < 2**64:
        raise ProtocolError(f"offset must be a u64, got {offset}")
    return offset


def check_dist(dist) -> str:
    """A served distribution's name (a key of :data:`DIST_IDS`)."""
    if not isinstance(dist, str) or dist not in DIST_IDS:
        raise ProtocolError(
            f"unknown distribution {dist!r}; choose from {sorted(DIST_IDS)}"
        )
    return dist


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------


def pack_frame(opcode: int, payload: bytes = b"") -> bytes:
    """One complete wire frame: length prefix + opcode + payload."""
    if not 0 <= opcode <= 0xFF:
        raise ProtocolError(f"opcode out of range: {opcode}")
    body_len = 1 + len(payload)
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame too large: {body_len} > {MAX_FRAME_BYTES} bytes"
        )
    return _LEN.pack(body_len) + bytes([opcode]) + payload


def pack_hello(session_id: str) -> bytes:
    return pack_frame(OP_HELLO, check_session_id(session_id).encode("utf-8"))


def pack_resume(session_id: str, offset: int) -> bytes:
    """RESUME frame: establish ``session_id`` seeked to word ``offset``.

    Offsets are absolute word positions in the session's one well-defined
    stream (64-bit unsigned: jump-ahead makes any offset cheap), so a
    reconnecting client passes the count of words it has actually
    consumed and the server replays nothing and skips nothing.
    """
    raw = check_session_id(session_id).encode("utf-8")
    return pack_frame(OP_RESUME, _U64.pack(check_offset(offset)) + raw)


def unpack_resume(payload: bytes) -> Tuple[str, int]:
    """RESUME payload -> ``(session_id, offset)``."""
    if len(payload) < _U64.size:
        raise ProtocolError("RESUME payload must be 8 offset bytes + id")
    (offset,) = _U64.unpack(payload[:_U64.size])
    return check_session_id(payload[_U64.size:]), offset


def pack_fetch(count: int) -> bytes:
    return pack_frame(OP_FETCH, _U32.pack(check_count(count)))


# -- typed variates -----------------------------------------------------

_DIST_U8 = struct.Struct("!B")
_NORMAL_PARAMS = struct.Struct("!dd")        # mean, std
_EXP_PARAMS = struct.Struct("!d")            # rate
_INT_PARAMS = struct.Struct("!BQQ")          # signed flag, lo raw, span
_VARIATE_HEAD = struct.Struct("!BI")         # dist id, count
_VARIATES_PREFIX = struct.Struct("!BQ")      # dist id, word offset after op


def _pack_dist_params(dist: str, params: dict) -> bytes:
    if dist == "uniform01":
        return b""
    if dist == "normal":
        return _NORMAL_PARAMS.pack(
            float(params.get("mean", 0.0)), float(params.get("std", 1.0))
        )
    if dist == "exponential":
        return _EXP_PARAMS.pack(float(params.get("rate", 1.0)))
    # integers: lo may live anywhere in [-2**63, 2**64) and hi - lo may
    # be the full 2**64, so the wire carries (signed?, lo mod 2**64,
    # span mod 2**64) -- span 0 encodes 2**64.
    lo = int(params.get("lo", 0))
    hi = int(params.get("hi", 2**63))
    span = hi - lo
    if not 1 <= span <= 2**64:
        raise ProtocolError(f"integers range [{lo}, {hi}) is empty or > 2**64")
    if not -(2**63) <= lo < 2**64:
        raise ProtocolError(f"integers low bound {lo} not representable")
    return _INT_PARAMS.pack(
        1 if lo < 0 else 0, lo & (2**64 - 1), span & (2**64 - 1)
    )


def _unpack_dist_params(dist: str, raw: bytes) -> dict:
    try:
        if dist == "uniform01":
            if raw:
                raise ProtocolError("uniform01 takes no parameters")
            return {}
        if dist == "normal":
            mean, std = _NORMAL_PARAMS.unpack(raw)
            return {"mean": mean, "std": std}
        if dist == "exponential":
            (rate,) = _EXP_PARAMS.unpack(raw)
            return {"rate": rate}
        negative, lo_raw, span_raw = _INT_PARAMS.unpack(raw)
        lo = lo_raw - 2**64 if negative else lo_raw
        span = span_raw or 2**64
        return {"lo": lo, "hi": lo + span}
    except struct.error as exc:
        raise ProtocolError(f"bad {dist} parameter block: {exc}") from exc


def pack_variate(dist: str, count: int, params: Optional[dict] = None) -> bytes:
    """VARIATE frame: distribution id + count + typed parameters."""
    count = check_count(count, "variate")
    return pack_frame(
        OP_VARIATE,
        _VARIATE_HEAD.pack(DIST_IDS[check_dist(dist)], count)
        + _pack_dist_params(dist, params or {}),
    )


def unpack_variate(payload: bytes) -> Tuple[str, int, dict]:
    """VARIATE payload -> ``(dist_name, count, params)``."""
    if len(payload) < _VARIATE_HEAD.size:
        raise ProtocolError("VARIATE payload too short")
    dist_id, count = _VARIATE_HEAD.unpack(payload[:_VARIATE_HEAD.size])
    dist = DIST_NAMES.get(dist_id)
    if dist is None:
        raise ProtocolError(f"unknown distribution id {dist_id}")
    count = check_count(count, "variate")
    return dist, count, _unpack_dist_params(dist, payload[_VARIATE_HEAD.size:])


def variate_values_dtype(dist: str, params: Optional[dict] = None) -> np.dtype:
    """Client-side dtype of a VARIATES payload for ``dist``.

    Floats for the continuous distributions; for ``integers`` the same
    int64/uint64 rule the samplers use (unsigned only when the range
    needs it).
    """
    if dist != "integers":
        return np.dtype(np.float64)
    params = params or {}
    hi = int(params.get("hi", 2**63))
    lo = int(params.get("lo", 0))
    return np.dtype(np.uint64) if (lo >= 0 and hi > 2**63) else np.dtype(np.int64)


def variates_prefix(dist: str, words_consumed: int) -> bytes:
    """The 9-byte VARIATES payload prefix (dist id + word offset)."""
    return _VARIATES_PREFIX.pack(
        DIST_IDS[check_dist(dist)], check_offset(words_consumed)
    )


def variates_payload(values: np.ndarray) -> memoryview:
    """Typed values -> big-endian wire bytes, zero-copy when possible.

    Same in-place byteswap contract as :func:`values_payload`, extended
    to the 8-byte dtypes a VARIATES response can carry (f64, i64, u64).
    **Consumes the array** -- the caller must own it.
    """
    if (
        isinstance(values, np.ndarray)
        and values.dtype in (np.float64, np.int64, np.uint64)
        and values.ndim == 1
        and values.flags.c_contiguous
        and values.flags.writeable
    ):
        if sys.byteorder == "little":
            values.byteswap(inplace=True)
        return values.data.cast("B")
    arr = np.ascontiguousarray(values)
    return memoryview(arr.astype(arr.dtype.newbyteorder(">")).tobytes())


def decode_variates(
    payload: bytes, dtype: Optional[np.dtype] = None
) -> Tuple[str, int, np.ndarray]:
    """VARIATES payload -> ``(dist_name, word_offset, values)``.

    ``dtype`` overrides the value dtype (a client that requested an
    unsigned ``integers`` range passes uint64); by default float
    distributions decode as float64 and ``integers`` as int64.
    """
    if len(payload) < _VARIATES_PREFIX.size:
        raise ProtocolError("VARIATES payload too short")
    dist_id, words = _VARIATES_PREFIX.unpack(payload[:_VARIATES_PREFIX.size])
    dist = DIST_NAMES.get(dist_id)
    if dist is None:
        raise ProtocolError(f"unknown distribution id {dist_id}")
    body = payload[_VARIATES_PREFIX.size:]
    if len(body) % 8:
        raise ProtocolError(
            f"VARIATES payload not a multiple of 8 bytes: {len(body)}"
        )
    if dtype is None:
        dtype = variate_values_dtype(dist)
    dtype = np.dtype(dtype)
    values = np.frombuffer(body, dtype=dtype.newbyteorder(">")).astype(dtype)
    return dist, words, values


def frame_header(opcode: int, payload_len: int) -> bytes:
    """Length prefix + opcode for a frame whose payload travels separately.

    Enables zero-copy sends: write the 5 header bytes, then the payload
    buffer itself (e.g. a :func:`values_payload` memoryview), instead of
    concatenating them into one intermediate ``bytes``.
    """
    if not 0 <= opcode <= 0xFF:
        raise ProtocolError(f"opcode out of range: {opcode}")
    body_len = 1 + payload_len
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame too large: {body_len} > {MAX_FRAME_BYTES} bytes"
        )
    return _LEN.pack(body_len) + bytes([opcode])


def encode_values(values: np.ndarray) -> bytes:
    """uint64 array -> raw big-endian payload bytes."""
    return np.ascontiguousarray(values, dtype=np.uint64).astype(">u8").tobytes()


def values_payload(values: np.ndarray) -> memoryview:
    """uint64 array -> big-endian VALUES payload, zero-copy when possible.

    **Consumes the array**: a C-contiguous ``uint64`` input is
    byte-swapped *in place* on little-endian hosts and the returned
    memoryview aliases its memory -- the caller must own ``values`` and
    must not read it (or reuse its buffer) until the payload has been
    fully written out.  Inputs that cannot be swapped in place fall back
    to :func:`encode_values` (one copy).
    """
    if (
        isinstance(values, np.ndarray)
        and values.dtype == np.uint64
        and values.ndim == 1
        and values.flags.c_contiguous
        and values.flags.writeable
    ):
        if sys.byteorder == "little":
            values.byteswap(inplace=True)
        return values.data.cast("B")
    return memoryview(encode_values(values))


def decode_values(payload: bytes) -> np.ndarray:
    """Raw big-endian payload bytes -> uint64 array (copy; writable)."""
    if len(payload) % 8:
        raise ProtocolError(
            f"VALUES payload not a multiple of 8 bytes: {len(payload)}"
        )
    return np.frombuffer(payload, dtype=">u8").astype(np.uint64)


def _check_length(body_len: int) -> None:
    if body_len < 1:
        raise ProtocolError(f"empty frame body (length {body_len})")
    if body_len > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame too large: {body_len} > {MAX_FRAME_BYTES} bytes"
        )


async def read_frame(
    reader: asyncio.StreamReader, head: bytes = b""
) -> Tuple[int, bytes]:
    """Read one frame from an asyncio stream; ``(opcode, payload)``.

    ``head`` is the start of the length prefix when the caller already
    consumed it (the server sniffs a connection's first byte to pick
    its wire mode).  Raises :class:`ProtocolError` on an oversized or
    empty frame and ``ConnectionError``-family exceptions as asyncio
    surfaces them.  A clean EOF *between* frames raises
    ``asyncio.IncompleteReadError`` with nothing read (callers treat
    that as goodbye).
    """
    header = head + await reader.readexactly(4 - len(head))
    (body_len,) = _LEN.unpack(header)
    _check_length(body_len)
    body = await reader.readexactly(body_len)
    return body[0], body[1:]


def read_frame_socket(sock: socket.socket) -> Tuple[int, bytes]:
    """Blocking counterpart of :func:`read_frame` for the sync client."""
    header = _recv_exactly(sock, 4)
    (body_len,) = _LEN.unpack(header)
    _check_length(body_len)
    body = _recv_exactly(sock, body_len)
    return body[0], body[1:]


def _recv_exactly(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


# ----------------------------------------------------------------------
# JSON-lines debug mode
# ----------------------------------------------------------------------


def decode_json_payload(payload: bytes) -> dict:
    """Parse a JSON response payload (HELLO ack, STATUS, BYE ack)."""
    try:
        doc = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"bad JSON payload: {exc}") from exc
    if not isinstance(doc, dict):
        raise ProtocolError("JSON payload must be an object")
    return doc


def json_line(doc: dict) -> bytes:
    """Encode one JSON-lines message (newline-terminated)."""
    return (json.dumps(doc, sort_keys=True) + "\n").encode("utf-8")
