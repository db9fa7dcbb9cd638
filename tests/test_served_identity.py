"""Literal goldens for the chain that names a served stream.

A served word is a pure function of ``(master seed, session id, lanes,
offset)``.  The id hashes to :func:`session_index`; the index and the
master seed mix to the session's feed seed through :func:`derive_seed`;
that seed feeds a SplitMix64-fed ``AddressableExpanderPRNG`` bank, in
process or in the engine worker that :meth:`ShardedEngine.stream_shard`
routes it to.  A journal stores offsets, not words, so a change
anywhere on that chain would resume every journaled session onto other
bytes while every test that compares the code with itself still
passed.  These literals were recorded once and must never change:

* ``derive_seed`` at a few ``(seed, index)`` pairs;
* ``session_index`` of a few ids;
* 8 words of two sessions (master seed 99; ``alice`` and ``dave``,
  routed to different shards of a 2-shard engine) at 16 and 64 lanes,
  at offsets from 0 to 2**48 + 7;
* the same 64-lane words fetched through a 2-shard serve-only engine;
* words of the engine's bulk stream at 2 and 3 shards, fed by glibc as
  ``repro generate --shards`` feeds it (seed 7, 4096 lanes in all):
  the first words, the words around the shard 0/1 seam, and the first
  words of round 1;
* one ``VARIATE`` reply per served distribution on session ``alice``:
  the values' bit patterns and the word offset the reply returns, from
  a server that generates in process and from one on a 2-shard engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitsource.glibc import GlibcRandom
from repro.core.streams import derive_seed
from repro.engine import EngineConfig, ShardedEngine, serial_reference
from repro.serve import ServeClient, ServeConfig, serve_background
from repro.serve.session import SessionStream, session_index, session_seed

MASTER_SEED = 99
OFFSETS = [0, 1, 4096, (1 << 32) + 5, (1 << 48) + 7]

DERIVE_SEED = {
    (0, 0): 0xe220a8397b1dcdaf,
    (1, 0): 0x910a2dec89025cc1,
    (0, 1): 0x6e789e6aa1b965f4,
    (7, 2): 0x9cebe8a6d050dd01,
    (12345, (1 << 63) + 11): 0xd406d14adee825aa,
}

SESSION_INDEX = {
    "alice": 0x2bd806c97f0e00af,
    "dave": 0x61ea0803f8853523,
    "ci-smoke": 0x65c20f7e4d7f94d7,
    "": 0xe3b0c44298fc1c14,
}

SESSION_WORDS = {
    ("alice", 16, 0): [
        0x8b2212871a24dc4d, 0x616ab7b78450cf3d, 0x45649ae9b5a903e2,
        0xfa6c89b3f340b4ec, 0xb30faab652bbe41a, 0x9ca13a7704095997,
        0x04c9b81e01b36324, 0x547dffaa09c49758,
    ],
    ("alice", 16, 1): [
        0x616ab7b78450cf3d, 0x45649ae9b5a903e2, 0xfa6c89b3f340b4ec,
        0xb30faab652bbe41a, 0x9ca13a7704095997, 0x04c9b81e01b36324,
        0x547dffaa09c49758, 0x14b42f34b83da8e8,
    ],
    ("alice", 16, 4096): [
        0x1446e6a1a298fdae, 0x278ec8b421a66420, 0x1faac613620f9542,
        0x77c3b96dcff69b82, 0xe5c673b0908ad44a, 0xf5831e9469cbfe94,
        0xabde03a1ed582387, 0x42b60179ba20ac4c,
    ],
    ("alice", 16, (1 << 32) + 5): [
        0x3804cb0780e08d21, 0x7783b8f0d07a2b55, 0xe12525c1e9e259d6,
        0x56cdad436473e04f, 0x05c32d595efe999d, 0x859c7875c26d9957,
        0x7b8a6066724cc287, 0x34027d5d4b9d1e47,
    ],
    ("alice", 16, (1 << 48) + 7): [
        0x30f90e5fd0e52641, 0xdd6c867ed5c3e0e4, 0xbf5d34e95e99a97a,
        0xa8b502710dc3d020, 0x831a460ff17addcb, 0xddc874ee6468efb0,
        0x96ce64d6d4745c62, 0x5eb69e1e24eded2d,
    ],
    ("alice", 64, 0): [
        0xe86bd09ddae2323e, 0x5e6d7448b63a9233, 0x6146bd9a315181a2,
        0x380b471432a2a489, 0xf7f6cded6f6af2c3, 0xa8cb85c839498aa3,
        0xfab4c11faeaaf686, 0x52c578590d51d7fe,
    ],
    ("alice", 64, 1): [
        0x5e6d7448b63a9233, 0x6146bd9a315181a2, 0x380b471432a2a489,
        0xf7f6cded6f6af2c3, 0xa8cb85c839498aa3, 0xfab4c11faeaaf686,
        0x52c578590d51d7fe, 0x10e2f617c31546eb,
    ],
    ("alice", 64, 4096): [
        0xa084526ba4e05eda, 0x100bfa4d25438567, 0x03c5623152f208c3,
        0x3d258688f195e03e, 0xc0d993f0f21b8d44, 0xc527c13d47e7dfe1,
        0x8c89a5d6778a997b, 0x287953c00ee598b3,
    ],
    ("alice", 64, (1 << 32) + 5): [
        0x447dfc52084ab7d3, 0xdf80550e3920f3a7, 0x12c4ae6a7fa2692e,
        0x21a8e390ec190b7a, 0x82f5d268de94f859, 0xb62c55e7b5b9140e,
        0x7fb3927f7d7d6e59, 0x4a043e82d9f309c9,
    ],
    ("alice", 64, (1 << 48) + 7): [
        0x6febc8ead2787f44, 0x1148dccd473270e3, 0x11c0db5a6c12becd,
        0x33838157a906b2a3, 0x990429f5147312c8, 0xab351a149808ca64,
        0x6f48ceb759bdc405, 0x32463e2255511ccd,
    ],
    ("dave", 16, 0): [
        0x22fec010717b2333, 0x1814edb5d526d212, 0x272a774c122e1390,
        0x8e142631cff90e5c, 0x51fc22283e72dc18, 0xbc006cea2c6a0e1a,
        0x8e831012546873d4, 0x3e747d73596225cf,
    ],
    ("dave", 16, 1): [
        0x1814edb5d526d212, 0x272a774c122e1390, 0x8e142631cff90e5c,
        0x51fc22283e72dc18, 0xbc006cea2c6a0e1a, 0x8e831012546873d4,
        0x3e747d73596225cf, 0x2b86511c64c4014b,
    ],
    ("dave", 16, 4096): [
        0x13e93780afb4099e, 0x836ad17baca88d29, 0x09ae6f8c14c9c4e8,
        0xd6da331f99993180, 0xd258b2f04cde8d30, 0x8168851e7be4d85d,
        0xca80f0c69143bce4, 0x4044b3c0ebd38c03,
    ],
    ("dave", 16, (1 << 32) + 5): [
        0x5556768579f3db25, 0xf5868f9ff2b1a9c6, 0xbf647743009163a9,
        0xf12534c3e85f2e3d, 0x2b1ffaa781fe14ae, 0xd7b39dd77dbe70ba,
        0x101e4ec9189f5584, 0x0437b657a6e37c74,
    ],
    ("dave", 16, (1 << 48) + 7): [
        0x1f9138eb45474da9, 0x4d45ac1481f123a1, 0xf768107bc41f2a50,
        0x8889c98361d5d90c, 0xb42e624d06793a31, 0x3401855f7ff7a9f5,
        0xb480e74ba24f3cc4, 0xbc23d7d9b0243c90,
    ],
    ("dave", 64, 0): [
        0x2bf7e5a496261457, 0x704bed47296f78cb, 0x00b29bddc36ab2e5,
        0xd72dfbe454c3afea, 0x35d3badfe8cdf5d6, 0x7985c994bdbb6adc,
        0xf251085dc8f7c3b9, 0x4375c265205152cd,
    ],
    ("dave", 64, 1): [
        0x704bed47296f78cb, 0x00b29bddc36ab2e5, 0xd72dfbe454c3afea,
        0x35d3badfe8cdf5d6, 0x7985c994bdbb6adc, 0xf251085dc8f7c3b9,
        0x4375c265205152cd, 0x525eeeddc32d2e64,
    ],
    ("dave", 64, 4096): [
        0xe65a82e713cfe24e, 0x351e4bf4fee03b00, 0x22d268558cfe6a5f,
        0x2694ffd9a8642e40, 0x127618ab8cbd5855, 0x8b19a63ec850b0bd,
        0x8cf43cf7bd5485d7, 0x98f8d171e022773e,
    ],
    ("dave", 64, (1 << 32) + 5): [
        0x32bf35784fddb980, 0xa2dce885407065bb, 0x9a56b81784fcf95f,
        0x37aec4e81f1be985, 0xe98c995c9e0d6d00, 0x9c3b5933161e682f,
        0x60f4acc5cca71f18, 0x80f2a966044588b3,
    ],
    ("dave", 64, (1 << 48) + 7): [
        0x3d8382eae0ccac61, 0xd3a67ff07937b446, 0x1b029d7a1d47a865,
        0x4b93ad04ed57d42e, 0x97d83e325cb18d48, 0x01c0a16301a9a395,
        0xa2d43f4b0d3b2ddb, 0xe980fdc9856fd46d,
    ],
}

BULK = {
    2: {
        0: 0x30c6f2f37ff93c39,
        1: 0xb39cc879a383d7fa,
        2: 0xa01dc8257170ba35,
        3: 0xb743e70ccc116657,
        2046: 0xc110bbc026689749,
        2047: 0xc7c33cbf7cb9edb0,
        2048: 0xedfdd32fc83064d6,
        2049: 0x6246f834d3200f3b,
        4096: 0x553be489b0b30764,
        4097: 0xfd4096e6afdd43f3,
        4098: 0xb39a07ebed0d9c60,
        4099: 0x8d9c08adec032c8a,
    },
    3: {
        0: 0x3626aa310e9c4f5e,
        1: 0xfd4032c3a7347bca,
        2: 0xa5540ec67827f154,
        3: 0xa2225d2846bca5f7,
        1363: 0x5553226999626821,
        1364: 0xcdc2b1dfb0c6fb35,
        1365: 0x157e7c6bcd447e45,
        1366: 0x1c3626ff999111c2,
        4095: 0xb8fd8c55e0daa770,
        4096: 0xdf1989f512349605,
        4097: 0x86e3de49b71b2d8d,
        4098: 0x9ea104d0a1f10839,
    },
}

#: The first ``VARIATE`` reply of 6 values on a fresh ``alice`` session:
#: ``dist -> (params, value bit patterns, word offset after the op)``.
VARIATES = {
    "uniform01": (
        {},
        [0x3fed0d7a13bb5c46, 0x3fd79b5d122d8ea4, 0x3fd851af668c5460,
         0x3fcc05a38a195150, 0x3feefed9bdaded5e, 0x3fe51970b9072931],
        6,
    ),
    "normal": (
        {"mean": 0.0, "std": 1.0},
        [0x3ffdb3239ba83e7f, 0xbfdfc9c607313eec, 0x3ff0a33edb6136e9,
         0x3ff76c38af053acc, 0x3fa7a9de38544644, 0x3fcaa33b0e31551a],
        12,
    ),
    "exponential": (
        {"rate": 1.5},
        [0x3ff9702b2ff50943, 0x3fd3a2df19fb8830, 0x3fd4652c566ace2d,
         0x3fc5158d928a786d, 0x400275c4a0b5ac0c, 0x3fe6f9658b409acc],
        6,
    ),
    "integers": (
        {"lo": -5, "hi": 100},
        [0x000000000000005a, 0x0000000000000021, 0x0000000000000022,
         0x0000000000000011, 0x0000000000000060, 0x0000000000000040],
        6,
    ),
}


def _words(values) -> np.ndarray:
    return np.array(values, dtype=np.uint64)


@pytest.mark.parametrize("seed,index", sorted(DERIVE_SEED))
def test_derive_seed(seed, index):
    assert derive_seed(seed, index) == DERIVE_SEED[(seed, index)]


@pytest.mark.parametrize("session_id", sorted(SESSION_INDEX))
def test_session_index(session_id):
    assert session_index(session_id) == SESSION_INDEX[session_id]


@pytest.mark.parametrize("session_id,lanes,offset", sorted(SESSION_WORDS))
def test_session_words(session_id, lanes, offset):
    session = SessionStream(session_id, master_seed=MASTER_SEED, lanes=lanes)
    session.seek(offset)
    np.testing.assert_array_equal(
        session.generate(8), _words(SESSION_WORDS[(session_id, lanes, offset)])
    )


def test_engine_named_streams():
    """One batch of every 64-lane span, out of offset order, across both
    shards of a serve-only engine."""
    keys = sorted(k for k in SESSION_WORDS if k[1] == 64)[::-1]
    with ShardedEngine(EngineConfig(seed=MASTER_SEED, shards=2,
                                    ring_slots=0)) as eng:
        seeds = [session_seed(MASTER_SEED, sid) for sid, _, _ in keys]
        assert {eng.stream_shard(seed) for seed in seeds} == {0, 1}
        got = eng.fetch_spans([
            (seed, lanes, offset, 8)
            for seed, (_, lanes, offset) in zip(seeds, keys)
        ])
    for key, words in zip(keys, got):
        np.testing.assert_array_equal(words, _words(SESSION_WORDS[key]))


@pytest.mark.parametrize("shards", sorted(BULK))
def test_bulk_stream(shards):
    lanes = 4096 // shards
    config = EngineConfig(seed=7, shards=shards, lanes=lanes,
                          source_factory=GlibcRandom)
    stream = serial_reference(config, shards * lanes + 4)
    index = sorted(BULK[shards])
    np.testing.assert_array_equal(
        stream[index], _words([BULK[shards][i] for i in index])
    )


@pytest.mark.parametrize("engine_shards", [0, 2])
@pytest.mark.parametrize("dist", sorted(VARIATES))
def test_variates_reply(dist, engine_shards):
    params, bits, offset = VARIATES[dist]
    config = ServeConfig(master_seed=MASTER_SEED, engine_shards=engine_shards)
    with serve_background(config) as handle:
        with ServeClient(handle.host, handle.port, session="alice") as client:
            values = client.fetch_variates(dist, 6, **params)
            assert client.words_received == offset
    np.testing.assert_array_equal(values.view(np.uint64), _words(bits))
