"""Golden stream vectors: literal expected values, pinned forever.

The repo-wide stream contract guarantees streams are pure functions of
identity (seed, lanes, walk length, policy) -- but nothing stopped a
*coordinated* change from silently shifting every emitted value at once
(it happened once: PR 5's notes admit emitted values changed repo-wide
with no golden tests to catch it).  These tests pin the canonical
streams as literals:

* the first 16 ``GlibcRandom.words64`` words for seed 1 (the glibc
  reference seed), and
* the first 64 numbers emitted by a 16-lane bank, seed 0, under each of
  the three neighbour-selection policies,

checked against every kernel variant (fused/reference walk x
blocked/reference feed); and the one-lane streams callers reach through
other doors:

* 8 ``get_next_rand()`` then 8 ``next_batch`` numbers of
  ``ExpanderWalkPRNG`` under each policy, fed by ``GlibcRandom(0)`` and
  by ``SplitMix64Source(5)``;
* 4 numbers of each of ``spawn_streams(5, 2)``;
* the first three ``api.rand()`` calls on a thread after
  ``api.srand(99)``.

Any future change to these values -- however self-consistent -- is a
hard failure that must be an explicit, documented decision.

``mod`` and ``lazy`` share a golden vector by construction: on 3-bit
chunks both policies fix 0..6 and map 7 to 0 (``7 % 7 == 0``), so they
are the same chunk-to-neighbour map and only *diverge* on feeds wider
than 3 bits per draw (which nothing emits).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bitsource.counter import SplitMix64Source
from repro.bitsource.glibc import GlibcRandom
from repro.core import api
from repro.core.generator import ExpanderWalkPRNG
from repro.core.parallel import ParallelExpanderPRNG
from repro.core.streams import spawn_streams

GOLDEN_WORDS64_SEED1 = np.array([
    0xd7168acec9ec8f19, 0xcc6690e7d2c37147,
    0x55d12895895563b1, 0x8dd0f99af46d62eb,
    0x5d6283e506dc7bef, 0xea8bc28d457c01f2,
    0x244010a936c49fe3, 0x3e2dd3d04643379d,
    0x281c1eeccd48956a, 0x1bdae4c7ff7308cf,
    0x834f8993ada01e6a, 0x4bc8ba65466d4037,
    0x7e5b7463f20f9163, 0xc577b2b50db18495,
    0x6675620bc8768c5c, 0x5a3ab5d39d8e1178,
], dtype=np.uint64)

GOLDEN_REJECT = np.array([
    0x80cebc1bd59063f6, 0x8cdc1810619c4ee5,
    0x0969cd2f354213df, 0x9eba43d201e13cb3,
    0x7a255b377f9dacf9, 0xee0f7bee24299053,
    0x0cf9a5de8e22238f, 0x5d9c5123d399a84d,
    0x67e5214b71a5d454, 0xf2e9cc5fb6d26b71,
    0x1f13b51fa0c7a623, 0x8bb16454442c7e5f,
    0xb38b8003f630a429, 0x5be1ea4c20f86af6,
    0x123449dc0fcd9345, 0x62db4f3b65186f43,
    0x806fa83e0b256b96, 0x7c78de7708c0bda7,
    0xa2528e06cbe698f7, 0x7d86619126559d67,
    0x8f6a46979586f3d5, 0x9e181c745e9ae3ca,
    0x6c10b4436cefb674, 0x131da0e169ee6f0c,
    0xe80dcfbf18be6c14, 0x4ee16b85403ec411,
    0x3ef5d91f7673c8ed, 0xd454f32998ce0c11,
    0x2bad52169d6604f6, 0x3ed63c11fbadbf56,
    0xfa32bd47776e081a, 0x12cce3cb7459276b,
    0xd2d43420cc153a21, 0x07642a2e0db7a91b,
    0xaf2b398a0c3fae3e, 0x94a48f1248a86370,
    0xb7176fed8b794a65, 0xbabe2590c5625752,
    0x08953da41a0995b0, 0x329f57cc72cb3dc1,
    0xd80c330a00193fff, 0xbfd14d9a1ca9f949,
    0xba2aaa51add58965, 0x50b43d881982e75d,
    0x89e67671c5b9ca77, 0xd64b88f4cdff03e9,
    0xa0b52395299bf2b4, 0xbe06ab3fec6b4524,
    0x47130a3d6d066e78, 0x18a398939b065867,
    0xaca39b0ac13ae242, 0x815c7a98733dcbeb,
    0xaf9108bf253642ec, 0x3685136fe453ceb9,
    0x45993a21d112e28c, 0x9a963624df83f7eb,
    0x7deb95aa3d899c08, 0x2e6c66281d3cc6ed,
    0xfdb9f73cf6eb91ed, 0x0ade9b68b93a09cc,
    0x0a94b67b966f8264, 0xd5af49fa78c80dc2,
    0x86e73a4899d78a44, 0x088d34709216f70f,
], dtype=np.uint64)

GOLDEN_MOD = np.array([
    0x0471a1b84303b90e, 0xb0fd2e581312822b,
    0xa7774c01f554d59c, 0x23b59b2155753a11,
    0xce0a41fa77785a04, 0xb817e0ac4dda57b1,
    0x84b608ac1138e94f, 0x1b124c94188998f1,
    0x97ce3ff83c0d4f58, 0x5902eb579b35d635,
    0x26deb69145397b1c, 0x61ec4c658dd8e32d,
    0x18f9658b12b0f890, 0xa53ed7f16d3d87ef,
    0xd408532dac1359a7, 0x5d06f221dbe62c0f,
    0xd7c5d83ad08dec13, 0x7fd60ea8481c132b,
    0x1201f5f43180cee7, 0xb9bd9fe3f6ac03f4,
    0x915cf787ad145ed7, 0x46855e2abaeb6483,
    0xc8f62ea55f0fc247, 0xf05ade1416efc81a,
    0x03bdf1bb559e91de, 0xa415196e567cfb45,
    0x701142f6a5ce4a31, 0x63dd464a42ee77ae,
    0x34262f77bbb34856, 0x5168f8286b876563,
    0x031b6e307a7e058b, 0x56cec4ebf3b31cc6,
    0x9a0c3c1958648b0a, 0xc1d1493100670407,
    0xd24db693d22fa8e4, 0xfd239aa5fb81b123,
    0x216d1f3d021a31bd, 0x4416e6da7a69b91d,
    0x01d71471399a3de7, 0xf9041fcf8aa91f2a,
    0x33963524ca3faedc, 0xe31da911920efb6e,
    0xb5cd863419a7227e, 0xd03860c9d09210f0,
    0xa718b2e0ae0525d7, 0x51a55a7a2810ef52,
    0x230348ad678c230a, 0xb6a26f240fef6f15,
    0x420037a98ad88959, 0xff1dee7e9ae950ad,
    0x08501635c8fb7f37, 0xb58796a0e31dd4cd,
    0x5fc2a1cd4658c50f, 0x33d686b6292fe8c7,
    0x65fcffc033f1727a, 0x84e0e8a9e2f7c102,
    0x569b3b91fc5f89cb, 0x5bf657e318bca739,
    0x027baabc3620a7dd, 0x484a44e71f107f87,
    0xa67ab5f257069e37, 0xbe6791080f20da33,
    0xe4288965aa1a5e7e, 0xfee8793ecca1a68b,
], dtype=np.uint64)

GOLDEN_LAZY = GOLDEN_MOD  # same 3-bit chunk map; see module docstring

GOLDEN_POLICY_VECTORS = {
    "reject": GOLDEN_REJECT,
    "mod": GOLDEN_MOD,
    "lazy": GOLDEN_LAZY,
}

#: ``ExpanderWalkPRNG`` per feed: 8 ``get_next_rand()`` values, then
#: ``next_batch(8)``, then ``(bits_consumed, position)`` after all 16.
GOLDEN_ONE_LANE_REJECT = {
    "glibc-0": (
        [0x443974810f5f5f3b, 0x9ec81fc1ee066dee, 0x51342114160eadaf,
         0x76ea4c8576804488, 0x55e2c74a76d90043, 0x45aab46b1817d442,
         0x6a4547f23e26531c, 0xc4d97f04e9a0b654],
        [0x5e82613af7432721, 0x311dda6fb5ebacbe, 0x7105bbdc02297ae0,
         0x9810e2c607262c69, 0x4b9bfa3a1997ca2c, 0xfd34d5a2ebc12a95,
         0x9fbd5e761fd3ce16, 0x936c1af30eed4152],
        (3708, (2473335539, 250429778)),
    ),
    "splitmix64-5": (
        [0x722c1367b50778b7, 0x573d706e9242950a, 0x3aa7eb2f5ec3bd80,
         0x7caac6692b1d2c01, 0xdb78c1f8f148f42e, 0x062ef126cc871108,
         0xe209763c4dadd6f2, 0x9db060aa1962f22b],
        [0x8ac63c1d16b7e43f, 0xa31c71d0817b6543, 0x2ce23eae2ed78cf4,
         0xfdb1d95a2be0b49d, 0xb2ccea149d0863fb, 0x26136fef5dbaec2f,
         0x60d5b20bdbfd82b7, 0xa7bee11fb4b66182],
        (3711, (2814304543, 3031851394)),
    ),
}

GOLDEN_ONE_LANE_MOD = {
    "glibc-0": (
        [0xba3e99aaeee0a05e, 0xa12aad43113ebc70, 0xbdf1f973ca2d192d,
         0x638f0fcd244d56f6, 0x2307d94a95b8955a, 0xa9f0da46dc932cc3,
         0x7d73793803cc8e24, 0x298e826b62350fa7],
        [0x92ba8e1b019d83ca, 0x742eb230c91a9c51, 0x37d71eb9ea92beca,
         0xf2f1030cf6296328, 0x2397e5eddadc93e3, 0x9dce5a5a479c992f,
         0x7ecb8e9314c60479, 0x1a85d700f1577f51],
        (3264, (444978944, 4049043281)),
    ),
    "splitmix64-5": (
        [0xfeb2df6fb9a936e3, 0xe945c3c7c61bdcaa, 0x4708c2f54e4b1717,
         0x5382ae8631ab941b, 0x472a8fc9e0faf26c, 0x6029c20057180c05,
         0x9f3d1336cc871108, 0xe209763c3d62250e],
        [0x322c4b9a02e816f8, 0x9d12a22d406273da, 0x6676bc790630da87,
         0x760248c4d9cd9385, 0x23e2f893fde1d0f1, 0x45e95e5da6ba86a1,
         0x4160f9b2d32877df, 0xbc9b260311940c51],
        (3264, (3164284419, 294915153)),
    ),
}

GOLDEN_ONE_LANE = {
    "reject": GOLDEN_ONE_LANE_REJECT,
    "mod": GOLDEN_ONE_LANE_MOD,
    "lazy": GOLDEN_ONE_LANE_MOD,  # same 3-bit chunk map
}

ONE_LANE_FEEDS = {
    "glibc-0": lambda: GlibcRandom(0),
    "splitmix64-5": lambda: SplitMix64Source(5),
}

#: ``spawn_streams(5, 2)``: the first 4 numbers of each stream.
GOLDEN_SPAWN_5 = [
    [0x4eb7630b99072893, 0x824e204382010440, 0x6b380a85ce65541c,
     0x4cfab9b71620697f],
    [0x6227e28772d1234f, 0x03b466c00e554ca3, 0x4c693a0a0c9b3544,
     0x5c66ebd4bdc7d1b9],
]

#: ``api.srand(99)`` then three ``api.rand()`` calls on one thread.
GOLDEN_API_SRAND_99 = [
    0x814ff2d4f2b9388b, 0x539473bf50c79dfb, 0x0b5ba29937953fb3,
]

#: First outputs of glibc's scalar rand() for srand(1) -- the published
#: reference sequence the words64 stream is built from.
GLIBC_RAND_SEED1 = [1804289383, 846930886, 1681692777, 1714636915, 1957747793]


class TestGoldenFeed:
    @pytest.mark.parametrize("blocked", [True, False])
    def test_words64_seed1(self, blocked):
        got = GlibcRandom(1, blocked=blocked).words64(16)
        np.testing.assert_array_equal(got, GOLDEN_WORDS64_SEED1)

    def test_scalar_rand_seed1(self):
        src = GlibcRandom(1)
        assert [src.rand() for _ in GLIBC_RAND_SEED1] == GLIBC_RAND_SEED1


class TestGoldenStreams:
    @pytest.mark.parametrize("policy", sorted(GOLDEN_POLICY_VECTORS))
    @pytest.mark.parametrize("fused", [True, False])
    @pytest.mark.parametrize("blocked", [True, False])
    def test_policy_stream(self, policy, fused, blocked):
        prng = ParallelExpanderPRNG(
            num_threads=16,
            bit_source=GlibcRandom(0, blocked=blocked),
            policy=policy,
            fused=fused,
        )
        np.testing.assert_array_equal(
            prng.generate(64), GOLDEN_POLICY_VECTORS[policy]
        )

    def test_golden_vectors_are_not_trivial(self):
        """Guard against a check that silently compares empty or zeroed
        arrays (e.g. after a bad edit to the literals)."""
        assert GOLDEN_WORDS64_SEED1.size == 16
        for vec in GOLDEN_POLICY_VECTORS.values():
            assert vec.size == 64
            assert np.count_nonzero(vec) == 64
        assert not np.array_equal(GOLDEN_REJECT, GOLDEN_MOD)


class TestGoldenOneLane:
    @pytest.mark.parametrize("feed", sorted(ONE_LANE_FEEDS))
    @pytest.mark.parametrize("policy", sorted(GOLDEN_ONE_LANE))
    def test_get_next_rand_then_next_batch(self, policy, feed):
        rand, batch, (bits, position) = GOLDEN_ONE_LANE[policy][feed]
        prng = ExpanderWalkPRNG(bit_source=ONE_LANE_FEEDS[feed](),
                                policy=policy)
        assert [prng.get_next_rand() for _ in range(8)] == rand
        np.testing.assert_array_equal(
            prng.next_batch(8), np.array(batch, dtype=np.uint64)
        )
        assert prng.numbers_generated == 16
        assert prng.bits_consumed == bits
        assert prng.position == position

    def test_spawn_streams(self):
        for prng, words in zip(spawn_streams(5, 2), GOLDEN_SPAWN_5):
            assert [prng.get_next_rand() for _ in range(4)] == words

    def test_api_rand(self):
        api.srand(99)
        assert [api.rand() for _ in range(3)] == GOLDEN_API_SRAND_99
