"""Every packed-integer encoder against its frozen bit-writer original.

``tests/oracle/codecs.py`` keeps the shared-model, dictionary, LZW and
LZ77 encoders as they wrote each field through a ``BitWriter``, and the
pipeline's ``train``/``compress_block`` as they forward-transformed
every block twice per build.  Every payload the production codecs
produce must be byte-equal to the oracle's: on code-image builds over
the suite kernels and generated programs, on hypothesis inputs of 0-300
bytes (self-trained and trained on a fixed corpus), and on 64 KiB
buffers.  Golden digests pin a fixed corpus so a change made to both
sides at once cannot slip through.

The fast path must also be the path that ran: the product keeps no
per-field bit writer for an artifact build to write through, a
pipeline build forward-transforms each block once per layer, and a
1 MiB LZW or LZ77 encode hands :func:`~repro.compress.bitio.pack_bits`
bounded pieces.
"""

import hashlib
import importlib
import pkgutil
import random
from collections import defaultdict
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from oracle.codecs import oracle_codec, oracle_payloads
from repro import compress
from repro.cfg.builder import build_cfg
from repro.compress import lz77, lzw
from repro.compress.codec import available_codecs, get_codec
from repro.compress.pipeline import CANDIDATE_PIPELINES, PipelineCodec
from repro.compress.stats import block_bytes
from repro.memory.image import compression_artifacts
from repro.workloads import generate_sized_program, get_workload

#: ``perfbench/workloads.py``'s ``codec_search`` pipelines, two layered
#: pipelines and the curated ``pipeline-search`` pool.
PIPELINES = tuple(dict.fromkeys(
    ("delta|huffman", "stride:4|shared-dict", "mtf|lzw",
     "delta|mtf|shared-huffman", "dict:16|lz77", "stride:4|shared-fields")
    + CANDIDATE_PIPELINES
))

#: Every registered flat codec (the ``codec_search`` flat codecs, its
#: base ``shared-dict`` and the assignment policies' ``null`` included).
FLAT = tuple(available_codecs())

CODECS = FLAT + PIPELINES

SUITE = ("adpcm", "bubble", "cold_paths", "composite", "crc32",
         "dijkstra", "fib", "fir", "fsm", "gcd", "histogram", "matmul",
         "modular", "quicksort", "strsearch")

#: Generated programs: (generator seed, code bytes).
GENERATED = ((11, 3000), (12, 6000))

#: No accumulator an encoder hands ``pack_bits`` is this wide (see
#: ``PACK_CHUNK``: under 6 Kibit).
PIECE_BOUND_BITS = 6 * 1024


def _program(corpus):
    if corpus.startswith("gen"):
        seed, size = GENERATED[int(corpus[3:])]
        return generate_sized_program(seed, size, loop_iters=(2, 4))
    return get_workload(corpus).program


@lru_cache(maxsize=None)
def _blocks(corpus):
    return tuple(block_bytes(b) for b in build_cfg(_program(corpus)).blocks)


def _fresh_cfg(corpus):
    """A CFG no artifact memo has seen (the memo keys on the object)."""
    return build_cfg(_program(corpus))


@lru_cache(maxsize=None)
def _training_corpus():
    return [block for name in SUITE for block in _blocks(name)]


# ----------------------------------------------------------------------
# Payloads equal the oracle's
# ----------------------------------------------------------------------


class TestImageBuilds:
    """``compression_artifacts`` payloads, block for block."""

    @pytest.mark.parametrize("codec", CODECS)
    def test_suite_images_equal_the_oracle(self, codec):
        for corpus in SUITE:
            built = compression_artifacts(_fresh_cfg(corpus), codec)
            assert built.payloads == oracle_payloads(
                codec, _blocks(corpus)
            ), (codec, corpus)

    @pytest.mark.parametrize("corpus", ["gen0", "gen1"])
    @pytest.mark.parametrize("codec", CODECS)
    def test_generated_images_equal_the_oracle(self, codec, corpus):
        built = compression_artifacts(_fresh_cfg(corpus), codec)
        assert built.payloads == oracle_payloads(codec, _blocks(corpus))
        # The trained codec decodes every block it built.
        for data, payload in zip(_blocks(corpus), built.payloads):
            assert built.codec.decompress_block(payload, len(data)) == data


_short = st.one_of(
    st.binary(max_size=300),
    # Low-entropy and word-repetitive inputs reach the coded paths.
    st.lists(st.integers(0, 7), max_size=300).map(bytes),
    st.lists(st.sampled_from([b"\x10\x21\x00\x04", b"\x30\x00\xff\xfe",
                              b"\x01\x02\x03\x04", b"\xaa"]),
             max_size=75).map(b"".join),
)


class TestShortInputs:
    @pytest.mark.parametrize("codec", FLAT)
    @given(data=_short)
    @settings(max_examples=60, deadline=None)
    def test_compress_equals_the_oracle(self, codec, data):
        # Shared models train themselves on the one input.
        assert get_codec(codec).compress_block(data) == \
            oracle_codec(codec).compress_block(data)

    @pytest.mark.parametrize("codec", CODECS)
    @given(data=_short)
    @settings(max_examples=40, deadline=None)
    def test_trained_blocks_equal_the_oracle(self, codec, data):
        # Trained on the suite: unseen bytes and words take the escape
        # and literal paths.
        production = _trained(codec)
        oracle = oracle_codec(codec)
        if hasattr(oracle, "train") and not oracle.is_trained:
            oracle.train(_training_corpus())
        assert production.compress_block(data) == \
            oracle.compress_block(data)


@lru_cache(maxsize=None)
def _trained(codec):
    instance = get_codec(codec)
    if not instance.is_trained:
        instance.train(_training_corpus())
    return instance


def _large_buffers():
    rng = random.Random(64)
    code = b"".join(_training_corpus())
    return {
        "random": rng.randbytes(0xFFFF),
        "skewed": bytes(min(int(rng.expovariate(0.2)), 255)
                        for _ in range(0xFFFF)),
        "code": (code * (0xFFFF // len(code) + 1))[:0xFFFF],
    }


class TestLargeInputs:
    @pytest.mark.parametrize("codec", FLAT)
    def test_64k_compress_equals_the_oracle(self, codec):
        for name, data in _large_buffers().items():
            assert get_codec(codec).compress_block(data) == \
                oracle_codec(codec).compress_block(data), (codec, name)

    @pytest.mark.parametrize("codec", ["shared-dict", "shared-huffman",
                                       "shared-fields"])
    def test_64k_trained_blocks_equal_the_oracle(self, codec):
        oracle = oracle_codec(codec)
        oracle.train(_training_corpus())
        for name, data in _large_buffers().items():
            assert _trained(codec).compress_block(data) == \
                oracle.compress_block(data), (codec, name)


# ----------------------------------------------------------------------
# Golden digests
# ----------------------------------------------------------------------

#: SHA-256 over every payload (4-byte length, then the bytes) of the
#: ``composite``, ``crc32`` and ``gen0`` images, then of the two
#: :func:`_golden_inputs` coded by a codec trained on the suite.
GOLDEN = {
    "dictionary":
        "4f702df15046a70339b7107b6a909cc7eb779b4ee8e5d5600b19aef2fe3d0f98",
    "huffman":
        "f577e6597e7ce713f348ba8ddd3fc687e43564706ace1925425b15cd154f5717",
    "lz77":
        "9d6d6ea2c56687f6892b1abd1db34efffefcb5ed8acd9efc00a5d267a615b9fa",
    "lzw":
        "d0dab86a1a467f4638d704d966407c3ec3f27329dc7c003a0c235ed1adf35ab2",
    "mtf-rle":
        "daf7bb5154ee88235ae00fe526edad1797aa306c6e5830eec2aa362566d00e68",
    "null":
        "1de013d0a58705c6536430ed1a375888ae4acbdf82b2b53293a4136ca2f9ccf9",
    "rle":
        "d5b1376ff838ca5f19cc473bc174bf8eac14f21abf37d802336e8ac15ee7fa05",
    "shared-dict":
        "ec3a20a8fa09ea129365aa7573ce98c5fa729bc001f14155741bd2368cd163ef",
    "shared-fields":
        "9e0e18edc47e4bb6e0f731abe81dccb257476de412b3ce521886acb481c8893b",
    "shared-huffman":
        "729c0eeb56714e8247a02473a5fc10ae2de0b58bf27fcf4ef8bb9d6ff0092dd5",
    "delta|huffman":
        "2eeba92f8bec85b769d26c4f1370682e6a947eb49bc7bfcb3cdc953d761f9d27",
    "stride:4|shared-dict":
        "928b227d0818a7471111b641dc23779ffd443bd3606aaed3c195f70128b67c4e",
    "mtf|lzw":
        "5ad338083a3767a11248b3d20089d248da7eb63aa5dd76dab90f0f9dce7aa352",
    "delta|mtf|shared-huffman":
        "fb84eb6a981b348a9e0eade174a2247780133d2e4b15bffc87d4bf4454693e63",
    "dict:16|lz77":
        "b11fbb2cb660fbd0b5095f242d05668e76414deb1e1e36d936b61adf357b4433",
    "stride:4|shared-fields":
        "82be65fb019b97c1ed26ebf868e433adc3da01306b97e8560a2a4112e147fd02",
    "delta|shared-dict":
        "38b7591efca6c14ed0a8112ec09387ccda777c0f016154c717c7d5b874d051ef",
    "stride:4|shared-huffman":
        "4ced3c8e070b015cc5f5c50b4e95229f6f79d0b59cbe8c10cdeedb1e984fd8c1",
    "delta|shared-fields":
        "8fb435ce80d1010a4d5012f6874afe03f82eaa204eca70ea6047c80e46661fc2",
    "mtf|shared-huffman":
        "1fcc008e4d9d1157c0d7933bdc7c6675679e90f444f1e9ce7a0f01ad7fbe0b06",
    "dict:16|huffman":
        "bc8048125fb69ed759506a713893f879b8c17b02576c1edc2ecf1122421745a4",
    "delta|lzw":
        "fb5c0253448e896c9f91f7fb82ab8442f604d41ca0d95534e74db4bdebf62d70",
}


def _golden_inputs():
    rng = random.Random(2005)
    return [
        b"".join(_training_corpus()),
        bytes(min(int(rng.expovariate(0.5)), 255) for _ in range(4096)),
    ]


def _digest(payloads):
    hasher = hashlib.sha256()
    for payload in payloads:
        hasher.update(len(payload).to_bytes(4, "big"))
        hasher.update(payload)
    return hasher.hexdigest()


def _golden_payloads(build, codec):
    payloads = [
        payload
        for corpus in ("composite", "crc32", "gen0")
        for payload in build(corpus)
    ]
    return payloads + [codec.compress_block(d) for d in _golden_inputs()]


class TestGoldenDigests:
    @pytest.mark.parametrize("codec", CODECS)
    def test_production_payload_digest(self, codec):
        payloads = _golden_payloads(
            lambda corpus: compression_artifacts(
                _fresh_cfg(corpus), codec
            ).payloads,
            _trained(codec),
        )
        assert _digest(payloads) == GOLDEN[codec]

    @pytest.mark.parametrize("codec", CODECS)
    def test_oracle_payload_digest(self, codec):
        oracle = oracle_codec(codec)
        if hasattr(oracle, "train") and not oracle.is_trained:
            oracle.train(_training_corpus())
        payloads = _golden_payloads(
            lambda corpus: oracle_payloads(codec, _blocks(corpus)), oracle
        )
        assert _digest(payloads) == GOLDEN[codec]


# ----------------------------------------------------------------------
# The fast path ran
# ----------------------------------------------------------------------


class TestFastPathRan:
    def test_artifact_builds_use_no_bit_writer(self):
        # No compress module defines a per-field writer (a class with a
        # write_bits method), so an artifact build can only pack its
        # fields into integers for pack_bits.
        for info in pkgutil.iter_modules(compress.__path__):
            module = importlib.import_module(f"{compress.__name__}."
                                             f"{info.name}")
            writers = [
                name for name, value in vars(module).items()
                if isinstance(value, type) and hasattr(value, "write_bits")
            ]
            assert writers == [], (info.name, writers)

    @pytest.mark.parametrize("codec", [
        p for p in PIPELINES if "|" in p
    ])
    def test_each_transform_forwards_each_block_once(self, codec,
                                                      monkeypatch):
        calls = defaultdict(int)
        transforms = PipelineCodec(codec).transforms
        for cls in {type(t) for t in transforms}:
            original = cls.forward

            def forward(self, data, original=original):
                calls[id(self)] += 1
                return original(self, data)

            monkeypatch.setattr(cls, "forward", forward)
        cfg = _fresh_cfg("gen0")
        built = compression_artifacts(cfg, codec)
        layers = built.codec.transforms
        assert [calls[id(layer)] for layer in layers] == \
            [len(cfg.blocks)] * len(layers)
        assert sum(calls.values()) == len(cfg.blocks) * len(layers)

    @pytest.mark.parametrize("module", [lzw, lz77], ids=["lzw", "lz77"])
    def test_a_1mib_encode_packs_bounded_pieces(self, module,
                                                monkeypatch):
        widths = []
        original = module.pack_bits

        def pack_bits(pieces):
            widths.extend(width for _, width in pieces)
            assert all(value.bit_length() <= width
                       for value, width in pieces)
            return original(pieces)

        monkeypatch.setattr(module, "pack_bits", pack_bits)
        rng = random.Random(1 << 20)
        # Repeated code with random runs between: literals, matches
        # and a dictionary that fills to 16-bit codes.
        code = b"".join(_training_corpus())
        data = bytearray()
        while len(data) < 1 << 20:
            data += code[:rng.randrange(64, 4096)]
            data += rng.randbytes(rng.randrange(0, 512))
        data = bytes(data[:1 << 20])
        codec = get_codec("lzw" if module is lzw else "lz77")
        payload = codec.compress_block(data)
        assert len(widths) > 1000
        assert max(widths) <= PIECE_BOUND_BITS
        assert codec.decompress_block(payload, len(data)) == data

