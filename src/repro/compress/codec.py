"""Codec interface, cost model, and registry.

The paper leaves the choice of compressor open ("how one can perform
compressions", Section 3, is about *when*, not *how*); real systems it cites
use Huffman-style entropy coders (CodePack [14]) and dictionary schemes
(Lefurgy et al. [16, 17]).  We provide several codecs behind one interface
so the E4 ablation can compare them, and a per-byte cycle-cost model so the
runtime can charge realistic (de)compression latencies.

Each codec has one payload format, the one a code image stores.  The paper
decompresses each block into a separate area whose size the block table
records (Section 5), so :meth:`Codec.decompress_block` decodes a payload
against that size: it returns exactly that many bytes or raises
:class:`CodecError`.  :class:`FramedCodec` gives the per-block codecs their
common ``[tag][u32 length]`` frame and raw passthrough.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, List, Sequence, Type

from ..registry import Registry


class CodecError(ValueError):
    """Raised when a payload cannot be decoded (corruption, wrong codec)."""


@dataclass(frozen=True)
class CodecCosts:
    """Cycle-cost model of a codec for the runtime thread timelines.

    ``decompress_cycles_per_byte`` is charged per *output* (uncompressed)
    byte; ``compress_cycles_per_byte`` per input byte; ``fixed`` cycles are
    charged once per operation (table setup, handler entry).
    """

    decompress_cycles_per_byte: float
    compress_cycles_per_byte: float
    fixed: int = 20

    def decompress_latency(self, uncompressed_size: int) -> int:
        """Cycles to decompress a block of ``uncompressed_size`` bytes."""
        return self.fixed + int(
            round(self.decompress_cycles_per_byte * uncompressed_size)
        )

    def compress_latency(self, uncompressed_size: int) -> int:
        """Cycles to compress a block of ``uncompressed_size`` bytes."""
        return self.fixed + int(
            round(self.compress_cycles_per_byte * uncompressed_size)
        )


class Codec(abc.ABC):
    """Abstract lossless codec over the blocks of a code image.

    A payload is decoded against its block's size, which the image's
    block table already records (paper Section 5), so
    ``decompress_block(compress_block(data), len(data)) == data`` for
    every byte string (the property-based tests enforce this), and any
    other payload decodes to exactly the size asked for or raises
    :class:`CodecError`.

    Codecs with a program-wide model (:mod:`repro.compress.shared`,
    pipelines over them) override the model protocol: :meth:`train`,
    :attr:`is_trained` and :attr:`model_overhead_bytes`.
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    #: Cycle-cost model used by the simulator.
    costs = CodecCosts(
        decompress_cycles_per_byte=4.0, compress_cycles_per_byte=8.0
    )

    #: A per-block codec has no model to train or to store.
    is_trained: bool = True
    model_overhead_bytes: int = 0

    def train(self, samples: Sequence[bytes]) -> None:
        """Fit the program-wide model on ``samples`` (no model here)."""

    def build_image(self, blocks: Sequence[bytes]) -> List[bytes]:
        """Every block's payload, an untrained model trained on
        ``blocks`` first."""
        if not self.is_trained:
            self.train(blocks)
        return [self.compress_block(block) for block in blocks]

    @abc.abstractmethod
    def compress_block(self, data: bytes) -> bytes:
        """Compress one block; inverted by :meth:`decompress_block`."""

    def decompress_block(self, payload: bytes, length: int) -> bytes:
        """The ``length`` bytes ``payload`` codes; raises
        :class:`CodecError` when it decodes to anything else."""
        data = self._decode(payload, length)
        if len(data) != length:
            raise CodecError(
                f"{self.name} payload decoded to {len(data)} bytes, the "
                f"block holds {length}"
            )
        return data

    @abc.abstractmethod
    def _decode(self, payload: bytes, length: int) -> bytes:
        """Decode hook: ``payload``'s plaintext, for a block of
        ``length`` bytes (:meth:`decompress_block` checks its size)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class NullCodec(Codec):
    """Identity codec — the "no compression" baseline.

    Zero latency: fetching "compressed" code costs nothing extra, and the
    image is full size.  Used by the never-compress baseline in E6.
    """

    name = "null"
    costs = CodecCosts(
        decompress_cycles_per_byte=0.0, compress_cycles_per_byte=0.0, fixed=0
    )

    def compress_block(self, data: bytes) -> bytes:
        return bytes(data)

    def _decode(self, payload: bytes, length: int) -> bytes:
        return bytes(payload)


#: Tag of a :class:`FramedCodec`'s raw passthrough payload.
_TAG_RAW = 0


def check_declared(payload: bytes, offset: int, length: int) -> None:
    """Raise :class:`CodecError` unless ``payload`` holds ``length`` as
    a big-endian u32 at ``offset``."""
    field = payload[offset : offset + 4]
    if len(field) < 4:
        raise CodecError("payload truncated in its length field")
    declared = int.from_bytes(field, "big")
    if declared != length:
        raise CodecError(
            f"payload declares {declared} bytes, the block holds {length}"
        )


class FramedCodec(Codec):
    """A per-block codec whose payload declares its block's length.

    A payload is ``[tag][u32 BE length][body]``: the coded body
    :meth:`_encode` returns, or the block itself under
    :data:`_TAG_RAW` when the body saves nothing.  A payload declaring
    any length other than the block's raises :class:`CodecError`
    before anything is decoded.
    """

    #: Tag of a coded payload.
    tag = 1

    def compress_block(self, data: bytes) -> bytes:
        body = self._encode(data) if data else data
        tag = self.tag
        if len(body) >= len(data):
            tag, body = _TAG_RAW, data
        return bytes((tag,)) + len(data).to_bytes(4, "big") + body

    def _decode(self, payload: bytes, length: int) -> bytes:
        check_declared(payload, 1, length)
        tag, body = payload[0], payload[5:]
        if tag == _TAG_RAW:
            return body
        if tag != self.tag:
            raise CodecError(f"unknown {self.name} payload tag {tag}")
        return self._decode_body(body, length)

    @abc.abstractmethod
    def _encode(self, data: bytes) -> bytes:
        """The coded body of non-empty ``data``."""

    @abc.abstractmethod
    def _decode_body(self, body: bytes, length: int) -> bytes:
        """Decode a coded body of a ``length``-byte block."""


#: The codec family, in the unified component catalog.
CODECS = Registry("codecs")


def register_codec(name: str) -> Callable[[Type[Codec]], Type[Codec]]:
    """Class decorator registering a codec under ``name``."""
    return CODECS.register(name)


def is_pipeline_spec(name: object) -> bool:
    """True when ``name`` is written as a layered-pipeline spec
    (compact ``"delta|huffman"`` form, a JSON object string, or a
    dict) rather than a flat codec name."""
    if isinstance(name, dict):
        return True
    return isinstance(name, str) and (
        "|" in name or name.lstrip().startswith("{")
    )


def resolve_codec_spec(name: str) -> str:
    """Canonicalize a codec name or pipeline spec.

    Flat names pass through unchanged (after a registry check); both
    pipeline spec forms collapse to the canonical compact string — the
    one name configs, assignment maps, and store fingerprints carry.
    Raises :class:`CodecError` for unknown names and malformed specs.
    """
    if is_pipeline_spec(name):
        from .pipeline import parse_pipeline_spec

        return parse_pipeline_spec(name).compact
    if name in CODECS:
        return name
    raise CodecError(
        f"unknown codec '{name}'; available: {CODECS.names()} "
        f"(or a pipeline spec such as 'delta|huffman')"
    )


def is_known_codec(name: str) -> bool:
    """True when ``name`` resolves to a flat codec or a valid pipeline."""
    try:
        resolve_codec_spec(name)
    except CodecError:
        return False
    return True


def get_codec(name: str) -> Codec:
    """Instantiate the codec ``name`` refers to.

    Flat names come from the registry; pipeline specs (either form)
    build a :class:`~repro.compress.pipeline.PipelineCodec`.  Raises
    ``KeyError`` with the list of known codecs for unknown flat names
    and :class:`CodecError` for malformed pipeline specs.
    """
    if is_pipeline_spec(name):
        from .pipeline import PipelineCodec, parse_pipeline_spec

        spec = parse_pipeline_spec(name)
        if not spec.layers:  # a JSON spec with zero layers is flat
            return CODECS.create(spec.entropy)
        return PipelineCodec(spec)
    return CODECS.create(name)


def available_codecs() -> List[str]:
    """Names of all registered flat codecs (pipeline specs are open-
    ended and enumerated separately; see
    :func:`repro.compress.pipeline.available_pipelines`)."""
    return CODECS.names()


register_codec("null")(NullCodec)
