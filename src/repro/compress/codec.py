"""Codec interface, cost model, and registry.

The paper leaves the choice of compressor open ("how one can perform
compressions", Section 3, is about *when*, not *how*); real systems it cites
use Huffman-style entropy coders (CodePack [14]) and dictionary schemes
(Lefurgy et al. [16, 17]).  We provide several codecs behind one interface
so the E4 ablation can compare them, and a per-byte cycle-cost model so the
runtime can charge realistic (de)compression latencies.
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
    """Abstract lossless codec over byte strings.

    Subclasses must guarantee ``decompress(compress(data)) == data`` for all
    byte strings (the property-based tests enforce this).
    """

    #: Registry key; subclasses override.
    name: str = "abstract"

    #: Cycle-cost model used by the simulator.
    costs = CodecCosts(
        decompress_cycles_per_byte=4.0, compress_cycles_per_byte=8.0
    )

    @abc.abstractmethod
    def compress(self, data: bytes) -> bytes:
        """Compress ``data``; must be invertible by :meth:`decompress`."""

    @abc.abstractmethod
    def decompress(self, payload: bytes) -> bytes:
        """Invert :meth:`compress`; raises :class:`CodecError` on bad input."""

    def ratio(self, data: bytes) -> float:
        """Compressed/original size ratio for ``data`` (lower is better)."""
        if not data:
            return 1.0
        return len(self.compress(data)) / len(data)

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

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, payload: bytes) -> bytes:
        return bytes(payload)


def compress_for_image(codec: Codec, data: bytes) -> bytes:
    """Compress a block for storage in a code image.

    Codecs that support *sized* payloads (the block table already records
    each block's uncompressed size, so the payload need not repeat it)
    expose ``compress_block``; others fall back to the self-contained
    format.
    """
    compress_block = getattr(codec, "compress_block", None)
    if compress_block is not None:
        return compress_block(data)
    return codec.compress(data)


def build_image(codec: Codec, blocks: Sequence[bytes]) -> List[bytes]:
    """Every block's :func:`compress_for_image` payload, an untrained
    shared model trained on ``blocks`` first (a pipeline transforms each
    block once for both)."""
    build = getattr(codec, "build_image", None)
    if build is not None:
        return build(blocks)
    if hasattr(codec, "train") and not getattr(codec, "is_trained", True):
        codec.train(blocks)
    return [compress_for_image(codec, block) for block in blocks]


def decompress_for_image(
    codec: Codec, payload: bytes, uncompressed_size: int
) -> bytes:
    """Invert :func:`compress_for_image` given the known block size."""
    decompress_block = getattr(codec, "decompress_block", None)
    if decompress_block is not None:
        return decompress_block(payload, uncompressed_size)
    return codec.decompress(payload)


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
