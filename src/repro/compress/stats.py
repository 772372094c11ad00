"""Compression statistics helpers used by the E4 codec ablation.

Everything here is measurement, not policy: given blocks and codecs it
reports sizes, ratios, and modelled latencies in one table-friendly shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from ..cfg.basic_block import BasicBlock
from .codec import Codec, compress_for_image, get_codec


@dataclass(frozen=True)
class BlockCompressionStats:
    """Compression outcome for a single basic block under one codec."""

    block_id: int
    original_size: int
    compressed_size: int
    decompress_cycles: int
    compress_cycles: int

    @property
    def ratio(self) -> float:
        """Compressed / original size (lower is better)."""
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size


@dataclass(frozen=True)
class ImageCompressionStats:
    """Aggregate compression outcome across all blocks of a program."""

    codec_name: str
    per_block: List[BlockCompressionStats]
    model_overhead: int = 0

    @property
    def original_size(self) -> int:
        """Total uncompressed code bytes."""
        return sum(s.original_size for s in self.per_block)

    @property
    def compressed_size(self) -> int:
        """Total compressed code bytes (shared model included)."""
        return (
            sum(s.compressed_size for s in self.per_block)
            + self.model_overhead
        )

    @property
    def ratio(self) -> float:
        """Whole-image compressed/original ratio."""
        if self.original_size == 0:
            return 1.0
        return self.compressed_size / self.original_size

    @property
    def space_saving(self) -> float:
        """Fraction of memory saved: ``1 - ratio``."""
        return 1.0 - self.ratio


def block_bytes(block: BasicBlock) -> bytes:
    """Encode a basic block's instructions into their binary image
    (memoized on the block, see :attr:`BasicBlock.encoded`)."""
    return block.encoded


def measure_block(block: BasicBlock, codec: Codec) -> BlockCompressionStats:
    """Compress one block and record sizes plus modelled latencies."""
    data = block_bytes(block)
    compressed = compress_for_image(codec, data)
    return BlockCompressionStats(
        block_id=block.block_id,
        original_size=len(data),
        compressed_size=len(compressed),
        decompress_cycles=codec.costs.decompress_latency(len(data)),
        compress_cycles=codec.costs.compress_latency(len(data)),
    )


def measure_image(
    blocks: Sequence[BasicBlock], codec: Codec
) -> ImageCompressionStats:
    """Compress every block independently (the paper's granularity).

    Shared-model codecs are trained on the whole corpus first, and their
    model size is counted via :attr:`ImageCompressionStats.model_overhead`.
    """
    if hasattr(codec, "train") and not getattr(codec, "is_trained", True):
        codec.train([block_bytes(block) for block in blocks])
    return ImageCompressionStats(
        codec_name=codec.name,
        per_block=[measure_block(block, codec) for block in blocks],
        model_overhead=int(getattr(codec, "model_overhead_bytes", 0)),
    )


def compare_codecs(
    blocks: Sequence[BasicBlock], codec_names: Iterable[str]
) -> Dict[str, ImageCompressionStats]:
    """Measure ``blocks`` under each named codec (E4 ablation core)."""
    return {
        name: measure_image(blocks, get_codec(name))
        for name in codec_names
    }
