"""Compression substrate: bit I/O, codecs, and measurement helpers.

All codecs are lossless over arbitrary byte strings and registered in a
name-indexed registry; the simulator charges their modelled cycle costs.
"""

from .bitio import BitIOError, BitReader
from .codec import (
    Codec,
    CodecCosts,
    CodecError,
    NullCodec,
    available_codecs,
    get_codec,
    is_known_codec,
    is_pipeline_spec,
    register_codec,
    resolve_codec_spec,
)
from .dictionary import DictionaryCodec
from .huffman import HuffmanCodec
from .lz77 import LZ77Codec
from .lzw import LZWCodec
from .pipeline import (
    CANDIDATE_PIPELINES,
    PIPELINES,
    PipelineCodec,
    PipelineError,
    PipelineSpec,
    available_pipelines,
    parse_pipeline_spec,
)
from .rle import MTFRLECodec, RLECodec
from .shared import (
    SharedDictionaryCodec,
    SharedFieldsCodec,
    SharedHuffmanCodec,
    SharedModelCodec,
)
from .stats import (
    BlockCompressionStats,
    ImageCompressionStats,
    block_bytes,
    compare_codecs,
    measure_block,
    measure_image,
)
from .transforms import TRANSFORMS, Transform, available_transforms

__all__ = [
    "BitIOError",
    "BitReader",
    "BlockCompressionStats",
    "CANDIDATE_PIPELINES",
    "Codec",
    "CodecCosts",
    "CodecError",
    "DictionaryCodec",
    "HuffmanCodec",
    "ImageCompressionStats",
    "LZ77Codec",
    "LZWCodec",
    "MTFRLECodec",
    "NullCodec",
    "PIPELINES",
    "PipelineCodec",
    "PipelineError",
    "PipelineSpec",
    "RLECodec",
    "TRANSFORMS",
    "Transform",
    "SharedDictionaryCodec",
    "SharedFieldsCodec",
    "SharedHuffmanCodec",
    "SharedModelCodec",
    "available_codecs",
    "available_pipelines",
    "available_transforms",
    "block_bytes",
    "compare_codecs",
    "get_codec",
    "is_known_codec",
    "is_pipeline_spec",
    "measure_block",
    "measure_image",
    "parse_pipeline_spec",
    "register_codec",
    "resolve_codec_spec",
]
