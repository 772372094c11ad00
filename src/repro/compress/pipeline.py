"""Layered codec pipelines: transform layers feeding an entropy stage.

A pipeline composes zero or more :mod:`~repro.compress.transforms`
layers with one flat entropy codec, described declaratively in either
of two equivalent spec forms:

* compact string — ``"delta|huffman"``, ``"stride:4|mtf|lzw"`` (the
  last segment is the entropy codec, everything before it a transform,
  parameters attached with colons);
* JSON — ``{"layers": ["delta", {"kind": "stride", "params": [4]}],
  "entropy": "lzw"}`` (accepted as a dict or a JSON string).

Both parse into a canonical :class:`PipelineSpec`; the canonical
*compact* string is the pipeline's codec name everywhere — config
fields, assignment maps, store fingerprints, CLI ``--codec`` — so two
spellings of the same pipeline always unify.
:func:`~repro.compress.codec.get_codec` dispatches any pipeline spec to
:class:`PipelineCodec` transparently; a curated candidate pool is
pre-registered in the catalogued :data:`PIPELINES` registry at import
(deterministically, so store fingerprints stay stable) and drives the
``pipeline-search`` assignment policy.

A payload (:meth:`PipelineCodec.compress_block`) is one tag byte
(version + flags) plus the entropy stage's payload: the block table
already knows each block's size, and the image knows its codec, exactly
like the shared-model codecs' 1-byte format.

Shared-model entropy stages are allowed (``"delta|shared-dict"``):
training forwards the transformed corpus to the entropy stage, and the
model overhead delegates to it — which is what makes pipelines
competitive at basic-block sizes, where per-block headers dominate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, List, Sequence, Tuple, Union

from ..registry import Registry
from .codec import CODECS, Codec, CodecCosts, CodecError
from .transforms import TRANSFORMS, Transform

#: Payload framing: high nibble version, low nibble flags.
_BLOCK_VERSION = 1
_FLAG_EXPLICIT_LENGTH = 0x01


class PipelineError(CodecError):
    """Raised for malformed pipeline specs and undecodable payloads."""


@dataclass(frozen=True)
class PipelineSpec:
    """A parsed, canonical pipeline description.

    ``layers`` is a tuple of ``(kind, params)`` pairs referencing the
    :data:`~repro.compress.transforms.TRANSFORMS` registry; ``entropy``
    is a flat codec name.  Hashable, so specs can key caches directly.
    """

    layers: Tuple[Tuple[str, Tuple[int, ...]], ...]
    entropy: str

    @property
    def compact(self) -> str:
        """The canonical compact string (``"delta|stride:4|lzw"``).

        With zero layers this is just the flat entropy codec name.
        """
        segments = [
            kind + (":" + ":".join(str(p) for p in params)
                    if params else "")
            for kind, params in self.layers
        ]
        segments.append(self.entropy)
        return "|".join(segments)

    def to_json(self) -> "dict[str, Any]":
        """The canonical JSON form (layer segments + entropy name)."""
        return {
            "layers": [
                kind + (":" + ":".join(str(p) for p in params)
                        if params else "")
                for kind, params in self.layers
            ],
            "entropy": self.entropy,
        }


def _parse_layer(token: Any) -> Tuple[str, Tuple[int, ...]]:
    """One layer segment -> validated ``(kind, params)``."""
    if isinstance(token, dict):
        kind = token.get("kind")
        raw_params = token.get("params", [])
        if not isinstance(kind, str) or not kind:
            raise PipelineError(
                f"pipeline layer object needs a 'kind' string, "
                f"got {token!r}"
            )
        if not isinstance(raw_params, (list, tuple)):
            raise PipelineError(
                f"pipeline layer 'params' must be a list, "
                f"got {raw_params!r}"
            )
        parts = [kind, *raw_params]
    elif isinstance(token, str):
        parts = [p.strip() for p in token.split(":")]
    else:
        raise PipelineError(
            f"pipeline layer must be a string or object, got {token!r}"
        )
    kind = str(parts[0])
    if not kind:
        raise PipelineError("empty transform name in pipeline spec")
    if kind not in TRANSFORMS:
        raise PipelineError(
            f"unknown transform '{kind}'; "
            f"available: {TRANSFORMS.names()}"
        )
    params: List[int] = []
    for raw in parts[1:]:
        try:
            value = int(raw)
        except (TypeError, ValueError):
            raise PipelineError(
                f"transform '{kind}' parameter {raw!r} is not an "
                f"integer"
            ) from None
        params.append(value)
    return kind, tuple(params)


def _validate(
    layers: Sequence[Tuple[str, Tuple[int, ...]]], entropy: str
) -> PipelineSpec:
    if not isinstance(entropy, str) or not entropy:
        raise PipelineError(
            f"pipeline entropy stage must be a codec name, "
            f"got {entropy!r}"
        )
    if "|" in entropy:
        raise PipelineError(
            f"pipeline entropy stage '{entropy}' must be a flat "
            f"codec, not another pipeline"
        )
    if entropy not in CODECS:
        raise PipelineError(
            f"unknown entropy codec '{entropy}'; "
            f"available: {CODECS.names()}"
        )
    for kind, params in layers:
        try:
            TRANSFORMS.create(kind, *params)
        except (TypeError, ValueError) as exc:
            raise PipelineError(
                f"invalid parameters {params!r} for transform "
                f"'{kind}': {exc}"
            ) from None
    if len(layers) > 15:
        raise PipelineError(
            f"pipelines support at most 15 layers, got {len(layers)}"
        )
    return PipelineSpec(layers=tuple(layers), entropy=entropy)


def parse_pipeline_spec(
    spec: Union[str, "dict[str, Any]"]
) -> PipelineSpec:
    """Parse either spec form into a canonical :class:`PipelineSpec`.

    Raises :class:`PipelineError` (a :class:`CodecError`) with a
    message naming the offending segment for every malformed input.
    """
    if isinstance(spec, dict):
        return _parse_json(spec)
    if not isinstance(spec, str) or not spec.strip():
        raise PipelineError(
            f"pipeline spec must be a non-empty string or object, "
            f"got {spec!r}"
        )
    text = spec.strip()
    if text.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PipelineError(
                f"pipeline spec is not valid JSON: {exc}"
            ) from None
        if not isinstance(obj, dict):
            raise PipelineError(
                f"JSON pipeline spec must be an object, got {obj!r}"
            )
        return _parse_json(obj)
    segments = [s.strip() for s in text.split("|")]
    if any(not s for s in segments):
        raise PipelineError(
            f"pipeline spec {spec!r} has an empty segment"
        )
    layers = [_parse_layer(s) for s in segments[:-1]]
    return _validate(layers, segments[-1])


def _parse_json(obj: "dict[str, Any]") -> PipelineSpec:
    unknown = set(obj) - {"layers", "entropy"}
    if unknown:
        raise PipelineError(
            f"unknown pipeline spec keys {sorted(unknown)}; "
            f"expected 'layers' and 'entropy'"
        )
    raw_layers = obj.get("layers", [])
    if not isinstance(raw_layers, (list, tuple)):
        raise PipelineError(
            f"pipeline 'layers' must be a list, got {raw_layers!r}"
        )
    entropy = obj.get("entropy")
    layers = [_parse_layer(token) for token in raw_layers]
    return _validate(layers, entropy)


class PipelineCodec(Codec):
    """Transform layers composed in front of a flat entropy codec.

    Instances behave exactly like any registered codec — ``name`` is
    the canonical compact spec, ``costs`` sums the stages' cost models,
    and the model protocol (``train``/``is_trained``/
    ``model_overhead_bytes``) delegates to the entropy stage (training
    on forward-transformed samples).
    """

    def __init__(
        self, spec: Union[str, "dict[str, Any]", PipelineSpec]
    ) -> None:
        if not isinstance(spec, PipelineSpec):
            spec = parse_pipeline_spec(spec)
        self.spec = spec
        self.transforms: Tuple[Transform, ...] = tuple(
            TRANSFORMS.create(kind, *params)
            for kind, params in spec.layers
        )
        self.entropy: Codec = CODECS.create(spec.entropy)
        self.name = spec.compact
        self.length_preserving = all(
            t.length_preserving for t in self.transforms
        )
        entropy_costs = self.entropy.costs
        self.costs = CodecCosts(
            decompress_cycles_per_byte=(
                entropy_costs.decompress_cycles_per_byte
                + sum(t.inverse_cycles_per_byte for t in self.transforms)
            ),
            compress_cycles_per_byte=(
                entropy_costs.compress_cycles_per_byte
                + sum(t.forward_cycles_per_byte for t in self.transforms)
            ),
            fixed=entropy_costs.fixed
            + sum(t.fixed_cycles for t in self.transforms),
        )

    # ------------------------------------------------------------------
    # Model protocol (delegated to the entropy stage)
    # ------------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        """True unless the entropy stage still needs training."""
        return self.entropy.is_trained

    @property
    def model_overhead_bytes(self) -> int:
        """The entropy stage's shared-model bytes (0 for per-block
        entropy codecs)."""
        return self.entropy.model_overhead_bytes

    def train(self, samples: Sequence[bytes]) -> None:
        """Train the entropy stage on the *transformed* corpus."""
        self.entropy.train([self._forward(sample) for sample in samples])

    # ------------------------------------------------------------------
    # The stage chain
    # ------------------------------------------------------------------

    def _forward(self, data: bytes) -> bytes:
        for transform in self.transforms:
            data = transform.forward(data)
        return data

    def _inverse(self, data: bytes) -> bytes:
        for transform in reversed(self.transforms):
            data = transform.inverse(data)
        return data

    # ------------------------------------------------------------------
    # The payload format (the block table knows the length)
    # ------------------------------------------------------------------

    def compress_block(self, data: bytes) -> bytes:
        """Compress for a code image: ``[tag][entropy payload]``.

        The tag byte carries the format version and, for pipelines with
        a non-length-preserving layer, a flag that a 2-byte transformed
        length follows (length-preserving pipelines recover it from the
        block table for free).
        """
        return self.build_image([data])[0]

    def build_image(self, blocks: Sequence[bytes]) -> List[bytes]:
        """:meth:`Codec.build_image` for a pipeline: each transform runs
        once per block, and the entropy stage trains on and encodes the
        transformed blocks."""
        transformed = [self._forward(block) for block in blocks]
        bodies = self.entropy.build_image(transformed)
        return list(map(self._frame, transformed, bodies))

    def _frame(self, transformed: bytes, body: bytes) -> bytes:
        """The payload of entropy ``body`` coding ``transformed``."""
        if self.length_preserving:
            return bytes(((_BLOCK_VERSION << 4),)) + body
        if len(transformed) > 0xFFFF:
            raise PipelineError(
                f"pipeline block transforms to {len(transformed)} "
                f"bytes, beyond the payload format's 64 KiB limit"
            )
        return (
            bytes(((_BLOCK_VERSION << 4) | _FLAG_EXPLICIT_LENGTH,))
            + len(transformed).to_bytes(2, "big")
            + body
        )

    def _decode(self, payload: bytes, length: int) -> bytes:
        if not payload:
            raise PipelineError("empty pipeline block payload")
        tag = payload[0]
        if tag >> 4 != _BLOCK_VERSION:
            raise PipelineError(
                f"unsupported pipeline block version {tag >> 4}"
            )
        position = 1
        if tag & _FLAG_EXPLICIT_LENGTH:
            if len(payload) < 3:
                raise PipelineError(
                    "pipeline block payload truncated in length field"
                )
            transformed_length = int.from_bytes(payload[1:3], "big")
            position = 3
        else:
            transformed_length = length
        return self._inverse(
            self.entropy.decompress_block(
                payload[position:], transformed_length
            )
        )


# ----------------------------------------------------------------------
# The curated pipeline catalog
# ----------------------------------------------------------------------

#: The curated composition pool the ``pipeline-search`` assignment
#: policy explores, most promising first.  Shared-model entropy stages
#: dominate because at basic-block sizes per-block headers swamp any
#: transform gains; per-block entropy pipelines close the pool for
#: function-granularity units.
CANDIDATE_PIPELINES: Tuple[str, ...] = (
    "stride:4|shared-dict",
    "delta|shared-dict",
    "stride:4|shared-huffman",
    "delta|shared-fields",
    "mtf|shared-huffman",
    "dict:16|huffman",
    "delta|lzw",
)

#: Pipelines, in the unified component catalog: the curated pool is
#: registered at import (deterministically — store fingerprints see a
#: stable catalog), each under its canonical compact name, mapping to
#: a zero-argument :class:`PipelineCodec` factory.
PIPELINES = Registry("pipelines", item="pipeline")


# The candidate pool references built-in entropy codecs; importing the
# codec modules here (not relying on package import order) guarantees
# they are registered before the pool validates against the registry.
from . import dictionary  # noqa: E402,F401
from . import huffman  # noqa: E402,F401
from . import lz77  # noqa: E402,F401
from . import lzw  # noqa: E402,F401
from . import rle  # noqa: E402,F401
from . import shared  # noqa: E402,F401


def _register_candidates() -> None:
    for raw in CANDIDATE_PIPELINES:
        spec = parse_pipeline_spec(raw)

        def factory(spec: PipelineSpec = spec) -> PipelineCodec:
            return PipelineCodec(spec)

        PIPELINES.add(spec.compact, factory)


_register_candidates()


def available_pipelines() -> List[str]:
    """Canonical names of the registered (curated) pipelines."""
    return PIPELINES.names(sort=False)
