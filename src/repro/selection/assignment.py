"""Per-unit codec assignment: the selective-compression layer.

The paper's central trade-off is *selectivity*: frequently executed code
should stay cheap to enter while cold code compresses aggressively
(Sections 3-4 build the k-edge and pre-decompression machinery around
exactly that hot/cold axis).  A single global codec cannot express it —
every unit pays the same decompression latency however hot it is.  This
module maps each compression unit to its own codec, including the
``"null"`` codec (stored bytes == code bytes, zero decompression
latency), which *is* the "keep this unit uncompressed" choice.

The pieces:

* :class:`AssignmentContext` — what a policy may look at: unit geometry
  (respecting the configured granularity), per-unit hotness (offline
  edge profile when available, a static loop-nesting estimate
  otherwise), exact per-unit payload sizes under any candidate codec
  (served from the shared compression-artifact memo, so sweeps never
  recompress), and the codec cost models for predicting cycles saved.
* :class:`AssignmentPolicy` subclasses in the :data:`ASSIGNMENTS`
  registry (part of the unified component catalog; ``repro list``
  enumerates them).  Policy specs are strings — ``"knapsack"`` or
  parameterised ``"knapsack:0.9"`` — so they travel unchanged through
  :class:`~repro.core.config.SimulationConfig`, JSON spec files, CSV
  columns, and store fingerprints.
* :class:`CodecAssignment` — the frozen result: unit -> codec name,
  flattened to block -> codec name for the image layer, with a
  canonical digest used to memoize mixed-codec artifacts.
* :func:`build_assignment` / :func:`assignment_artifacts` — resolve a
  config into an assignment and the matching (memoized) mixed-codec
  :class:`~repro.memory.image.CompressionArtifacts`.

``assignment="uniform"`` is special-cased by the residency layer to the
exact pre-selection code path, so default results stay byte-identical.
"""

from __future__ import annotations

import abc
import hashlib
import json
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..cfg.builder import ProgramCFG
from ..cfg.profile import EdgeProfile
from ..compress.codec import (
    CodecCosts,
    CodecError,
    get_codec,
    resolve_codec_spec,
)
from ..memory.image import (
    CompressionArtifacts,
    artifact_cache,
    compression_artifacts,
)
from ..registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..core.config import SimulationConfig

#: The codec name that means "store this unit uncompressed": payload
#: bytes equal code bytes and decompression costs zero cycles.
UNCOMPRESSED = "null"

#: Assignment policies, in the unified component catalog.
ASSIGNMENTS = Registry("assignments", item="assignment policy")

#: Static hotness fallback: a block nested in ``d`` natural loops is
#: weighted ``_LOOP_WEIGHT ** d`` when no edge profile is available.
_LOOP_WEIGHT = 8
_LOOP_DEPTH_CAP = 6


class AssignmentError(ValueError):
    """Raised for malformed assignment specs or invalid policy output."""


def unit_map(
    cfg: ProgramCFG, granularity: str
) -> Tuple[Dict[int, int], Dict[int, Tuple[int, ...]]]:
    """The (block -> unit, unit -> blocks) maps for a granularity.

    The single source of unit geometry, shared by the residency
    subsystem and the assignment context so the two can never disagree
    about what a "compression unit" is.
    """
    if granularity == "function":
        unit_of = dict(cfg.function_of)
        unit_blocks = {
            unit: tuple(sorted(blocks))
            for unit, blocks in cfg.functions.items()
        }
    else:
        unit_of = {
            block.block_id: block.block_id for block in cfg.blocks
        }
        unit_blocks = {
            block.block_id: (block.block_id,) for block in cfg.blocks
        }
    return unit_of, unit_blocks


# ----------------------------------------------------------------------
# Spec parsing
# ----------------------------------------------------------------------


def parse_assignment(spec: str) -> Tuple[str, Tuple[object, ...]]:
    """Split an assignment spec into (policy name, parameters).

    Specs are colon-separated: ``"knapsack"``, ``"knapsack:0.9"``,
    ``"hotness-threshold:0.25:rle"``.  Numeric parameters become
    floats; everything else passes through as a string (codec names).
    """
    if not isinstance(spec, str) or not spec:
        raise AssignmentError(
            f"assignment spec must be a non-empty string, got {spec!r}"
        )
    name, _, rest = spec.partition(":")
    if name not in ASSIGNMENTS:
        raise AssignmentError(
            f"unknown assignment policy '{name}'; "
            f"available: {ASSIGNMENTS.names()}"
        )
    params: List[object] = []
    if rest:
        for token in rest.split(":"):
            try:
                params.append(float(token))
            except ValueError:
                params.append(token)
    return name, tuple(params)


def make_policy(spec: str) -> "AssignmentPolicy":
    """Instantiate the policy an assignment spec names.

    Raises :class:`AssignmentError` for unknown policies or parameters
    the policy's constructor rejects.
    """
    name, params = parse_assignment(spec)
    try:
        policy = ASSIGNMENTS.create(name, *params)
    except (TypeError, ValueError) as exc:
        raise AssignmentError(
            f"invalid parameters for assignment policy '{name}' "
            f"(spec {spec!r}): {exc}"
        ) from None
    policy.spec = spec
    return policy


def validate_assignment(spec: str) -> None:
    """Raise :class:`AssignmentError` unless ``spec`` is well-formed."""
    make_policy(spec)


def available_assignments() -> List[str]:
    """Registered assignment policy names (registration order)."""
    return ASSIGNMENTS.names(sort=False)


# ----------------------------------------------------------------------
# The context policies see
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UnitStats:
    """One compression unit as a policy sees it."""

    unit_id: int
    blocks: Tuple[int, ...]
    size_bytes: int
    hotness: int


class AssignmentContext:
    """Everything an assignment policy may consult.

    Payload sizes come from the shared per-(CFG, codec) artifact memo,
    so asking for a codec's sizes trains/compresses at most once per
    process — and not at all when a sweep already built them.  Each
    codec name's per-unit payload table, model overhead and cost model
    are resolved on first use and kept for the context's lifetime, so
    a policy may query them as often as it likes.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        base_codec: str,
        granularity: str = "block",
        profile: Optional[EdgeProfile] = None,
    ) -> None:
        self.cfg = cfg
        self.base_codec = base_codec
        self.granularity = granularity
        _, self._unit_blocks = unit_map(cfg, granularity)
        hotness = self._hotness_by_block(profile)
        self.units: List[UnitStats] = [
            UnitStats(
                unit_id=unit_id,
                blocks=blocks,
                size_bytes=sum(
                    cfg.block(b).size_bytes for b in blocks
                ),
                hotness=sum(hotness.get(b, 0) for b in blocks),
            )
            for unit_id, blocks in sorted(self._unit_blocks.items())
        ]
        self.profiled = profile is not None and any(
            profile.block_counts.values()
        )
        # codec name -> {unit id: payload bytes}, model bytes, costs.
        self._unit_payloads: Dict[str, Dict[int, int]] = {}
        self._overheads: Dict[str, int] = {}
        self._costs: Dict[str, CodecCosts] = {}

    def _hotness_by_block(
        self, profile: Optional[EdgeProfile]
    ) -> Dict[int, int]:
        """Per-block execution weight: profiled counts when available,
        otherwise a static loop-nesting estimate (deeper = hotter)."""
        if profile is not None and any(profile.block_counts.values()):
            return {
                block.block_id: profile.block_count(block.block_id)
                for block in self.cfg.blocks
            }
        return {
            block_id: _LOOP_WEIGHT ** min(loops, _LOOP_DEPTH_CAP)
            if loops else 0
            for block_id, loops in enumerate(self.cfg.loop_counts())
        }

    # -- sizes and costs ----------------------------------------------

    def _payload_table(self, codec_name: str) -> Dict[int, int]:
        """Unit id -> compressed bytes under ``codec_name``."""
        table = self._unit_payloads.get(codec_name)
        if table is None:
            payloads = compression_artifacts(self.cfg, codec_name).payloads
            table = {
                unit.unit_id: sum(len(payloads[b]) for b in unit.blocks)
                for unit in self.units
            }
            self._unit_payloads[codec_name] = table
        return table

    def unit_payload_size(self, unit_id: int, codec_name: str) -> int:
        """Compressed bytes of ``unit_id`` under ``codec_name``."""
        return self._payload_table(codec_name)[unit_id]

    def model_overhead(self, codec_name: str) -> int:
        """The codec's shared-model bytes, charged once per image."""
        overhead = self._overheads.get(codec_name)
        if overhead is None:
            codec = compression_artifacts(self.cfg, codec_name).codec
            overhead = codec.model_overhead_bytes
            self._overheads[codec_name] = overhead
        return overhead

    def decompress_latency(self, codec_name: str, nbytes: int) -> int:
        """Modelled cycles to decompress ``nbytes`` with the codec."""
        costs = self._costs.get(codec_name)
        if costs is None:
            costs = self._costs[codec_name] = get_codec(codec_name).costs
        return costs.decompress_latency(nbytes)

    def image_size(self, unit_codecs: Mapping[int, str]) -> int:
        """Exact compressed-image bytes of a candidate assignment:
        payloads plus one model overhead per distinct codec used."""
        total = sum(
            self._payload_table(unit_codecs[unit.unit_id])[unit.unit_id]
            for unit in self.units
        )
        for codec_name in set(unit_codecs.values()):
            total += self.model_overhead(codec_name)
        return total

    @property
    def uniform_image_size(self) -> int:
        """The all-base-codec image size (the budget baseline)."""
        return self.image_size(
            {unit.unit_id: self.base_codec for unit in self.units}
        )


# ----------------------------------------------------------------------
# Policy interface and the frozen result
# ----------------------------------------------------------------------


class AssignmentPolicy(abc.ABC):
    """Maps compression units to codec names.

    Subclasses register in :data:`ASSIGNMENTS` and implement
    :meth:`assign`.  Constructors take the (numeric or string)
    parameters parsed from the policy spec and must validate them.
    """

    #: Registry key; subclasses override via the register decorator.
    name: str = "abstract"

    #: The full spec string this instance was built from (set by
    #: :func:`make_policy`).
    spec: str = ""

    @abc.abstractmethod
    def assign(self, context: AssignmentContext) -> Dict[int, str]:
        """Return a complete unit-id -> codec-name mapping."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(spec={self.spec or self.name!r})"


@dataclass(frozen=True)
class CodecAssignment:
    """A resolved per-unit codec assignment.

    ``unit_codecs`` is what the policy decided; ``block_codecs`` is the
    flattened per-block view the image layer consumes.  ``digest`` is a
    canonical content hash, used to memoize the mixed-codec artifacts
    exactly like a codec name memoizes uniform artifacts.
    """

    policy: str
    base_codec: str
    unit_codecs: Mapping[int, str]
    block_codecs: Mapping[int, str]

    def codec_names(self) -> Tuple[str, ...]:
        """Distinct codec names in use, sorted."""
        return tuple(sorted(set(self.unit_codecs.values())))

    def summary(self) -> Dict[str, int]:
        """Unit count per codec name (report-friendly)."""
        out: Dict[str, int] = {}
        for codec_name in self.unit_codecs.values():
            out[codec_name] = out.get(codec_name, 0) + 1
        return dict(sorted(out.items()))

    @property
    def digest(self) -> str:
        """Canonical content hash of the block -> codec mapping."""
        payload = json.dumps(
            {
                "base": self.base_codec,
                "blocks": {
                    str(b): c for b, c in self.block_codecs.items()
                },
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_assignment(
    cfg: ProgramCFG, config: "SimulationConfig"
) -> CodecAssignment:
    """Resolve ``config.assignment`` into a :class:`CodecAssignment`.

    The policy sees the configured granularity's unit geometry and the
    config's offline edge profile (static loop-nesting hotness when the
    profile is absent or empty).  The returned mapping is validated:
    every unit assigned, every codec name registered.
    """
    policy = make_policy(config.assignment)
    context = AssignmentContext(
        cfg,
        base_codec=config.codec,
        granularity=config.granularity,
        profile=config.profile,
    )
    unit_codecs = dict(policy.assign(context))
    unit_blocks = context._unit_blocks
    # Flat names pass through; pipeline specs canonicalize so the digest
    # (and the artifact memo keys) never see two spellings of one
    # pipeline.  Each distinct name is resolved once.
    canonical: Dict[str, str] = {}
    for unit_id in unit_blocks:
        codec_name = unit_codecs.get(unit_id)
        if codec_name is None:
            raise AssignmentError(
                f"assignment policy '{config.assignment}' left unit "
                f"{unit_id} unassigned"
            )
        if codec_name not in canonical:
            try:
                canonical[codec_name] = resolve_codec_spec(codec_name)
            except CodecError:
                raise AssignmentError(
                    f"assignment policy '{config.assignment}' chose "
                    f"unknown codec '{codec_name}' for unit {unit_id}"
                ) from None
        unit_codecs[unit_id] = canonical[codec_name]
    block_codecs = {
        block_id: unit_codecs[unit_id]
        for unit_id, blocks in unit_blocks.items()
        for block_id in blocks
    }
    return CodecAssignment(
        policy=config.assignment,
        base_codec=config.codec,
        unit_codecs=unit_codecs,
        block_codecs=block_codecs,
    )


def assignment_artifacts(
    cfg: ProgramCFG, assignment: CodecAssignment
) -> CompressionArtifacts:
    """Mixed-codec compression artifacts for an assignment (memoized).

    Per-codec payloads come from the shared
    :func:`~repro.memory.image.compression_artifacts` memo, so distinct
    assignments over the same program reuse each codec's trained model
    and payload list; the combined mixed view itself is memoized in the
    same LRU under a synthetic ``assignment:<digest>`` key, giving
    sweep cells that share an assignment the same single-build
    guarantee uniform cells have.
    """
    cache = artifact_cache()
    key = f"assignment:{assignment.digest}"
    cached = cache.get(cfg, key)
    if cached is not None:
        return cached
    per_codec = {
        name: compression_artifacts(cfg, name)
        for name in assignment.codec_names()
    }
    if assignment.base_codec in per_codec:
        base = per_codec[assignment.base_codec].codec
    else:  # every unit moved off the base codec
        base = get_codec(assignment.base_codec)
    some = next(iter(per_codec.values()))
    payloads = [
        per_codec[assignment.block_codecs[block.block_id]]
        .payloads[block.block_id]
        for block in cfg.blocks
    ]
    codec_map = {
        block.block_id: per_codec[
            assignment.block_codecs[block.block_id]
        ].codec
        for block in cfg.blocks
    }
    artifacts = CompressionArtifacts(
        codec=base,
        block_data=some.block_data,
        payloads=payloads,
        codec_map=codec_map,
    )
    cache.put(cfg, key, artifacts)
    return artifacts
