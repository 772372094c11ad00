"""The residency subsystem: what is decompressed, where, and for whom.

:class:`ResidencySubsystem` owns the state of decompressed copies:

* the code **image** (separate-area or in-place) plus the shared
  compression artifacts;
* **unit geometry** — the block→unit map and the memoized per-unit
  sizes, decompression latencies, and fill costs;
* the **ready clock** (``unit -> completion cycle``) that says when an
  in-flight pre-decompression becomes usable;
* the **remember sets** that drive Section 5's patching (two dicts,
  ``site_target`` and ``by_target``);
* the optional **memory budget**;
* the **footprint timeline** (the paper's memory-space metric).

The replay kernel (:mod:`repro.core.replay`) is the one place that
changes this state: it materialises and releases units, patches remember
sets, evicts under the budget and samples the footprint.

Fill latency and materialisation traffic are priced through the
configured :class:`~repro.memory.hierarchy.MemoryHierarchy`: each block
read streams its burst-rounded compressed payload out of the target
memory, and non-flat targets add bus-transfer cycles on top of the
codec's decompression latency.  Under the default ``flat`` preset both
charges reduce to the seed model exactly.

Under a non-uniform codec assignment (``config.assignment``, see
:mod:`repro.selection`) the image holds mixed-codec payloads and every
unit is charged *its own* codec's decompression latency
(:meth:`ResidencySubsystem.unit_codec`); units assigned ``"null"``
live uncompressed and fill for free.  The ``uniform`` default
short-circuits onto the single-codec artifact path, byte-identical to
the pre-selection behaviour.

Policies never see this class directly — the manager re-exports the
geometry queries through the existing
:class:`~repro.strategies.base.ManagerView` protocol.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..cfg.builder import ProgramCFG
from ..compress.codec import get_codec
from ..memory.hierarchy import MemoryHierarchy, get_hierarchy
from ..memory.image import (
    CodeImage,
    InPlaceImage,
    SeparateAreaImage,
    compression_artifacts,
)
from ..obs.tracer import NULL_TRACER, Tracer
from ..selection.assignment import (
    assignment_artifacts,
    build_assignment,
    unit_map,
)
from ..runtime.metrics import FootprintTimeline
from ..strategies.budget import MemoryBudget
from .config import SimulationConfig


class ResidencySubsystem:
    """Owns residency state for one simulation run."""

    def __init__(
        self,
        cfg: ProgramCFG,
        config: SimulationConfig,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.cfg = cfg
        self.config = config
        self.hierarchy: MemoryHierarchy = get_hierarchy(config.hierarchy)
        self.footprint = FootprintTimeline()

        # ---- compression units -------------------------------------
        unit_of, unit_blocks = unit_map(cfg, config.granularity)
        self._unit_of: Dict[int, int] = unit_of
        self._unit_blocks: Dict[int, Set[int]] = {
            unit: set(blocks) for unit, blocks in unit_blocks.items()
        }

        # ---- image and shared artifacts ----------------------------
        # Compression products (trained codec, payloads, plaintexts) are
        # pure functions of (cfg, codec name) — or, under a non-uniform
        # codec assignment, of (cfg, assignment digest) — and shared
        # across managers, so sweep grid cells never recompress
        # identical block bytes.
        self.uncompressed_mode = config.decompression == "none"
        self.assignment = None
        if self.uncompressed_mode:
            self.codec = get_codec(config.codec)
            self.image: Optional[CodeImage] = None
            self.artifacts = None
        else:
            if config.assignment != "uniform":
                self.assignment = build_assignment(cfg, config)
                artifacts = assignment_artifacts(cfg, self.assignment)
            else:
                artifacts = compression_artifacts(cfg, config.codec)
            self.artifacts = artifacts
            self.codec = artifacts.codec
            if config.image_scheme == "inplace":
                self.image = InPlaceImage(
                    cfg, self.codec, artifacts=artifacts
                )
            else:
                self.image = SeparateAreaImage(
                    cfg, self.codec, artifacts=artifacts
                )
            # Observability: let the image report actual codec decode
            # dispatches (plaintext-memo misses) to an armed tracer.
            if tracer.enabled:
                self.image.tracer = tracer

        self.budget: Optional[MemoryBudget] = None
        if config.memory_budget is not None:
            self.budget = MemoryBudget(
                config.memory_budget, config.eviction
            )

        # ---- residency bookkeeping ---------------------------------
        # The remember sets (Section 5), keyed by block id: a branch
        # site is the terminator of the block it ends.  ``site_target``
        # maps each site to the block whose decompressed copy it is
        # patched to, ``by_target`` each such block to its sites; a site
        # is in at most one target's set (a branch holds one address).
        self.site_target: Dict[int, int] = {}
        self.by_target: Dict[int, Set[int]] = {}
        # Unit geometry is immutable; sizes/latencies memoize on first
        # use.
        self._unit_size_cache: Dict[int, int] = {}
        self._unit_latency_cache: Dict[int, int] = {}
        self._unit_fill_cache: Dict[int, int] = {}
        self._ready_at: Dict[int, int] = {}  # unit -> completion cycle
        self._used_since_decompress: Dict[int, bool] = {}

    # ==================================================================
    # Geometry (the ManagerView surface)
    # ==================================================================

    def unit_of(self, block_id: int) -> int:
        """Compression unit owning ``block_id``."""
        return self._unit_of[block_id]

    def unit_blocks(self, unit_id: int) -> Set[int]:
        """Blocks belonging to ``unit_id``."""
        return set(self._unit_blocks[unit_id])

    def resident_units(self) -> Set[int]:
        """Units currently holding (or receiving) a decompressed copy."""
        return set(self._ready_at)

    def is_unit_resident(self, unit_id: int) -> bool:
        """True when ``unit_id`` is decompressed or being decompressed."""
        return unit_id in self._ready_at

    def unit_uncompressed_size(self, unit_id: int) -> int:
        """Uncompressed bytes of all blocks in ``unit_id``."""
        size = self._unit_size_cache.get(unit_id)
        if size is None:
            size = sum(
                self.cfg.block(block_id).size_bytes
                for block_id in self._unit_blocks[unit_id]
            )
            self._unit_size_cache[unit_id] = size
        return size

    def unit_codec(self, unit_id: int):
        """The codec that owns ``unit_id``'s payloads.

        Uniform runs return the one configured codec; mixed-codec runs
        (``config.assignment`` != "uniform") dispatch to the unit's
        assigned codec — every block of a unit shares one codec by
        construction.
        """
        if self.assignment is None or self.image is None:
            return self.codec
        return self.image.codec_for(next(iter(self._unit_blocks[unit_id])))

    def unit_decompress_latency(self, unit_id: int) -> int:
        """Modelled codec cycles to decompress all of ``unit_id``
        (charged with the unit's own codec under a mixed assignment)."""
        latency = self._unit_latency_cache.get(unit_id)
        if latency is None:
            latency = self.unit_codec(unit_id).costs.decompress_latency(
                self.unit_uncompressed_size(unit_id)
            )
            self._unit_latency_cache[unit_id] = latency
        return latency

    def unit_fill_cycles(self, unit_id: int) -> int:
        """Cycles to fill ``unit_id`` from the target memory.

        Codec decompression latency plus the hierarchy's bus-transfer
        cost for streaming each block's compressed payload out of the
        target level (zero under the ``flat`` preset).
        """
        cycles = self._unit_fill_cache.get(unit_id)
        if cycles is None:
            cycles = self.unit_decompress_latency(unit_id)
            if self.image is not None:
                payloads = self.artifacts.payloads
                cycles += sum(
                    self.hierarchy.target_read_cycles(len(payloads[block_id]))
                    for block_id in self._unit_blocks[unit_id]
                )
            self._unit_fill_cache[unit_id] = cycles
        return cycles

    def replay_geometry(self) -> Dict[int, tuple]:
        """Per-unit geometry/timing table for the replay kernel.

        ``unit -> (alloc_bytes, fill_cycles, read_bytes, block_count,
        blocks_sorted)`` where ``alloc_bytes`` is the allocator-aligned
        decompressed footprint of the unit, ``fill_cycles`` matches
        :meth:`unit_fill_cycles` (the unit's own codec under a mixed
        assignment), and ``read_bytes`` is the burst-rounded target
        traffic one materialisation charges.  The table is memoized on
        the shared :class:`~repro.memory.image.CompressionArtifacts`
        keyed on (granularity, hierarchy), so every grid cell replaying
        the same program/codec pair reuses it.
        """
        assert self.image is not None
        artifacts = self.artifacts
        key = (self.config.granularity, self.config.hierarchy)
        table = artifacts.unit_timing.get(key)
        if table is None:
            align = self.image.allocator._align
            cfg_blocks = self.cfg.blocks
            table = {}
            for unit_id, blocks in self._unit_blocks.items():
                blocks_sorted = tuple(sorted(blocks))
                alloc = 0
                read_bytes = 0
                for block_id in blocks_sorted:
                    alloc += align(max(cfg_blocks[block_id].size_bytes, 1))
                    read_bytes += self.hierarchy.target_read_bytes(
                        len(artifacts.payloads[block_id])
                    )
                table[unit_id] = (
                    alloc,
                    self.unit_fill_cycles(unit_id),
                    read_bytes,
                    len(blocks_sorted),
                    blocks_sorted,
                )
            artifacts.unit_timing[key] = table
        return table

    # ==================================================================
    # Footprint
    # ==================================================================

    def footprint_bytes(self) -> int:
        """Bytes of memory currently holding code."""
        if self.image is None:
            return self.cfg.total_size_bytes()
        return self.image.footprint_bytes
