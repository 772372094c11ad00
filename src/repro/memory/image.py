"""Code memory images: the paper's separate-area scheme and an in-place
alternative.

Section 5 of the paper: "we start with a memory image wherein all basic
blocks are stored in their compressed form.  Note that this is the minimum
memory that is required to store the application code."  Decompressed copies
go to "a separate location" while "the locations of the compressed blocks do
not change during execution", so deleting a decompressed copy is cheap and
the free space does not fragment the compressed area.

:class:`SeparateAreaImage` implements exactly that scheme.
:class:`InPlaceImage` implements the naive alternative the paper argues
against (blocks expand/contract in a single area), so experiment E8 can
measure the fragmentation difference.
"""

from __future__ import annotations

import abc
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cfg.builder import ProgramCFG
from ..compress.codec import Codec, CodecError, get_codec
from ..compress.stats import block_bytes
from ..obs.tracer import NULL_TRACER
from .allocator import AllocationError, FreeListAllocator


@dataclass
class CompressionArtifacts:
    """Immutable per-(CFG, codec) compression products, shared by every
    simulation that uses the same program and codec.

    Block bytes never change during a simulation and codecs are
    deterministic, so the encoded block bytes, the trained codec model,
    the compressed payloads, and the decompressed plaintexts are all pure
    functions of (CFG, codec name).  Parameter sweeps construct one
    manager — and therefore one code image — per grid cell; without this
    cache every cell re-trains the codec and re-compresses every block
    from scratch.

    ``plaintext`` memoizes decompressed block bytes on first fault so
    repeated faults on the same unit (within a run or across grid cells)
    never re-run the codec.

    ``codec_map`` (optional) is the mixed-codec view built by
    :func:`repro.selection.assignment.assignment_artifacts`: a per-block
    codec instance overriding ``codec`` for payload decode dispatch.
    When absent, every block uses ``codec`` — the uniform case.
    """

    codec: Codec
    block_data: List[bytes]
    payloads: List[bytes]
    plaintext: Dict[int, bytes] = field(default_factory=dict)
    codec_map: Optional[Dict[int, Codec]] = None
    #: Memoized per-unit decode timing/geometry, shared across every
    #: manager built from these artifacts.  Keyed on
    #: ``(granularity, hierarchy name)`` — the two axes unit geometry
    #: and fill costs depend on besides the codec itself (``codec_map``
    #: dispatch is baked into the values, so mixed-codec images benefit
    #: too).  Values are ``unit -> (alloc_bytes, fill_cycles,
    #: read_bytes, block_count, blocks_sorted)`` dicts built lazily by
    #: :meth:`repro.core.residency.ResidencySubsystem.replay_geometry`.
    unit_timing: Dict[Tuple[str, str], Dict[int, tuple]] = field(
        default_factory=dict
    )


class ArtifactCache:
    """A bounded LRU over (CFG, codec name) -> artifacts.

    The in-process memo used to grow without limit over long grid runs
    (one entry per program x codec, each holding every compressed
    payload and decompressed plaintext).  This cache caps the entry
    count: least-recently-used (CFG, codec) pairs are dropped and simply
    rebuilt on the next request.  Entries hold their CFG weakly, so a
    dead CFG's artifacts leave the cache immediately rather than waiting
    to age out.
    """

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        # key -> (weakref to the cfg, artifacts); keys use id() with the
        # weakref guarding against id reuse after a CFG dies.
        self._entries: "OrderedDict[Tuple[int, str], Tuple[weakref.ref, CompressionArtifacts]]" = (
            OrderedDict()
        )
        # The process-wide instance is shared by the sweep service's
        # worker threads; OrderedDict reordering is not atomic, so all
        # mutation goes through this lock.
        self._mutex = threading.Lock()

    @property
    def capacity(self) -> int:
        """Maximum number of (CFG, codec) entries kept."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, cfg: ProgramCFG, codec_name: str
    ) -> Optional[CompressionArtifacts]:
        """The cached artifacts, refreshed as most-recently used."""
        key = (id(cfg), codec_name)
        with self._mutex:
            entry = self._entries.get(key)
            if entry is None:
                return None
            ref, artifacts = entry
            if ref() is not cfg:  # id reused by a different (new) CFG
                del self._entries[key]
                return None
            self._entries.move_to_end(key)
            return artifacts

    def put(
        self,
        cfg: ProgramCFG,
        codec_name: str,
        artifacts: CompressionArtifacts,
    ) -> None:
        """Insert/refresh an entry, evicting LRU entries over capacity."""
        key = (id(cfg), codec_name)

        def _drop(_ref: weakref.ref, key=key) -> None:
            self._entries.pop(key, None)

        with self._mutex:
            self._entries[key] = (weakref.ref(cfg, _drop), artifacts)
            self._entries.move_to_end(key)
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (long-lived processes reclaim memory now)."""
        with self._mutex:
            self._entries.clear()


#: The process-wide shared-artifact memo (see :class:`ArtifactCache`).
_ARTIFACTS = ArtifactCache()


def artifact_cache() -> ArtifactCache:
    """The process-wide (CFG, codec) artifact memo: for lookups beside
    :func:`compression_artifacts` and explicit :meth:`ArtifactCache.clear`
    calls."""
    return _ARTIFACTS


#: Optional persistent artifact provider (installed by ``repro.store``):
#: an object with ``load(codec_name, block_data) -> payloads | None``
#: and ``save(codec_name, block_data, payloads)``.  Lets a fresh process
#: reuse compressed payloads another process already built.
_artifact_provider = None


def set_artifact_provider(provider):
    """Install (or with None, remove) the persistent artifact provider.

    Returns the previously installed provider so callers can restore it.
    """
    global _artifact_provider
    previous = _artifact_provider
    _artifact_provider = provider
    return previous


def compression_artifacts(
    cfg: ProgramCFG, codec_name: str
) -> CompressionArtifacts:
    """Return (building on first use) the shared artifacts for
    ``(cfg, codec_name)``.

    The returned codec instance is trained (for shared-model codecs) and
    must be treated as read-only; the payload list is indexed by block
    id.  Lookup order: the in-process LRU memo, then the persistent
    provider (when installed), then a full train-and-compress build —
    whose payloads are offered back to the provider, best-effort.
    """
    artifacts = _ARTIFACTS.get(cfg, codec_name)
    if artifacts is not None:
        return artifacts
    codec = get_codec(codec_name)
    block_data = [block_bytes(block) for block in cfg.blocks]
    payloads = None
    provider = _artifact_provider
    if provider is not None:
        try:
            payloads = provider.load(codec_name, block_data)
        except Exception:
            payloads = None
    if payloads is None:
        payloads = codec.build_image(block_data)
        if provider is not None:
            try:
                provider.save(codec_name, block_data, payloads)
            except Exception:
                pass  # persistence is best-effort, never fatal
    elif not codec.is_trained:
        # Stored payloads still need the trained model to decompress.
        codec.train(block_data)
    artifacts = CompressionArtifacts(
        codec=codec, block_data=block_data, payloads=payloads
    )
    _ARTIFACTS.put(cfg, codec_name, artifacts)
    return artifacts


class ImageError(RuntimeError):
    """Raised on invalid image operations (double decompress, etc.)."""


@dataclass
class BlockImage:
    """Per-block storage state inside a code image."""

    block_id: int
    compressed_payload: bytes
    compressed_addr: int
    uncompressed_size: int
    resident_addr: Optional[int] = None

    @property
    def compressed_size(self) -> int:
        """Size of the compressed payload in bytes."""
        return len(self.compressed_payload)

    @property
    def is_resident(self) -> bool:
        """True when a decompressed copy currently exists."""
        return self.resident_addr is not None


class CodeImage(abc.ABC):
    """Interface shared by the two image schemes.

    Passing precomputed ``artifacts`` (see :func:`compression_artifacts`)
    skips per-image codec training and block compression and shares the
    decompressed-bytes memo across every image built for the same
    (CFG, codec) pair — the sweep fast path.

    Mixed-codec images (per-unit codec assignment) are built from
    artifacts carrying a ``codec_map``; :meth:`codec_for` dispatches
    every per-block decode/latency/verify to the block's own codec, and
    the shared-model overhead is charged once per *distinct* codec in
    use instead of once for the uniform codec.  Mapped codecs must
    arrive trained (the artifact builders guarantee this).
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        codec: Codec,
        artifacts: Optional[CompressionArtifacts] = None,
    ) -> None:
        self.cfg = cfg
        self.codec = codec
        self._blocks: Optional[List[BlockImage]] = None
        self.decompress_count = 0
        self.release_count = 0
        # Armed by the residency subsystem when a run is traced; the
        # null default keeps block_data's hot path to one attribute
        # check on the (rare) memo-miss branch only.
        self.tracer = NULL_TRACER
        self._plaintext = artifacts.plaintext if artifacts else {}
        self._codec_map = artifacts.codec_map if artifacts else None
        # Payload sizes never change after construction; their sum is
        # cached on first use (footprint_bytes queries it on every
        # materialise/release).
        self._compressed_image_size: Optional[int] = None
        # Shared-model codecs (CodePack-style) train on the whole image
        # at link time; the model's size is charged once per distinct
        # codec storing payloads, below.
        if artifacts is None:
            payloads = codec.build_image(
                [block_bytes(block) for block in cfg.blocks]
            )
        else:
            payloads = artifacts.payloads
            if not codec.is_trained:
                codec.train([block_bytes(block) for block in cfg.blocks])
        if self._codec_map is not None:
            # One model per *distinct codec name* (flat or canonical
            # pipeline spec): two instances of the same trained codec
            # would share one decoder model in a real image, while two
            # pipelines differing only in parameters are distinct
            # models and both charge.
            distinct = {c.name: c for c in self._codec_map.values()}
            self.model_overhead = sum(
                c.model_overhead_bytes for c in distinct.values()
            )
        else:
            self.model_overhead = codec.model_overhead_bytes
        #: Compressed payloads by block id (precomputed when shared).
        self._payloads: List[bytes] = payloads

    def codec_for(self, block_id: int) -> Codec:
        """The codec that owns ``block_id``'s payload (mixed-codec
        images dispatch per block; uniform images return the one codec)."""
        if self._codec_map is not None:
            return self._codec_map[block_id]
        return self.codec

    # -- abstract -------------------------------------------------------

    @abc.abstractmethod
    def decompress(self, block_id: int) -> int:
        """Materialise a decompressed copy; returns its address.

        Raises :class:`ImageError` if already resident and
        :class:`~repro.memory.allocator.AllocationError` when the area is
        bounded and full.
        """

    @abc.abstractmethod
    def release(self, block_id: int) -> int:
        """Delete the decompressed copy; returns the freed byte count."""

    @property
    @abc.abstractmethod
    def footprint_bytes(self) -> int:
        """Bytes of memory currently holding code (the paper's metric)."""

    @property
    @abc.abstractmethod
    def address_space_bytes(self) -> int:
        """Bytes of contiguous address space consumed, holes included."""

    # -- shared ---------------------------------------------------------

    @property
    def blocks(self) -> List[BlockImage]:
        """Per-block storage state, indexed by block id."""
        return self._blocks

    def block(self, block_id: int) -> BlockImage:
        """Storage state of ``block_id``."""
        return self.blocks[block_id]

    def is_resident(self, block_id: int) -> bool:
        """True when ``block_id`` has a decompressed copy."""
        return self.blocks[block_id].is_resident

    def resident_blocks(self) -> Set[int]:
        """Ids of all currently decompressed blocks."""
        return {b.block_id for b in self.blocks if b.is_resident}

    @property
    def compressed_image_size(self) -> int:
        """Total compressed payload bytes (plus the shared codec model,
        if any) — the paper's minimum image."""
        if self._compressed_image_size is None:
            self._compressed_image_size = (
                sum(map(len, self._payloads)) + self.model_overhead
            )
        return self._compressed_image_size

    def decompress_latency(self, block_id: int) -> int:
        """Modelled cycles to decompress ``block_id`` (with its own
        codec, under a mixed-codec assignment)."""
        return self.codec_for(block_id).costs.decompress_latency(
            self.cfg.blocks[block_id].size_bytes
        )

    def block_data(self, block_id: int) -> bytes:
        """Decompressed bytes of ``block_id``'s payload, memoized.

        Payloads are immutable for the lifetime of an image, so the codec
        runs at most once per block — repeated faults on the same unit
        (and, when the image was built from shared artifacts, the same
        block in other grid cells of a sweep) are served from the memo.
        Use :meth:`verify_block` for integrity checks; this accessor
        trusts the cache.
        """
        data = self._plaintext.get(block_id)
        if data is None:
            codec = self.codec_for(block_id)
            data = codec.decompress_block(
                self._payloads[block_id],
                self.cfg.blocks[block_id].size_bytes,
            )
            self._plaintext[block_id] = data
            if self.tracer.enabled:
                self.tracer.decode(block_id, codec.name, len(data))
        return data

    def verify_block(self, block_id: int) -> bool:
        """Check payload integrity: decompressing yields the block bytes.

        Returns False (instead of raising) when the payload is corrupt or
        undecodable, so integrity scans can report rather than abort.
        """
        block = self.blocks[block_id]
        original = block_bytes(self.cfg.block(block_id))
        try:
            recovered = self.codec_for(block_id).decompress_block(
                block.compressed_payload, block.uncompressed_size
            )
        except CodecError:
            return False
        return recovered == original


class SeparateAreaImage(CodeImage):
    """The paper's scheme: immutable compressed area + separate
    allocator-managed decompressed area.

    ``capacity`` bounds the decompressed area (None = unbounded; memory
    budgets are normally enforced by the budget *strategy* instead).
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        codec: Codec,
        capacity: Optional[int] = None,
        alignment: int = 4,
        artifacts: Optional[CompressionArtifacts] = None,
    ) -> None:
        super().__init__(cfg, codec, artifacts=artifacts)
        # The decompressed area starts right above the compressed area.
        cursor = sum(map(len, self._payloads))
        base = cursor + (-cursor % alignment)
        self.allocator = FreeListAllocator(
            base=base, capacity=capacity, alignment=alignment
        )
        #: Block id -> address :meth:`absorb_replay` gave before ``blocks``.
        self._absorbed: Dict[int, int] = {}

    @property
    def blocks(self) -> List[BlockImage]:
        """Per-block storage state, indexed by block id, built on first
        use: an arithmetic trace replay never needs it."""
        if self._blocks is None:
            blocks = []
            cursor = 0
            absorbed = self._absorbed
            for block, payload in zip(self.cfg.blocks, self._payloads):
                blocks.append(BlockImage(
                    block_id=block.block_id,
                    compressed_payload=payload,
                    compressed_addr=cursor,
                    uncompressed_size=block.size_bytes,
                    resident_addr=absorbed.get(block.block_id),
                ))
                cursor += len(payload)
            self._blocks = blocks
        return self._blocks

    def decompress(self, block_id: int) -> int:
        block = self.blocks[block_id]
        if block.is_resident:
            raise ImageError(f"block B{block_id} is already decompressed")
        address = self.allocator.allocate(max(block.uncompressed_size, 1))
        block.resident_addr = address
        self.decompress_count += 1
        return address

    def release(self, block_id: int) -> int:
        block = self.blocks[block_id]
        if not block.is_resident:
            raise ImageError(f"block B{block_id} is not decompressed")
        self.allocator.free(block.resident_addr)  # type: ignore[arg-type]
        block.resident_addr = None
        self.release_count += 1
        return block.uncompressed_size

    def absorb_replay(
        self,
        resident_blocks: Sequence[int],
        decompressed_blocks: int,
        released_blocks: int,
    ) -> None:
        """Bring storage state in line after an arithmetic trace replay.

        On a trace replay the kernel (:mod:`repro.core.replay`) tracks
        residency and footprint arithmetically instead of allocating
        per block; this settles the final state: every block in
        ``resident_blocks`` gets a live allocation, and the
        decompress/release tallies absorb the kernel's per-block counts.
        Footprint (``used_bytes``) ends up exactly where per-block
        allocation would have left it; transient allocator details a
        replay never observes (hole layout, peak, extent) may differ.
        """
        allocate = self.allocator.allocate
        blocks = self._blocks
        absorbed = self._absorbed
        for block_id in resident_blocks:
            if blocks is not None:
                block = blocks[block_id]
                if not block.is_resident:
                    block.resident_addr = allocate(
                        max(block.uncompressed_size, 1)
                    )
            elif block_id not in absorbed:
                absorbed[block_id] = allocate(
                    max(self.cfg.blocks[block_id].size_bytes, 1)
                )
        self.decompress_count += decompressed_blocks
        self.release_count += released_blocks

    @property
    def footprint_bytes(self) -> int:
        return self.compressed_image_size + self.allocator.used_bytes

    @property
    def address_space_bytes(self) -> int:
        return self.compressed_image_size + self.allocator.extent_bytes


class InPlaceImage(CodeImage):
    """Naive single-area scheme for the E8 comparison.

    Every block lives in one area; decompressing frees its compressed slot
    and allocates an uncompressed one, recompressing does the reverse.
    Because slot sizes differ, the area fragments and blocks migrate —
    exactly the problem Section 5's design avoids.  Branch patches are
    needed on *every* move (tracked by ``relocations``).
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        codec: Codec,
        capacity: Optional[int] = None,
        alignment: int = 4,
        artifacts: Optional[CompressionArtifacts] = None,
    ) -> None:
        super().__init__(cfg, codec, artifacts=artifacts)
        self.allocator = FreeListAllocator(
            base=0, capacity=capacity, alignment=alignment
        )
        self.relocations = 0
        self.compactions = 0
        self.compaction_bytes_moved = 0
        self._slot: Dict[int, int] = {}  # block id -> current slot address
        self._blocks = []
        for block, payload in zip(cfg.blocks, self._payloads):
            address = self.allocator.allocate(max(len(payload), 1))
            self._blocks.append(
                BlockImage(
                    block_id=block.block_id,
                    compressed_payload=payload,
                    compressed_addr=address,
                    uncompressed_size=block.size_bytes,
                )
            )
            self._slot[block.block_id] = address

    def _reallocate(self, block_id: int, size: int) -> int:
        """Free the current slot and allocate ``size`` bytes, compacting on
        failure when the area is bounded."""
        self.allocator.free(self._slot[block_id])
        try:
            address = self.allocator.allocate(max(size, 1))
        except AllocationError:
            moved, relocation_map = self.allocator.compact()
            self.compactions += 1
            self.compaction_bytes_moved += moved
            for old, new in relocation_map.items():
                for other_id, slot in self._slot.items():
                    if slot == old and other_id != block_id:
                        self._slot[other_id] = new
                        self.relocations += 1
            address = self.allocator.allocate(max(size, 1))
        self._slot[block_id] = address
        return address

    def decompress(self, block_id: int) -> int:
        block = self.blocks[block_id]
        if block.is_resident:
            raise ImageError(f"block B{block_id} is already decompressed")
        address = self._reallocate(block_id, block.uncompressed_size)
        if address != block.compressed_addr:
            self.relocations += 1
        block.resident_addr = address
        self.decompress_count += 1
        return address

    def release(self, block_id: int) -> int:
        block = self.blocks[block_id]
        if not block.is_resident:
            raise ImageError(f"block B{block_id} is not decompressed")
        previous = block.resident_addr
        address = self._reallocate(block_id, block.compressed_size)
        if address != previous:
            self.relocations += 1
        block.compressed_addr = address
        block.resident_addr = None
        self.release_count += 1
        return block.uncompressed_size

    @property
    def footprint_bytes(self) -> int:
        return self.allocator.used_bytes + self.model_overhead

    @property
    def address_space_bytes(self) -> int:
        return self.allocator.extent_bytes + self.model_overhead
