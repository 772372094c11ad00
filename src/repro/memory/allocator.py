"""First-fit free-list allocator with coalescing.

Manages the *decompressed code area* of the memory image (Section 5 of the
paper: decompressed blocks are "stored in a separate location").  The
allocator exposes the fragmentation metrics the paper's design rationale
appeals to — "an excessively fragmented free space either cannot be used
for allocating large objects or requires memory compaction".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class AllocationError(RuntimeError):
    """Raised when a request cannot be satisfied within the capacity."""


@dataclass(frozen=True)
class FreeHole:
    """A contiguous free region ``[start, start + size)``."""

    start: int
    size: int

    @property
    def end(self) -> int:
        return self.start + self.size


class FreeListAllocator:
    """Address-ordered first-fit allocator over ``[base, base + capacity)``.

    ``capacity=None`` means unbounded: the extent grows on demand (models
    the paper's default "no restriction on the total memory space" mode;
    the budget strategy imposes the cap at the policy level instead).

    The allocator never moves live allocations; :meth:`compact` exists for
    the E8 in-place comparison and reports how many bytes it had to move.
    """

    def __init__(self, base: int = 0, capacity: Optional[int] = None,
                 alignment: int = 4) -> None:
        if alignment < 1:
            raise ValueError(f"alignment must be >= 1, got {alignment}")
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.base = base
        self.capacity = capacity
        self.alignment = alignment
        self._allocations: Dict[int, int] = {}  # start -> size
        self._holes: List[FreeHole] = []
        if capacity is not None:
            self._holes.append(FreeHole(base, capacity))
        self._extent = base  # exclusive upper bound of touched space
        self.used_bytes = 0
        self.peak_used_bytes = 0
        self.allocation_count = 0
        self.failed_allocations = 0

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------

    def _align(self, size: int) -> int:
        remainder = size % self.alignment
        return size if remainder == 0 else size + self.alignment - remainder

    def allocate(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the start address.

        Raises :class:`AllocationError` when a bounded area has no hole big
        enough (the caller — the budget strategy — is expected to evict and
        retry).
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        size = self._align(size)
        for index, hole in enumerate(self._holes):
            if hole.size >= size:
                start = hole.start
                remaining = hole.size - size
                if remaining:
                    self._holes[index] = FreeHole(start + size, remaining)
                else:
                    self._holes.pop(index)
                self._commit(start, size)
                return start
        if self.capacity is None:
            start = self._extent
            self._commit(start, size)
            return start
        self.failed_allocations += 1
        raise AllocationError(
            f"cannot allocate {size} bytes: largest hole is "
            f"{self.largest_hole} of {self.free_bytes} free"
        )

    def _commit(self, start: int, size: int) -> None:
        self._allocations[start] = size
        self._extent = max(self._extent, start + size)
        self.used_bytes += size
        self.peak_used_bytes = max(self.peak_used_bytes, self.used_bytes)
        self.allocation_count += 1

    def free(self, start: int) -> int:
        """Free the allocation at ``start``; returns its size."""
        size = self._allocations.pop(start, None)
        if size is None:
            raise AllocationError(f"no allocation at address {start:#x}")
        self.used_bytes -= size
        self._insert_hole(FreeHole(start, size))
        return size

    def _insert_hole(self, hole: FreeHole) -> None:
        """Insert ``hole`` keeping the list address-sorted and coalesced."""
        holes = self._holes
        low, high = 0, len(holes)
        while low < high:
            mid = (low + high) // 2
            if holes[mid].start < hole.start:
                low = mid + 1
            else:
                high = mid
        holes.insert(low, hole)
        # Coalesce with the right neighbour, then the left one.
        if low + 1 < len(holes) and holes[low].end == holes[low + 1].start:
            holes[low] = FreeHole(
                holes[low].start, holes[low].size + holes[low + 1].size
            )
            holes.pop(low + 1)
        if low > 0 and holes[low - 1].end == holes[low].start:
            holes[low - 1] = FreeHole(
                holes[low - 1].start,
                holes[low - 1].size + holes[low].size,
            )
            holes.pop(low)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def free_bytes(self) -> int:
        """Total free bytes inside the current extent (or capacity)."""
        return sum(hole.size for hole in self._holes)

    @property
    def largest_hole(self) -> int:
        """Size of the biggest free hole."""
        return max((hole.size for hole in self._holes), default=0)

    @property
    def extent_bytes(self) -> int:
        """Bytes of address space touched so far (``extent - base``)."""
        return self._extent - self.base

    @property
    def hole_count(self) -> int:
        """Number of distinct free holes."""
        return len(self._holes)

    @property
    def live_allocations(self) -> int:
        """Number of outstanding allocations."""
        return len(self._allocations)

    def holes(self) -> List[FreeHole]:
        """Snapshot of the free list (address-ordered)."""
        return list(self._holes)

    def allocations(self) -> Dict[int, int]:
        """Snapshot of live allocations (start -> size)."""
        return dict(self._allocations)

    # ------------------------------------------------------------------
    # Compaction (used by the in-place comparison scheme, E8)
    # ------------------------------------------------------------------

    def compact(self) -> Tuple[int, Dict[int, int]]:
        """Slide all allocations down to be contiguous from ``base``.

        Returns ``(bytes_moved, relocation_map)`` where the map is
        old start -> new start for every allocation that moved.  The caller
        must fix any pointers (branch targets) into moved regions.
        """
        relocations: Dict[int, int] = {}
        bytes_moved = 0
        cursor = self.base
        new_allocations: Dict[int, int] = {}
        for start in sorted(self._allocations):
            size = self._allocations[start]
            if start != cursor:
                relocations[start] = cursor
                bytes_moved += size
            new_allocations[cursor] = size
            cursor += size
        self._allocations = new_allocations
        self._holes = []
        if self.capacity is not None:
            tail = self.base + self.capacity - cursor
            if tail > 0:
                self._holes.append(FreeHole(cursor, tail))
        self._extent = cursor
        return bytes_moved, relocations
