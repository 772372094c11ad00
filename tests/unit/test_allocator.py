"""Unit tests for the free-list allocator."""

import pytest

from repro.memory import AllocationError, FreeListAllocator


class TestUnboundedAllocator:
    def test_sequential_allocation(self):
        alloc = FreeListAllocator()
        a = alloc.allocate(16)
        b = alloc.allocate(16)
        assert b == a + 16
        assert alloc.used_bytes == 32

    def test_alignment_rounds_up(self):
        alloc = FreeListAllocator(alignment=8)
        alloc.allocate(5)
        assert alloc.used_bytes == 8

    def test_free_and_reuse(self):
        alloc = FreeListAllocator()
        a = alloc.allocate(32)
        alloc.allocate(32)
        alloc.free(a)
        # first-fit reuses the hole
        assert alloc.allocate(32) == a

    def test_free_unknown_address_rejected(self):
        alloc = FreeListAllocator()
        with pytest.raises(AllocationError, match="no allocation"):
            alloc.free(0x100)

    def test_double_free_rejected(self):
        alloc = FreeListAllocator()
        a = alloc.allocate(8)
        alloc.free(a)
        with pytest.raises(AllocationError):
            alloc.free(a)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FreeListAllocator().allocate(0)

    def test_peak_tracking(self):
        alloc = FreeListAllocator()
        a = alloc.allocate(100)
        alloc.free(a)
        alloc.allocate(10)
        assert alloc.peak_used_bytes == 100
        assert alloc.used_bytes == 12  # aligned to 4

    def test_extent_grows_monotonically(self):
        alloc = FreeListAllocator(base=64)
        alloc.allocate(16)
        assert alloc.extent_bytes == 16
        a = alloc.allocate(16)
        alloc.free(a)
        assert alloc.extent_bytes == 32  # extent never shrinks


class TestCoalescing:
    def test_adjacent_holes_merge(self):
        alloc = FreeListAllocator()
        a = alloc.allocate(16)
        b = alloc.allocate(16)
        c = alloc.allocate(16)
        alloc.allocate(16)  # keep a tail allocation
        alloc.free(a)
        alloc.free(c)
        assert alloc.hole_count == 2
        alloc.free(b)  # bridges both holes
        assert alloc.hole_count == 1
        assert alloc.largest_hole == 48

    def test_separated_holes_stay_apart(self):
        alloc = FreeListAllocator()
        slots = [alloc.allocate(16) for _ in range(6)]
        for index in (0, 2, 4):
            alloc.free(slots[index])
        assert alloc.hole_count == 3
        # Fragmented: the free space is larger than any one hole.
        assert (alloc.free_bytes, alloc.largest_hole) == (48, 16)
        assert [(h.start, h.size) for h in alloc.holes()] == [
            (slots[index], 16) for index in (0, 2, 4)
        ]

    def test_single_hole_holds_all_free_space(self):
        alloc = FreeListAllocator()
        a = alloc.allocate(16)
        alloc.allocate(16)
        alloc.free(a)
        assert alloc.hole_count == 1
        assert alloc.largest_hole == alloc.free_bytes == 16


class TestBoundedAllocator:
    def test_capacity_enforced(self):
        alloc = FreeListAllocator(capacity=64)
        alloc.allocate(48)
        with pytest.raises(AllocationError, match="cannot allocate"):
            alloc.allocate(32)
        assert alloc.failed_allocations == 1

    def test_fragmented_capacity_fails_large_request(self):
        alloc = FreeListAllocator(capacity=64)
        slots = [alloc.allocate(16) for _ in range(4)]
        alloc.free(slots[0])
        alloc.free(slots[2])
        # 32 bytes free but no 32-byte hole
        assert alloc.free_bytes == 32
        with pytest.raises(AllocationError):
            alloc.allocate(32)

    def test_base_offset_respected(self):
        alloc = FreeListAllocator(base=0x1000, capacity=64)
        assert alloc.allocate(16) == 0x1000


class TestCompaction:
    def test_compact_defragments(self):
        alloc = FreeListAllocator(capacity=64)
        slots = [alloc.allocate(16) for _ in range(4)]
        alloc.free(slots[0])
        alloc.free(slots[2])
        moved, relocations = alloc.compact()
        assert moved == 32  # two live slots moved down
        assert alloc.hole_count == 1
        assert alloc.largest_hole == 32
        assert alloc.allocate(32)  # now fits
        assert set(relocations) == {slots[1], slots[3]}

    def test_compact_noop_when_packed(self):
        alloc = FreeListAllocator()
        alloc.allocate(16)
        alloc.allocate(16)
        moved, relocations = alloc.compact()
        assert moved == 0
        assert relocations == {}

    def test_live_data_preserved_across_compact(self):
        alloc = FreeListAllocator(capacity=128)
        slots = {alloc.allocate(16): 16 for _ in range(4)}
        victim = next(iter(slots))
        alloc.free(victim)
        del slots[victim]
        _, relocations = alloc.compact()
        live = alloc.allocations()
        assert sum(live.values()) == sum(slots.values())
