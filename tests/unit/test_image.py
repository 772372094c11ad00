"""Unit tests for the memory image schemes."""

import pytest

import repro.memory.image as image_module
from oracle.layered import image_state
from repro.cfg import build_cfg
from repro.compress import get_codec
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.memory import (
    AllocationError,
    CompressedCodeFault,
    ImageError,
    InPlaceImage,
    SeparateAreaImage,
)
from repro.runtime import PreparedTrace
from repro.workloads import get_workload


@pytest.fixture
def image(loop_cfg):
    return SeparateAreaImage(loop_cfg, get_codec("shared-dict"))


@pytest.fixture
def inplace(loop_cfg):
    return InPlaceImage(loop_cfg, get_codec("shared-dict"))


class TestSeparateAreaImage:
    def test_starts_fully_compressed(self, image):
        assert image.resident_blocks() == set()
        assert image.footprint_bytes == image.compressed_image_size

    def test_minimum_image_is_compressed_size(self, image, loop_cfg):
        # Section 5: the all-compressed image is the minimum memory
        assert image.footprint_bytes <= max(
            loop_cfg.total_size_bytes(), image.compressed_image_size
        )

    def test_fetch_compressed_faults(self, image):
        with pytest.raises(CompressedCodeFault) as excinfo:
            image.fetch_check(0)
        assert excinfo.value.block_id == 0

    def test_decompress_makes_resident(self, image):
        image.decompress(0)
        assert image.is_resident(0)
        image.fetch_check(0)  # no fault now

    def test_decompress_grows_footprint(self, image, loop_cfg):
        before = image.footprint_bytes
        image.decompress(0)
        assert image.footprint_bytes == \
            before + max(loop_cfg.block(0).size_bytes, 4)

    def test_release_returns_footprint(self, image):
        base = image.footprint_bytes
        image.decompress(0)
        image.release(0)
        assert image.footprint_bytes == base
        assert not image.is_resident(0)

    def test_double_decompress_rejected(self, image):
        image.decompress(0)
        with pytest.raises(ImageError, match="already"):
            image.decompress(0)

    def test_release_nonresident_rejected(self, image):
        with pytest.raises(ImageError, match="not decompressed"):
            image.release(0)

    def test_compressed_area_immutable(self, image):
        addresses = [b.compressed_addr for b in image.blocks]
        image.decompress(0)
        image.decompress(1)
        image.release(0)
        assert [b.compressed_addr for b in image.blocks] == addresses

    def test_decompressed_area_above_compressed(self, image):
        address = image.decompress(0)
        assert address >= image.compressed_image_size - \
            image.model_overhead

    def test_payload_integrity_all_blocks(self, image, loop_cfg):
        for block in loop_cfg.blocks:
            assert image.verify_block(block.block_id)

    def test_bounded_capacity(self, loop_cfg):
        image = SeparateAreaImage(
            loop_cfg, get_codec("shared-dict"), capacity=8
        )
        image.decompress(0)  # entry block is 8B
        with pytest.raises(AllocationError):
            image.decompress(1)

    def test_decompress_latency_positive(self, image):
        assert image.decompress_latency(0) > 0


class TestArithmeticReplayImage:
    """A trace replay on the unbounded separate area never reads the
    per-block records, so it builds none; built later, they hold the
    state building them first would have left."""

    def _replay(self, force_blocks):
        cfg = build_cfg(get_workload("composite").program)
        recorder = CodeCompressionManager(
            cfg, SimulationConfig(decompression="none", record_trace=True)
        )
        recorder.run()
        manager = CodeCompressionManager(
            cfg, SimulationConfig(k_compress=4),
            trace=PreparedTrace(cfg, recorder.block_trace),
        )
        image = manager.residency.image
        if force_blocks:
            image.blocks
        manager.run()
        return image

    def test_builds_no_block_images(self, monkeypatch):
        built = []

        class Counting(image_module.BlockImage):
            def __init__(self, *args, **kwargs):
                built.append(kwargs["block_id"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(image_module, "BlockImage", Counting)
        image = self._replay(force_blocks=False)
        assert built == []
        assert image.resident_blocks()
        assert len(built) == len(image.cfg.blocks)

    def test_late_blocks_equal_early_blocks(self):
        late = self._replay(force_blocks=False)
        early = self._replay(force_blocks=True)
        assert late._blocks is None
        assert image_state(late) == image_state(early)


class TestInPlaceImage:
    def test_initial_layout_packed(self, inplace):
        assert inplace.footprint_bytes > 0
        assert inplace.relocations == 0

    def test_decompress_reallocates(self, inplace, loop_cfg):
        inplace.decompress(0)
        assert inplace.is_resident(0)
        # the uncompressed copy occupies the area now
        assert inplace.footprint_bytes >= loop_cfg.block(0).size_bytes

    def test_release_restores_compressed_slot(self, inplace):
        inplace.decompress(0)
        inplace.release(0)
        assert not inplace.is_resident(0)

    def test_churn_causes_relocations(self, inplace, loop_cfg):
        for _ in range(4):
            for block in loop_cfg.blocks:
                inplace.decompress(block.block_id)
            for block in loop_cfg.blocks:
                inplace.release(block.block_id)
        assert inplace.relocations > 0

    def test_address_space_grows_with_churn(self, inplace):
        start_extent = inplace.address_space_bytes
        for _ in range(6):
            inplace.decompress(0)
            inplace.decompress(2)
            inplace.release(0)
            inplace.release(2)
        assert inplace.address_space_bytes >= start_extent

    def test_payload_integrity(self, inplace, loop_cfg):
        for block in loop_cfg.blocks:
            assert inplace.verify_block(block.block_id)
