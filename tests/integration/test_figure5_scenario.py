"""Integration test replaying the paper's Figure 5 walk-through.

Figure 5 traces the access pattern B0, B1, B0, B1, B3 under on-demand
decompression with k=2 compression:

1. PC at B0 (compressed)  -> exception, decompress B0'
2. enter B1 (compressed)  -> exception, decompress B1', patch B0's branch
3. re-enter B0 (resident) -> exception handler just patches B1''s branch
4. re-enter B1 (resident, already patched) -> direct branch, no exception
5. enter B3: the 2nd edge after B0's last visit -> delete B0',
   decompress B3'

We build exactly that program shape, force that trace, and assert the
event sequence and counter effects.
"""

import pytest

from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.isa import assemble
from repro.runtime import EventKind

#: Produces exactly the paper's access pattern B0, B1, B0, B1, B3:
#: B0 falls through to B1; B1 loops back to B0 once, then falls through
#: to B3.
_FIGURE5_SOURCE = """
b0:
    addi r1, r1, 1
b1:
    addi r3, r3, 5
    slti r2, r1, 2
    bne  r2, r0, b0
b3:
    addi r4, r4, 7
    halt
"""


@pytest.fixture
def manager():
    program = assemble(_FIGURE5_SOURCE, "figure5", entry_label="b0")
    cfg = build_cfg(program)
    manager = CodeCompressionManager(
        cfg,
        SimulationConfig(
            codec="shared-dict",
            decompression="ondemand",
            k_compress=2,
        ),
    )
    manager.run()
    return manager


def _ids(manager):
    cfg = manager.cfg
    by_label = {b.label: b.block_id for b in cfg.blocks if b.label}
    return by_label["b0"], by_label["b1"], by_label["b3"]


class TestFigure5:
    def test_block_trace_matches_paper(self, manager):
        b0, b1, b3 = _ids(manager)
        assert manager.block_trace == [b0, b1, b0, b1, b3]

    def test_initial_fetch_faults(self, manager):
        b0, _, _ = _ids(manager)
        first_fault = manager.log.of_kind(EventKind.FAULT)[0]
        assert first_fault.block_id == b0
        assert first_fault.cycle == 0

    def test_fault_sequence(self, manager):
        b0, b1, b3 = _ids(manager)
        faults = [e.block_id for e in manager.log.of_kind(EventKind.FAULT)]
        # full decompression faults: B0 once, B1 once, B3 once
        assert faults == [b0, b1, b3]

    def test_reentry_uses_patch_not_decompression(self, manager):
        b0, b1, b3 = _ids(manager)
        decompressions = [
            e.block_id
            for e in manager.log.of_kind(EventKind.DECOMPRESS_DONE)
        ]
        # each block decompressed exactly once despite revisits
        assert decompressions == [b0, b1, b3]
        # B0 re-entry produced a patch event (Figure 5 step 6)
        patches = [
            e.block_id for e in manager.log.of_kind(EventKind.PATCH)
        ]
        assert b0 in patches

    def test_b0_recompressed_when_entering_b3(self, manager):
        b0, _, b3 = _ids(manager)
        recompressions = manager.log.of_kind(EventKind.RECOMPRESS)
        assert [e.block_id for e in recompressions] == [b0]
        # the deletion happens on the same cycle as the fault into B3
        # (the 2nd edge after B0's last execution is the edge into B3)
        b3_fault = [
            e for e in manager.log.of_kind(EventKind.FAULT)
            if e.block_id == b3
        ][0]
        assert recompressions[0].cycle == b3_fault.cycle

    def test_second_b1_entry_is_free(self, manager):
        """Figure 5 step (7): B0' -> B1' branch needs no exception."""
        _, b1, _ = _ids(manager)
        b1_events = manager.log.for_block(b1)
        kinds = [e.kind for e in b1_events]
        # exactly one FAULT and one PATCH for B1 across both visits
        assert kinds.count(EventKind.FAULT) == 1
        assert kinds.count(EventKind.PATCH) == 1

    def test_footprint_returns_toward_minimum(self, manager):
        # after B0' is deleted, footprint = compressed + B1' + B3'
        assert manager.residency.image is not None
        final = manager.residency.footprint.samples[-1][1]
        minimum = manager.residency.image.compressed_image_size
        assert final < minimum + manager.cfg.total_size_bytes()
        assert final > minimum  # B1/B3 copies still resident

    def test_machine_result_correct(self, manager):
        # r3 accumulated 5 per B1 visit (2 visits), r4 = 7
        assert manager.machine.registers[3] == 10
        assert manager.machine.registers[4] == 7

    def test_compressed_area_addresses_never_move(self, manager):
        """Section 5: 'the locations of the compressed blocks do not
        change during execution'."""
        image = manager.residency.image
        fresh = type(image)(manager.cfg, manager.residency.codec)
        assert [b.compressed_addr for b in image.blocks] == \
            [b.compressed_addr for b in fresh.blocks]
