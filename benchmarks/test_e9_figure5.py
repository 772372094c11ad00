"""E9 — replay of the paper's Figure 5 walk-through as a benchmark.

Figure 5 traces the memory image through the access pattern
B0, B1, B0, B1, B3 with on-demand decompression and k=2: three
decompression exceptions, a patch-only exception on re-entering B0, a
free branch on re-entering B1, and the deletion of B0' as B3 is entered.

The benchmark regenerates the figure's event sequence (printed to the
results file) and times the scenario.
"""

from __future__ import annotations

from conftest import record_experiment

from repro import api
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.isa import assemble
from repro.runtime import EventKind

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


def run_scenario():
    program = assemble(_FIGURE5_SOURCE, "figure5", entry_label="b0")
    cfg = build_cfg(program)
    manager, _ = api.run_instrumented(
        cfg,
        SimulationConfig(
            codec="shared-dict", decompression="ondemand", k_compress=2
        ),
    )
    return manager


def test_e9_figure5(benchmark):
    manager = run_scenario()
    by_label = {
        b.label: b.block_id for b in manager.cfg.blocks if b.label
    }
    b0, b1, b3 = by_label["b0"], by_label["b1"], by_label["b3"]

    # The paper's exact access pattern.
    assert manager.block_trace == [b0, b1, b0, b1, b3]
    # Steps (2), (4), (9): three full decompressions, in that order.
    faults = [e.block_id for e in manager.log.of_kind(EventKind.FAULT)]
    assert faults == [b0, b1, b3]
    # Step (9): B0' deleted exactly when B3 is entered.
    recompressed = [
        e.block_id for e in manager.log.of_kind(EventKind.RECOMPRESS)
    ]
    assert recompressed == [b0]

    image = manager.residency.image
    lines = [
        "Figure 5 scenario event trace "
        "(access pattern B0, B1, B0, B1, B3; k=2):",
        manager.log.render(),
        "",
        f"final footprint: {image.footprint_bytes} B "
        f"(compressed image {image.compressed_image_size} B)",
    ]
    record_experiment("e9_figure5", "\n".join(lines))

    benchmark.pedantic(run_scenario, rounds=3, iterations=1)
