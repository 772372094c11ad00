"""Scratchpad-budget scenario: run an application under a hard memory cap.

The paper's Section 2: in a system with a fixed scratchpad, "check before
each basic block decompression whether this decompression could result in
exceeding the maximum allowable memory space consumption, and if so,
compress one of the decompressed basic blocks (LRU)".

This example sweeps the cap for the composite application and shows the
memory/overhead trade-off a system integrator would look at when sizing
an SRAM.

Run with::

    python examples/scratchpad_budget.py
"""

from repro import SimulationConfig, api, build_cfg
from repro.analysis import Table, percent
from repro.core.manager import CodeCompressionManager
from repro.workloads import get_workload


def main() -> None:
    workload = get_workload("composite")
    cfg = build_cfg(workload.program)

    probe = CodeCompressionManager(
        cfg, SimulationConfig(trace_events=False)
    )
    compressed = probe.residency.image.compressed_image_size
    uncompressed = cfg.total_size_bytes()
    print(
        f"'{workload.name}': {uncompressed} B of code, compresses to "
        f"{compressed} B ({compressed / uncompressed:.0%})"
    )
    print(
        "sweeping the scratchpad size from 'barely fits' up to "
        "'everything fits':\n"
    )

    largest = max(block.size_bytes for block in cfg.blocks)
    table = Table(
        "scratchpad sizing (LRU eviction, on-demand decompression)",
        ["budget_bytes", "peak_used", "evictions", "faults",
         "cycle_overhead"],
    )
    floor = compressed + 2 * largest + 16
    for budget in (floor, floor + 100, floor + 250, floor + 500,
                   uncompressed + compressed):
        # One validated cell through the repro.api facade.
        run = api.run_cell(
            workload,
            SimulationConfig(
                decompression="ondemand",
                k_compress=None,       # rely on evictions only
                memory_budget=budget,
                eviction="lru",
                trace_events=False,
                record_trace=False,
            ),
            cfg=cfg,
        )
        assert run.ok, run.validation
        result = run.result
        table.add_row(
            budget,
            int(result.peak_footprint),
            int(result.counters.evictions),
            int(result.counters.faults),
            percent(result.cycle_overhead),
        )
    print(table.render())
    print(
        "\nreading: a scratchpad about half the uncompressed code size "
        "runs with modest slowdown; squeezing it to the compressed floor "
        "trades memory for eviction churn."
    )


if __name__ == "__main__":
    main()
