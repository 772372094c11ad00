"""E8 — fragmentation: the paper's separate-area scheme vs. in-place
(paper Section 5's design rationale).

"An excessively fragmented free space either cannot be used for
allocating large objects or requires memory compaction... our current
implementation [keeps] the compressed versions as they are... the memory
space is not fragmented too much as the locations of the compressed
blocks do not change during execution."

We run the same workload/strategy on both image schemes and compare block
relocations, compactions, hole counts, and consumed address space.

Shape checks: the separate scheme relocates nothing and needs no
compaction; the in-place scheme relocates blocks (each relocation means
branch patching the separate scheme avoids).
"""

from __future__ import annotations

from conftest import record_experiment

from repro import api
from repro.analysis import Table, percent
from repro.cfg import build_cfg
from repro.core import SimulationConfig


def _run(cfg, scheme):
    # The live manager is needed for image introspection — the
    # instrumented entry point of the repro.api facade.
    return api.run_instrumented(
        cfg,
        SimulationConfig(
            decompression="ondemand", k_compress=2, image_scheme=scheme,
            trace_events=False, record_trace=False,
        ),
    )


def run_experiment(workloads):
    table = Table(
        "E8: image scheme comparison (on-demand, kc=2, shared-dict)",
        ["workload", "scheme", "relocations", "compactions",
         "holes", "address_space", "overhead"],
    )
    rows = {}
    for workload in workloads:
        cfg = build_cfg(workload.program)
        for scheme in ("separate", "inplace"):
            manager, result = _run(cfg, scheme)
            assert workload.validate(manager.machine) == []
            image = manager.residency.image
            relocations = getattr(image, "relocations", 0)
            compactions = getattr(image, "compactions", 0)
            table.add_row(
                workload.name, scheme, relocations, compactions,
                image.allocator.hole_count, image.address_space_bytes,
                percent(result.cycle_overhead),
            )
            rows[(workload.name, scheme)] = (relocations, compactions,
                                             image)
    return table, rows


def test_e8_fragmentation(small_suite, benchmark):
    table, rows = run_experiment(small_suite)
    for workload in {name for name, _ in rows}:
        separate_relocs, _, _ = rows[(workload, "separate")]
        inplace_relocs, _, _ = rows[(workload, "inplace")]
        # Section 5: compressed block locations never change in the
        # paper's scheme...
        assert separate_relocs == 0
        # ...while the naive scheme shuffles blocks around constantly.
        assert inplace_relocs > 0, workload
    record_experiment("e8_fragmentation", table.render())

    cfg = build_cfg(small_suite[0].program)
    benchmark.pedantic(
        lambda: _run(cfg, "inplace"), rounds=1, iterations=1
    )
