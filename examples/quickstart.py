"""Quickstart: compress, simulate, and inspect one small program,
then sweep a parameter grid through the declarative ``repro.api``.

Run with::

    python examples/quickstart.py
"""

from repro import SimulationConfig, assemble, build_cfg, simulate
from repro import api

SOURCE = """
; sum the numbers 1..100, then post-process in a helper function
main:
    li   r1, 100            ; counter
    li   r2, 0              ; accumulator
loop:
    add  r2, r2, r1
    subi r1, r1, 1
    bne  r1, r0, loop
    call scale
    halt
scale:
    muli r3, r2, 2
    ret
"""


def main() -> None:
    program = assemble(SOURCE, "quickstart")

    # Look at the structure the compression strategy operates on.
    cfg = build_cfg(program)
    print(cfg.render())
    print()

    # The uncompressed baseline: full-size image, no overhead.
    baseline = simulate(
        program, SimulationConfig(decompression="none")
    )
    print(baseline.render())
    print()

    # The paper's scheme: on-demand decompression + k-edge compression.
    result = simulate(
        program,
        SimulationConfig(
            codec="shared-dict",
            decompression="ondemand",
            k_compress=2,
        ),
    )
    print(result.render())
    print()

    # Compression is transparent: same architectural results.
    assert result.registers == baseline.registers
    print(f"sum(1..100) * 2 = {result.registers[3]} (registers match "
          f"the uncompressed run)")
    print(f"peak memory: {result.peak_footprint} B vs "
          f"{baseline.peak_footprint} B uncompressed")
    print()

    # The declarative API: describe a grid once, get a ResultSet with
    # table helpers back (registered workloads can also run in
    # parallel processes — see examples/parallel_sweep.py).
    spec = api.ExperimentSpec(
        workloads=["fib", "gcd"],
        base={"codec": "shared-dict", "decompression": "ondemand",
              "trace_events": False, "record_trace": False},
        axes=api.grid(k_compress=[1, 4, "inf"]),
    )
    grid_result = api.run_experiment(spec)
    print(grid_result.pivot(
        value="cycle_overhead", cols="k_compress",
        title="cycle overhead by workload x k",
    ).render())


if __name__ == "__main__":
    main()
