"""Fast design-space exploration with the declarative experiment API.

One :class:`repro.api.ExperimentSpec` describes the whole design space
(strategies x k values); the sweep interprets each workload once and
replays the recorded block trace through every configuration — the
compression metrics are bit-identical to simulating each cell alone,
but the sweep runs much faster because instructions are not
re-interpreted.
Finishes with an ASCII footprint timeline of the chosen operating point
and the Section 2 energy numbers.

Run with::

    python examples/trace_sweep.py [workload]
"""

import sys

from repro import api
from repro.analysis import EnergyModel, Table, percent, plot_timeline
from repro.workloads import available_workloads


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "composite"
    if name not in available_workloads():
        print(f"unknown workload '{name}'; "
              f"available: {', '.join(available_workloads())}")
        raise SystemExit(1)

    # 1. Describe the grid declaratively: 3 strategies x 6 k values.
    spec = api.ExperimentSpec(
        name=f"trace-sweep/{name}",
        workloads=[name],
        base={"k_decompress": 2, "trace_events": False,
              "record_trace": False},
        axes=api.grid(
            decompression=["ondemand", "pre-all", "pre-single"],
            k_compress=[1, 2, 4, 8, 16, 32],
        ),
    )

    # 2. Execute it: the workload's block trace is recorded once and
    #    every cell replays it.
    result = api.run_experiment(spec)
    elapsed = result.meta["timing"]["elapsed_s"]
    print(f"{len(result.runs)} configurations replayed in "
          f"{elapsed * 1000:.0f} ms "
          f"({elapsed / len(result.runs) * 1000:.1f} ms each)\n")

    table = Table(
        f"trace-driven sweep for '{name}'",
        ["strategy", "k", "avg_saving", "overhead", "energy_nj"],
    )
    model = EnergyModel()
    best = None
    for run in result.runs:
        r = run.result
        table.add_row(
            run.config.decompression, run.config.k_compress,
            percent(r.average_saving), percent(r.cycle_overhead),
            round(model.total_energy(r)),
        )
        # pick the best memory saving under 2x slowdown
        if r.cycle_overhead < 1.0 and (
            best is None
            or r.average_saving > best.result.average_saving
        ):
            best = run
    print(table.render())

    # 3. Inspect the chosen operating point.
    if best is not None:
        strategy = best.config.decompression
        k = best.config.k_compress
        r = best.result
        print(f"\nchosen operating point: {strategy}, k={k} "
              f"(saving {percent(r.average_saving)}, "
              f"overhead {percent(r.cycle_overhead)})\n")
        print(plot_timeline(
            r.footprint, width=64, height=8,
            title=f"code memory footprint over time ({strategy}, k={k})",
        ))


if __name__ == "__main__":
    main()
