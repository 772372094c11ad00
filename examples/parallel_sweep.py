"""Parallel design-space exploration with the declarative API.

The same :class:`repro.api.ExperimentSpec` can run serially or fan out
across worker processes (one task per workload partition) — the result
is guaranteed identical, so parallelism is purely a wall-clock decision.
This example runs the paper's k-edge grid over several workloads both
ways, checks the equality, and writes the versioned result JSON + CSV.

The same grid as a JSON spec file lives at
``examples/specs/kedge_grid.json``; run it from the CLI with::

    python -m repro exp --spec examples/specs/kedge_grid.json --jobs 4

Run this script with::

    python examples/parallel_sweep.py
"""

import os
import tempfile

from repro import api


def main() -> None:
    spec = api.ExperimentSpec(
        name="parallel-kedge-grid",
        workloads=["composite", "cold_paths", "fsm", "dijkstra"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=api.grid(k_compress=[1, 2, 4, 8, 16, "inf"]),
    )
    print(f"grid: {len(spec.cells())} cells over "
          f"{len(spec.workload_names())} workloads\n")

    serial = api.run_experiment(spec, executor="serial")
    # Worker processes, not cores: jobs > 1 engages the parallel
    # executor even on small machines (transparency is the point here;
    # wall-clock wins scale with real cores).
    parallel = api.run_experiment(spec, jobs=max(2, os.cpu_count() or 1))
    for result in (serial, parallel):
        meta = result.meta
        print(f"{meta['executor']:8s} (jobs={meta['jobs']}): "
              f"{meta['timing']['elapsed_s']:.2f}s")

    # Executors are result-transparent: same cells, same metrics, same
    # serialised JSON once the execution-provenance block is dropped.
    assert serial.to_dict(include_execution=False) == \
        parallel.to_dict(include_execution=False)
    print("\nserial and parallel results are identical "
          f"(schema v{api.SCHEMA_VERSION})\n")

    print(parallel.pivot(
        value="average_saving", cols="k_compress",
        title="average memory saving by workload x k",
        fmt=lambda v: f"{v * 100:.1f}%",
    ).render())

    out_dir = tempfile.mkdtemp(prefix="repro-results-")
    json_path = os.path.join(out_dir, "kedge_grid.json")
    csv_path = os.path.join(out_dir, "kedge_grid.csv")
    parallel.to_json(json_path)
    parallel.to_csv(csv_path)
    print(f"\nresults written to {json_path} and {csv_path}")


if __name__ == "__main__":
    main()
