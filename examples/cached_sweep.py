"""Persistent caching and resumable sweeps with ``repro.store``.

Every cell of an experiment grid has a deterministic fingerprint over
(code version, workload program bytes, full config, flags).  Passing
``store=DIR`` to :func:`repro.api.run_experiment` wraps the executor in
the :class:`~repro.store.executor.CachingExecutor`: results land in a
content-addressed on-disk store, and re-running the same spec — today,
tomorrow, from another process — only computes cells the store has not
seen.  This example demonstrates the three headline behaviours:

* a warm re-run computes **zero** cells and is byte-identical to the
  cold run;
* an **interrupted** sweep resumes: a later, larger spec only computes
  the cells the first (partial) run never produced;
* changing anything that matters (here: k) misses the cache instead of
  serving a stale result.

Run with::

    python examples/cached_sweep.py
"""

import shutil
import tempfile

from repro import api


def cache_line(result) -> str:
    cache = result.meta["cache"]
    return (f"{cache['hits']} hit(s), {cache['misses']} miss(es) "
            f"in {result.meta['timing']['elapsed_s']:.2f}s")


def main() -> None:
    store = tempfile.mkdtemp(prefix="repro-store-example-")
    try:
        spec = api.ExperimentSpec(
            name="cached-kedge-grid",
            workloads=["composite", "fsm"],
            base={"codec": "shared-dict", "decompression": "ondemand"},
            axes=api.grid(k_compress=[1, 4, "inf"]),
        )

        cold = api.run_experiment(spec, store=store)
        print(f"cold run : {cache_line(cold)}")
        warm = api.run_experiment(spec, store=store)
        print(f"warm run : {cache_line(warm)}")
        assert warm.meta["cache"]["misses"] == 0
        assert warm.canonical_json() == cold.canonical_json(), \
            "a fully cached run must be byte-identical to a cold one"

        # Resume: a larger grid over the same base computes only the
        # new k points; the six cached cells are served from disk.
        larger = api.ExperimentSpec(
            name="cached-kedge-grid",
            workloads=["composite", "fsm"],
            base={"codec": "shared-dict", "decompression": "ondemand"},
            axes=api.grid(k_compress=[1, 2, 4, 8, "inf"]),
        )
        resumed = api.run_experiment(larger, store=store)
        print(f"resumed  : {cache_line(resumed)} "
              f"({len(resumed)} cells)")
        assert resumed.meta["cache"]["hits"] == len(cold)
        assert resumed.meta["cache"]["misses"] == \
            len(resumed) - len(cold)

        print()
        print(resumed.pivot(
            value="average_saving", cols="k_compress",
            title="average memory saving by workload x k (from cache "
                  "+ fresh cells)",
            fmt=lambda v: f"{v * 100:.1f}%",
        ).render())
        print("\ncached sweep example OK")
    finally:
        shutil.rmtree(store, ignore_errors=True)


if __name__ == "__main__":
    main()
