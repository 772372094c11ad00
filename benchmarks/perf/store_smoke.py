#!/usr/bin/env python
"""Store smoke: run a tiny sweep twice against a throwaway store and
assert the second run is served from cache.

The ``make store-smoke`` / CI gate: proves fingerprint stability, the
CAS round-trip, and cache-hit-equals-recompute equivalence on a real
(small) grid, end to end through the public facade.

Usage::

    python benchmarks/perf/store_smoke.py [--store DIR]
"""

import sys

from serve_smoke import parse_args, run_on_store

# serve_smoke puts src/ on the path.
from repro import api  # noqa: E402


def smoke(root: str) -> int:
    spec = api.ExperimentSpec(
        name="store-smoke",
        workloads=["fib", "gcd"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=api.grid(k_compress=[1, 2, "inf"]),
    )
    first = api.run_experiment(spec, store=root)
    second = api.run_experiment(spec, store=root)
    cells = len(second)
    hits = second.meta["cache"]["hits"]
    identical = first.canonical_json() == second.canonical_json()
    print(f"store smoke @ {root}")
    print(f"  first run : {first.meta['cache']['hits']} hits / "
          f"{first.meta['cache']['misses']} misses")
    print(f"  second run: {hits} hits / "
          f"{second.meta['cache']['misses']} misses "
          f"({cells} cells)")
    print(f"  result sets byte-identical: "
          f"{'yes' if identical else 'NO'}")
    if second.failures():
        print("error: smoke sweep cells failed validation",
              file=sys.stderr)
        return 1
    if not identical:
        print("error: cached result set differs from the "
              "recomputed one", file=sys.stderr)
        return 1
    if cells == 0 or hits < 0.9 * cells:
        print(f"error: second run served {hits}/{cells} cells "
              f"from cache (need >= 90%)", file=sys.stderr)
        return 1
    print("store smoke OK")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv, "Run a tiny sweep twice; assert the second "
                            "run is served from cache.")
    return run_on_store(args.store, "repro-store-smoke-", smoke)


if __name__ == "__main__":
    sys.exit(main())
