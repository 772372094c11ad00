"""Run sweeps through the long-running service (``repro.service``).

The service wraps the experiment pipeline in a daemon: specs are
POSTed as JSON jobs, executed through the same caching executor stack
as ``api.run_experiment``, and served back from the store.  This
example boots a real server in-process (:class:`ServerThread` — the
same code path ``python -m repro serve`` runs) and demonstrates the
service's headline contracts:

* the served result is **byte-identical** to a local
  ``run_experiment`` on the same store;
* resubmitting a spec **dedups** onto the finished job — no cell is
  recomputed, even across a server restart (the job journal);
* an overlapping grid submitted later only computes the cells the
  first job never produced (store-backed per-cell dedup);
* per-cell progress streams as Server-Sent Events.

Run with::

    python examples/service_sweep.py
"""

import shutil
import tempfile

from repro import api
from repro.service import ServerThread, ServiceClient

SPEC = {
    "name": "service-sweep",
    "workloads": ["fib", "gcd"],
    "base": {"codec": "shared-dict", "decompression": "ondemand"},
    "axes": {"grid": {"k_compress": [1, 2, "inf"]}},
}

#: Overlaps SPEC in 2 of its 4 k-values per workload.
OVERLAPPING = {**SPEC, "name": "service-sweep-overlap",
               "axes": {"grid": {"k_compress": [2, "inf", 8]}}}


def main() -> None:
    root = tempfile.mkdtemp(prefix="repro-service-example-")
    try:
        with ServerThread(store=root) as server:
            client = ServiceClient(server.host, server.port)

            reply = client.submit(SPEC)
            print(f"submitted {reply['job']} "
                  f"({reply['cells']} cells) -> {reply['state']}")
            final = client.wait(reply["job"])
            assert final["state"] == "done", final
            progress = final["progress"]
            print(f"finished: {progress['done']}/{progress['total']} "
                  f"cells, {progress['computed']} computed")

            served = client.result(reply["job"])

            # Per-cell progress is also available as SSE.
            events = list(client.events(reply["job"]))
            assert len(events) == progress["total"] + 1  # + end frame
            print(f"SSE: {len(events) - 1} cell events, e.g. "
                  f"{events[0]['workload']}/{events[0]['label']} "
                  f"({events[0]['source']})")

            # Resubmitting is a dedup hit: same job, no recompute.
            again = client.submit(SPEC)
            assert again["deduped"] and again["job"] == reply["job"]
            print("resubmit deduplicated onto the finished job")

            # An overlapping grid only computes the unseen cells.
            overlap = client.submit(OVERLAPPING)
            done = client.wait(overlap["job"])
            assert done["state"] == "done", done
            print(f"overlapping grid: {done['progress']['hits']} from "
                  f"cache, {done['progress']['computed']} computed")
            assert done["progress"]["hits"] == 4          # 2 k's x 2 wl
            assert done["progress"]["computed"] == 2      # k=8 x 2 wl
            client.close()

        # The contract that makes the service trustworthy: the HTTP
        # body is byte-identical to a local run on the same store.
        local = api.run_experiment(
            api.ExperimentSpec.from_dict(SPEC), store=root
        )
        assert served == local.canonical_json()
        print("served result is byte-identical to local "
              "run_experiment: OK")
    finally:
        shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
