#!/usr/bin/env python
"""Load-test the sweep service's cached fast path.

Boots an in-process server on a throwaway store (or targets a running
one via ``--url``), computes one small sweep, then hammers dedup
submits and ``/result`` reads from N client threads over keep-alive
connections.  Reports sustained requests/s; in ``--smoke`` mode the
exit code is non-zero below the 1000 cached-requests/s budget — the
same floor ``bench_service_cached_rps`` guards in ``BENCH_core.json``.

Usage::

    python benchmarks/perf/load_service.py [--smoke]
        [--requests N] [--clients N] [--url http://host:port]
"""

import argparse
import pathlib
import sys
import threading
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service import ServiceClient  # noqa: E402

RPS_BUDGET = 1000.0

SPEC = {
    "name": "load-service",
    "workloads": ["fib"],
    "base": {"codec": "shared-dict", "decompression": "ondemand"},
    "axes": {"grid": {"k_compress": [1, "inf"]}},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI mode: fewer requests, nonzero exit below "
             f"{RPS_BUDGET:.0f} req/s",
    )
    parser.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="total requests across all clients "
             "(default: 600 smoke / 4000 full)",
    )
    parser.add_argument(
        "--clients", type=int, default=4, metavar="N",
        help="concurrent client threads (default: 4)",
    )
    parser.add_argument(
        "--url", default=None, metavar="URL",
        help="target a running server (http://host:port) instead of "
             "booting a throwaway one",
    )
    return parser.parse_args(argv)


def hammer(host, port, job_id, requests, errors):
    client = ServiceClient(host, port)
    try:
        for i in range(requests):
            # Alternate the two cached read paths: dedup submit
            # (fingerprint fast path) and result fetch (blob read).
            if i % 2:
                client.result(job_id)
            else:
                reply = client.submit(SPEC)
                if not reply["deduped"]:
                    errors.append("submit was not deduplicated")
    except Exception as exc:  # noqa: BLE001 - report, don't hang
        errors.append(repr(exc))
    finally:
        client.close()


def run(host, port, total_requests, clients):
    warm = ServiceClient(host, port)
    reply = warm.submit(SPEC)
    warm.wait(reply["job"], timeout=300.0)
    job_id = reply["job"]
    warm.close()

    per_client = max(1, total_requests // clients)
    errors = []
    threads = [
        threading.Thread(
            target=hammer, args=(host, port, job_id, per_client, errors)
        )
        for _ in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    return per_client * clients, elapsed, errors


def main(argv=None):
    args = parse_args(argv)
    total = args.requests or (600 if args.smoke else 4000)

    if args.url:
        stripped = args.url.rstrip("/").split("//")[-1]
        host, _, port = stripped.partition(":")
        requests, elapsed, errors = run(
            host, int(port or 80), total, args.clients
        )
        root = args.url
    else:
        import shutil
        import tempfile

        from repro.service import ServerThread

        root = tempfile.mkdtemp(prefix="repro-load-service-")
        try:
            with ServerThread(store=root) as server:
                requests, elapsed, errors = run(
                    server.host, server.port, total, args.clients
                )
        finally:
            shutil.rmtree(root, ignore_errors=True)

    rps = requests / elapsed if elapsed else float("inf")
    print(f"service load @ {root}: {requests} cached requests over "
          f"{args.clients} client(s) in {elapsed * 1000:.0f} ms "
          f"-> {rps:,.0f} req/s")
    if errors:
        print(f"error: {len(errors)} request failure(s); first: "
              f"{errors[0]}", file=sys.stderr)
        return 1
    if args.smoke and rps < RPS_BUDGET:
        print(f"error: {rps:,.0f} req/s is below the "
              f"{RPS_BUDGET:,.0f} req/s cached-path budget",
              file=sys.stderr)
        return 1
    if args.smoke:
        print(f"service load OK (budget >= {RPS_BUDGET:,.0f} req/s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
