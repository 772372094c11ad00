#!/usr/bin/env python
"""Serve smoke: boot a real sweep-service subprocess, round-trip a spec
and drain it.

The ``make serve-smoke`` / CI gate, asserting the service's core
contracts end to end against a *separate process* (the in-process
``ServerThread`` path is covered by the test suite):

1. the server boots and ``/healthz`` goes green;
2. a submitted spec completes and its ``/result`` body is
   byte-identical to a local ``run_experiment`` on the same store;
3. resubmitting dedups onto the finished job;
4. SIGTERM drains gracefully (exit 0) and leaves a resumable
   journal — a second boot on the same store still dedups the spec.

The helpers here also run ``obs_smoke.py`` (the server ones) and
``store_smoke.py`` (:func:`parse_args`, :func:`run_on_store`).

Usage::

    python benchmarks/perf/serve_smoke.py [--store DIR]
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

# The path is set up above.
from repro import api  # noqa: E402
from repro.service import ServiceClient, ServiceClientError  # noqa: E402

#: The smoke experiment: tiny, two workloads.
SMOKE_SPEC = {
    "name": "serve-smoke",
    "workloads": ["fib", "gcd"],
    "base": {"codec": "shared-dict", "decompression": "ondemand"},
    "axes": {"grid": {"k_compress": [1, 2, "inf"]}},
}


def parse_args(argv, description: str) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory to run against (default: a temp dir, "
             "removed afterwards)",
    )
    return parser.parse_args(argv)


def run_on_store(store, prefix: str, check) -> int:
    """``check(root)`` on ``store``, or on a throwaway directory that is
    removed afterwards."""
    if store is not None:
        return check(store)
    root = tempfile.mkdtemp(prefix=prefix)
    try:
        return check(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def boot(root: str, port: int) -> subprocess.Popen:
    """A ``repro serve`` subprocess on ``port`` backed by ``root``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO_ROOT / "src"), env.get("PYTHONPATH")))
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--host", "127.0.0.1", "--port", str(port),
         "--store", root, "--workers", "2"],
        env=env,
    )


def wait_healthy(client: ServiceClient, proc: subprocess.Popen,
                 timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"server exited early (code {proc.returncode})"
            )
        try:
            if client.healthz().get("ok"):
                return
        except (ServiceClientError, OSError):
            time.sleep(0.1)
    raise RuntimeError("server never became healthy")


def drain(proc: subprocess.Popen) -> int:
    """SIGTERM the server; its exit code (-9 if it had to be killed)."""
    proc.send_signal(signal.SIGTERM)
    try:
        return proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -9


def smoke(root: str) -> int:
    proc = None
    try:
        port = free_port()
        proc = boot(root, port)
        client = ServiceClient("127.0.0.1", port)
        wait_healthy(client, proc)
        print(f"serve smoke @ {root} (port {port})")

        reply = client.submit(SMOKE_SPEC)
        snapshot = client.wait(reply["job"], timeout=120)
        if snapshot["state"] != "done" or snapshot["error_rows"]:
            print(f"error: smoke job ended {snapshot['state']} "
                  f"({snapshot['error_rows'] or snapshot['error']})",
                  file=sys.stderr)
            return 1
        served = client.result(reply["job"])
        print(f"  job {reply['job']}: {snapshot['progress']['done']}"
              f"/{snapshot['progress']['total']} cells done")

        local = api.run_experiment(
            api.ExperimentSpec.from_dict(SMOKE_SPEC), store=root
        ).canonical_json()
        if served != local:
            print("error: served result differs from local "
                  "run_experiment on the same store", file=sys.stderr)
            return 1
        print("  result byte-identical to local run_experiment: yes")

        resubmit = client.submit(SMOKE_SPEC)
        if not resubmit["deduped"]:
            print("error: resubmitted spec was not deduplicated",
                  file=sys.stderr)
            return 1
        print("  resubmit deduplicated onto the finished job: yes")
        client.close()

        code = drain(proc)
        proc = None
        if code != 0:
            print(f"error: server exited {code} on SIGTERM "
                  f"(graceful drain failed)", file=sys.stderr)
            return 1
        journal_dir = os.path.join(root, "service", "jobs")
        entries = [p for p in os.listdir(journal_dir)
                   if p.endswith(".json")] \
            if os.path.isdir(journal_dir) else []
        if not entries:
            print("error: no resumable journal left under "
                  f"{journal_dir}", file=sys.stderr)
            return 1
        with open(os.path.join(journal_dir, entries[0])) as handle:
            entry = json.load(handle)
        print(f"  graceful shutdown: exit 0, journal "
              f"{len(entries)} entry(ies), state={entry['state']}")

        # Second boot on the same store: the journal + store must
        # still dedup the spec without recomputing anything.
        port = free_port()
        proc = boot(root, port)
        client = ServiceClient("127.0.0.1", port)
        wait_healthy(client, proc)
        again = client.submit(SMOKE_SPEC)
        if not again["deduped"]:
            print("error: spec recomputed after restart (journal "
                  "resume failed)", file=sys.stderr)
            return 1
        if client.result(again["job"]) != local:
            print("error: post-restart result differs", file=sys.stderr)
            return 1
        print("  post-restart resubmit deduplicated from the "
              "journal/store: yes")
        client.close()
        code = drain(proc)
        proc = None
        if code != 0:
            print(f"error: second server exited {code} on SIGTERM",
                  file=sys.stderr)
            return 1
        print("serve smoke OK")
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    args = parse_args(argv, "Boot a sweep server subprocess, round-trip "
                            "a spec and drain it.")
    return run_on_store(args.store, "repro-serve-smoke-", smoke)


if __name__ == "__main__":
    sys.exit(main())
