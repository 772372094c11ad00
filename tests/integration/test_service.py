"""Integration tests for the sweep service over real HTTP.

A live ``ServerThread`` (the same server ``python -m repro serve``
runs) on a temp store, exercised through ``ServiceClient``.  The
contracts pinned here:

* a served ``/result`` body is **byte-identical** to a local
  ``run_experiment`` on the same store;
* ``/metrics``' ``store`` section agrees exactly with
  ``repro store stats --json`` for the same directory;
* two clients submitting overlapping grids concurrently compute every
  overlapping cell **at most once** (store ``puts`` == distinct
  cells), and both results are byte-equal to serial recomputation;
* SSE streams one event per cell plus a final ``end`` frame;
* graceful shutdown leaves a journal a second server resumes from.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro import api
from repro.cli import main as cli_main
from repro.service import (
    ServerThread,
    ServiceClient,
    ServiceClientError,
)

SPEC = {
    "name": "it-service",
    "workloads": ["fib", "gcd"],
    "base": {"codec": "shared-dict", "decompression": "ondemand"},
    "axes": {"grid": {"k_compress": [1, "inf"]}},
}


@pytest.fixture()
def server(tmp_path):
    with ServerThread(store=str(tmp_path / "store")) as srv:
        yield srv


@pytest.fixture()
def client(server):
    c = ServiceClient(server.host, server.port)
    yield c
    c.close()


class TestRoundTrip:
    def test_submit_wait_result_byte_identical_to_local_run(
        self, server, client
    ):
        reply = client.submit(SPEC)
        assert reply["state"] in ("queued", "running")
        assert reply["cells"] == 4
        final = client.wait(reply["job"])
        assert final["state"] == "done"
        assert final["progress"]["done"] == 4
        served = client.result(reply["job"])

        local = api.run_experiment(
            api.ExperimentSpec.from_dict(SPEC),
            store=server.manager.store.root,
        )
        assert served == local.canonical_json()

    def test_resubmit_dedups_without_recompute(self, server, client):
        first = client.submit(SPEC)
        client.wait(first["job"])
        puts_before = server.manager.store.stats()["puts"]
        again = client.submit(SPEC)
        assert again["deduped"] and again["job"] == first["job"]
        assert client.result(again["job"]) == client.result(
            first["job"]
        )
        assert server.manager.store.stats()["puts"] == puts_before

    def test_healthz(self, server, client):
        health = client.healthz()
        assert health["ok"] is True
        assert health["store"] == server.manager.store.root
        assert set(health["jobs"]) == {
            "queued", "running", "done", "failed",
        }


class TestErrorReplies:
    def test_bad_spec_is_400(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.submit({"workloads": ["no-such-workload"]})
        assert err.value.status == 400

    def test_non_json_body_is_400(self, client):
        with pytest.raises(ServiceClientError) as err:
            client._json("POST", "/jobs", b"not json")
        assert err.value.status == 400

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client.status("j999-nope")
        assert err.value.status == 404
        with pytest.raises(ServiceClientError) as err:
            client.result("j999-nope")
        assert err.value.status == 404

    def test_unknown_path_is_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            client._json("GET", "/nope")
        assert err.value.status == 404

    def test_result_of_unfinished_job_is_409(
        self, server, client, monkeypatch
    ):
        from repro.service.jobs import JobManager

        gate = threading.Event()
        picked_up = threading.Event()
        real_execute = JobManager._execute

        def gated_execute(self, job):
            picked_up.set()
            gate.wait(30.0)
            real_execute(self, job)

        monkeypatch.setattr(JobManager, "_execute", gated_execute)
        reply = client.submit({**SPEC, "name": "it-409"})
        assert picked_up.wait(30.0)
        with pytest.raises(ServiceClientError) as err:
            client.result(reply["job"])
        assert err.value.status == 409
        gate.set()
        client.wait(reply["job"])


class TestMetricsAgreement:
    def test_metrics_store_section_equals_cli_store_stats_json(
        self, server, client, capsys
    ):
        reply = client.submit(SPEC)
        client.wait(reply["job"])  # quiesce: nothing in flight
        metrics = client.metrics()

        code = cli_main([
            "store", "stats",
            "--store", server.manager.store.root, "--json",
        ])
        assert code == 0
        cli_stats = json.loads(capsys.readouterr().out)
        assert metrics["store"] == cli_stats

    def test_metrics_shape(self, server, client):
        client.healthz()
        metrics = client.metrics()
        assert set(metrics) == {
            "service", "queue_depth", "jobs", "store",
        }
        service = metrics["service"]
        assert "GET /healthz" in service["requests"]
        histogram = service["requests"]["GET /healthz"]
        assert histogram["count"] >= 1
        assert sum(histogram["buckets_ms"].values()) == \
            histogram["count"]
        assert service["responses"].get("200", 0) >= 1


class TestConcurrentOverlap:
    def test_overlapping_grids_compute_each_cell_at_most_once(
        self, server
    ):
        # 2 workloads x k in {1,2,4} and k in {2,4,8}: the overlap
        # (k=2,4) is 4 cells, the union 8 distinct cells.
        spec_a = {**SPEC, "name": "it-overlap-a",
                  "axes": {"grid": {"k_compress": [1, 2, 4]}}}
        spec_b = {**SPEC, "name": "it-overlap-b",
                  "axes": {"grid": {"k_compress": [2, 4, 8]}}}
        results = {}

        def run_client(name, spec):
            with ServiceClient(server.host, server.port) as c:
                reply = c.submit(spec)
                c.wait(reply["job"])
                results[name] = c.result(reply["job"])

        threads = [
            threading.Thread(target=run_client, args=("a", spec_a)),
            threading.Thread(target=run_client, args=("b", spec_b)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # At-most-once: every distinct cell was stored exactly once.
        stats = server.manager.store.stats()
        assert stats["puts"] == 8
        assert stats["cells"] == 8

        # Both results byte-equal a serial recomputation (fresh
        # store, no service involved).
        for name, spec in (("a", spec_a), ("b", spec_b)):
            serial = api.run_experiment(
                api.ExperimentSpec.from_dict(spec)
            )
            assert results[name] == serial.canonical_json()


class TestEvents:
    def test_sse_streams_every_cell_then_end(self, server, client):
        reply = client.submit(SPEC)
        client.wait(reply["job"])
        events = list(client.events(reply["job"]))
        # One frame per cell plus the final snapshot frame.
        assert len(events) == 5
        cells = events[:-1]
        assert [e["seq"] for e in cells] == [0, 1, 2, 3]
        assert all(e["ok"] for e in cells)
        assert {e["workload"] for e in cells} == {"fib", "gcd"}
        assert events[-1]["state"] == "done"

    def test_events_for_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as err:
            list(client.events("j999-nope"))
        assert err.value.status == 404


class TestShutdownResume:
    def test_second_server_resumes_the_journal(self, tmp_path):
        root = str(tmp_path / "store")
        with ServerThread(store=root) as first:
            with ServiceClient(first.host, first.port) as c:
                reply = c.submit(SPEC)
                c.wait(reply["job"])
                served = c.result(reply["job"])

        with ServerThread(store=root) as second:
            with ServiceClient(second.host, second.port) as c:
                again = c.submit(SPEC)
                assert again["deduped"]
                assert again["job"] == reply["job"]
                assert c.result(again["job"]) == served
