"""Unit tests for :mod:`repro.obs` — tracer, spans, chrome, prometheus
— and the exposition validator of ``benchmarks/perf/obs_smoke.py``."""

import json
import threading

import pytest

from obs_smoke import validate_exposition
from repro import api
from repro.obs import (
    NULL_TRACER,
    STALL_KINDS,
    SpanRecorder,
    SpanTracer,
    TraceSink,
    chrome_trace,
    chrome_trace_json,
    current_recorder,
    current_tracer,
    render_prometheus,
    span,
    span_event,
    span_scope,
    tracing_scope,
)
from repro.obs.chrome import EXECUTION_TRACK, execution_track_events


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        # Every hook is a no-op on the null object.
        NULL_TRACER.stall(0, 5, "decompress", True)
        NULL_TRACER.worker_job("decompression", 1, 0, 0, 10)
        NULL_TRACER.worker_cancel(3, "decompression", 1)
        NULL_TRACER.fill(3, 1, 4)
        NULL_TRACER.release(9, 1, "evict", 2)
        NULL_TRACER.decode(0, "huffman", 12)
        NULL_TRACER.close(100, 150)

    def test_unarmed_ambient_tracer_is_the_null_object(self):
        assert current_tracer("anything") is NULL_TRACER


class TestSpanTracerArithmetic:
    """Hand-fed events with hand-computable totals."""

    def _traced(self):
        tracer = SpanTracer("hand")
        tracer.stall(10, 7, "decompress", True)
        tracer.stall(30, 5, "patch", False)
        tracer.stall(50, 3, "decompress", True)
        tracer.stall(60, 2, "mem", True)
        tracer.stall(70, 4, "contention", False)
        tracer.close(execution_cycles=100, total_cycles=121)
        return tracer

    def test_phases_are_exact(self):
        phases = self._traced().phases()
        assert phases == {
            "execute": 100,
            "stall_decompress": 10,
            "stall_patch": 5,
            "stall_mem": 2,
            "stall_contention": 4,
        }

    def test_phase_sum_equals_total_cycles(self):
        tracer = self._traced()
        assert sum(tracer.phases().values()) == 121
        assert tracer.stall_total() == 21

    def test_stall_event_counts_by_kind(self):
        tracer = self._traced()
        assert tracer.stall_events == {
            "decompress": 2, "patch": 1, "mem": 1, "contention": 1,
        }

    def test_every_stall_kind_has_a_phase(self):
        phases = SpanTracer("empty").phases()
        for kind in STALL_KINDS:
            assert f"stall_{kind}" in phases

    def test_span_cap_drops_spans_not_cycles(self):
        tracer = SpanTracer("capped", span_cap=2)
        for at in range(5):
            tracer.stall(at * 10, 3, "decompress", True)
        tracer.close(50, 65)
        assert len(tracer.stall_spans) == 2
        assert tracer.dropped_spans > 0
        # The aggregate accounting never drops.
        assert tracer.phases()["stall_decompress"] == 15


class TestTracingScope:
    def test_scope_arms_and_restores(self):
        sink = TraceSink()
        with tracing_scope(sink):
            tracer = current_tracer("prog")
            assert tracer.enabled
            tracer.stall(0, 5, "decompress", True)
            tracer.close(10, 15)
        assert current_tracer("prog") is NULL_TRACER
        assert sink.phases()["stall_decompress"] == 5

    def test_one_tracer_per_run_all_registered_on_sink(self):
        sink = TraceSink()
        with tracing_scope(sink):
            first = current_tracer("a")
            second = current_tracer("b")
        assert first is not second
        assert sink.tracers == [first, second]


class TestChromeTrace:
    def _tracer(self):
        _, tracer = api.run_traced(
            "fib", api.SimulationConfig(
                codec="shared-dict", decompression="ondemand"
            ),
        )
        return tracer

    def test_execution_track_gap_fill_sums_to_total(self):
        tracer = self._tracer()
        events = [
            e for e in execution_track_events(tracer)
            if e.get("ph") == "X"
        ]
        assert all(e["tid"] == EXECUTION_TRACK for e in events)
        assert sum(e["dur"] for e in events) == tracer.total_cycles

    def test_document_parses_and_carries_phases(self):
        tracer = self._tracer()
        doc = json.loads(chrome_trace_json(tracer))
        assert doc["traceEvents"]
        assert doc["metadata"]["phases"] == tracer.phases()
        kinds = {e["ph"] for e in doc["traceEvents"]}
        assert "X" in kinds and "M" in kinds

    def test_trace_label_overrides_program(self):
        tracer = self._tracer()
        doc = chrome_trace(tracer, label="custom")
        names = [
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert names == ["custom"]


class TestSpanRecorder:
    def test_unarmed_is_a_noop(self):
        assert current_recorder() is None
        with span("nothing", cat="x"):
            pass
        span_event("nothing.happened")

    def test_spans_record_and_export(self):
        recorder = SpanRecorder()
        with span_scope(recorder):
            with span("work", cat="compute", cells=3):
                span_event("milestone", cat="mark")
        cats = recorder.by_category()
        assert cats["compute"]["count"] == 1
        doc = recorder.to_chrome()
        names = {e["name"] for e in doc["traceEvents"]}
        assert {"work", "milestone"} <= names
        json.dumps(doc)  # serialisable

    def test_scope_restores_previous_recorder(self):
        outer = SpanRecorder()
        inner = SpanRecorder()
        with span_scope(outer):
            with span_scope(inner):
                assert current_recorder() is inner
            assert current_recorder() is outer
        assert current_recorder() is None

    def test_cap_drops_excess_spans(self):
        recorder = SpanRecorder(cap=3)
        with span_scope(recorder):
            for i in range(10):
                span_event(f"e{i}")
        assert len(recorder.spans) == 3
        assert recorder.dropped == 7


def _payload():
    histogram = {
        "count": 4,
        "total_ms": 20.0,
        "mean_ms": 5.0,
        "max_ms": 11.0,
        "p50_ms": 1.5,
        "p95_ms": 10.7,
        "p99_ms": 10.94,
        "buckets_ms": {
            "<=1": 1, "<=2": 1, "<=5": 0, "<=10": 0, "<=25": 2,
            ">25": 0,
        },
    }
    return {
        "service": {
            "uptime_s": 12.5,
            "requests": {
                "POST /jobs": histogram,
                "GET /jobs/{id}": histogram,
            },
            "responses": {"200": 3, "202": 1},
        },
        "queue_depth": 2,
        "jobs": {"queued": 2, "running": 1, "done": 3, "failed": 0},
        "store": {
            "root": "/tmp/s", "format": 1, "cells": 7,
            "blob_bytes": 1234, "hits": 5, "misses": 2,
        },
    }


class TestPrometheus:
    def test_render_validates(self):
        text = render_prometheus(_payload())
        checked = validate_exposition(text)
        assert checked["metrics"] >= 6
        assert checked["samples"] >= 20

    def test_expected_families_present(self):
        text = render_prometheus(_payload())
        for family in (
            "repro_uptime_seconds", "repro_queue_depth", "repro_jobs",
            "repro_http_responses_total", "repro_http_requests_total",
            "repro_http_request_duration_ms_bucket",
            "repro_http_request_duration_ms_sum",
            "repro_http_request_duration_ms_count",
            "repro_store_cells",
        ):
            assert family in text, family
        # Non-numeric store fields never become gauges.
        assert "repro_store_root" not in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        text = render_prometheus(_payload())
        lines = [
            line for line in text.splitlines()
            if line.startswith(
                "repro_http_request_duration_ms_bucket"
            ) and 'endpoint="POST /jobs"' in line
        ]
        values = [float(line.rsplit(" ", 1)[1]) for line in lines]
        assert values == sorted(values)
        assert 'le="+Inf"' in lines[-1]
        assert values[-1] == 4  # == _count

    def test_braced_label_values_validate(self):
        # "GET /jobs/{id}" puts '{' '}' inside a label value — legal.
        text = render_prometheus(_payload())
        assert 'endpoint="GET /jobs/{id}"' in text
        validate_exposition(text)

    @pytest.mark.parametrize("bad, message", [
        ("repro_x{oops 1\n", "malformed"),
        ("repro_x 1\n", "no preceding"),
        ("# TYPE repro_x teapot\nrepro_x 1\n", "bad TYPE"),
        ("# TYPE repro_x gauge\nrepro_x notanumber\n", "non-numeric"),
    ])
    def test_validator_rejects(self, bad, message):
        with pytest.raises(ValueError, match=message):
            validate_exposition(bad)

    def test_validator_rejects_non_cumulative_histogram(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 3\n"
        )
        with pytest.raises(ValueError, match="not cumulative"):
            validate_exposition(text)

    def test_validator_rejects_inf_count_mismatch(self):
        text = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_count 4\n"
        )
        with pytest.raises(ValueError, match="_count"):
            validate_exposition(text)


class TestAmbientThreadSafety:
    def test_sink_collects_from_many_threads(self):
        sink = TraceSink(keep_spans=False)
        with tracing_scope(sink):
            def work(index):
                tracer = current_tracer(f"p{index}")
                for _ in range(100):
                    tracer.stall(0, 1, "decompress", True)
            threads = [
                threading.Thread(target=work, args=(i,))
                for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert sink.phases()["stall_decompress"] == 800
