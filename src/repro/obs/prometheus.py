"""Prometheus text exposition for the sweep service.

:func:`render_prometheus` turns the ``GET /metrics`` JSON payload (the
``{"service": ..., "queue_depth": ..., "jobs": ..., "store": ...}``
shape built by :class:`~repro.service.app.SweepServer`) into the
Prometheus text exposition format, version 0.0.4: ``# HELP`` / ``#
TYPE`` comments, counters and gauges, and one histogram per endpoint
whose cumulative ``le``-labelled buckets reuse the existing
``BUCKET_BOUNDS_MS`` bounds — read back out of each histogram's
``buckets_ms`` keys, so this module never imports the service layer
(the core imports :mod:`repro.obs`, which must stay leaf-only).
``benchmarks/perf/obs_smoke.py`` syntax-checks the scraped text.
"""

from __future__ import annotations

from typing import Any, List, Mapping


def _escape(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"')
        .replace("\n", "\\n")
    )


class _Writer:
    def __init__(self) -> None:
        self.lines: List[str] = []

    def header(self, name: str, help_text: str, kind: str) -> None:
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self, name: str, labels: Mapping[str, Any], value: Any
    ) -> None:
        if labels:
            rendered = ",".join(
                f'{key}="{_escape(str(val))}"'
                for key, val in labels.items()
            )
            self.lines.append(f"{name}{{{rendered}}} {value}")
        else:
            self.lines.append(f"{name} {value}")

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


def render_prometheus(payload: Mapping[str, Any]) -> str:
    """The service metrics payload as Prometheus text exposition."""
    out = _Writer()
    service = payload.get("service", {})

    out.header("repro_uptime_seconds", "Service uptime.", "gauge")
    out.sample("repro_uptime_seconds", {}, service.get("uptime_s", 0))

    out.header(
        "repro_queue_depth", "Jobs waiting in the submit queue.",
        "gauge",
    )
    out.sample("repro_queue_depth", {}, payload.get("queue_depth", 0))

    out.header("repro_jobs", "Jobs by lifecycle state.", "gauge")
    for state, count in sorted(
        (payload.get("jobs") or {}).items()
    ):
        out.sample("repro_jobs", {"state": state}, count)

    out.header(
        "repro_http_responses_total", "Responses by status code.",
        "counter",
    )
    for status, count in sorted(
        (service.get("responses") or {}).items()
    ):
        out.sample(
            "repro_http_responses_total", {"status": status}, count
        )

    requests: Mapping[str, Any] = service.get("requests") or {}
    out.header(
        "repro_http_requests_total", "Requests by endpoint.", "counter",
    )
    for endpoint, hist in sorted(requests.items()):
        out.sample(
            "repro_http_requests_total", {"endpoint": endpoint},
            hist.get("count", 0),
        )

    out.header(
        "repro_http_request_duration_ms",
        "Request latency by endpoint (histogram over the service's "
        "millisecond bucket bounds).",
        "histogram",
    )
    for endpoint, hist in sorted(requests.items()):
        buckets: Mapping[str, int] = hist.get("buckets_ms") or {}
        bounds = sorted(
            int(key[2:]) for key in buckets if key.startswith("<=")
        )
        cumulative = 0
        for bound in bounds:
            cumulative += int(buckets.get(f"<={bound}", 0))
            out.sample(
                "repro_http_request_duration_ms_bucket",
                {"endpoint": endpoint, "le": str(bound)}, cumulative,
            )
        if bounds:
            cumulative += int(buckets.get(f">{bounds[-1]}", 0))
        out.sample(
            "repro_http_request_duration_ms_bucket",
            {"endpoint": endpoint, "le": "+Inf"}, cumulative,
        )
        out.sample(
            "repro_http_request_duration_ms_sum",
            {"endpoint": endpoint}, hist.get("total_ms", 0),
        )
        out.sample(
            "repro_http_request_duration_ms_count",
            {"endpoint": endpoint}, hist.get("count", 0),
        )

    # Store inventory/usage: every numeric scalar becomes a gauge so the
    # exposition never drifts from ``store stats`` as keys are added.
    store: Mapping[str, Any] = payload.get("store") or {}
    for key in sorted(store):
        value = store[key]
        if isinstance(value, bool) or not isinstance(
            value, (int, float)
        ):
            continue
        name = f"repro_store_{key}"
        out.header(name, f"Store stats field '{key}'.", "gauge")
        out.sample(name, {}, value)

    return out.text()
