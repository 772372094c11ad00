#!/usr/bin/env python
"""Obs smoke: boot a real server, validate the text exposition and the
dashboard.

The ``make obs-smoke`` / CI gate: a throwaway server subprocess runs
one small job, then ``GET /metrics?format=prometheus`` must pass
:func:`validate_exposition` and ``GET /dashboard`` must serve the
self-contained HTML page.

:func:`validate_exposition` is a syntax check of Prometheus text
exposition, version 0.0.4: metric/label name grammar, float-parseable
values, known TYPE keywords, and histogram coherence (cumulative
buckets, ``+Inf`` bucket equal to ``_count``).

Usage::

    python benchmarks/perf/obs_smoke.py [--store DIR]
"""

import math
import re
import sys
import urllib.request
from typing import Any, Dict, List, Mapping, Tuple

from serve_smoke import (
    SMOKE_SPEC,
    boot,
    drain,
    free_port,
    parse_args,
    run_on_store,
    wait_healthy,
)

# serve_smoke puts src/ on the path.
from repro.service import ServiceClient  # noqa: E402

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
# The label block is matched greedily to the *last* '}' on the line:
# quoted label values may themselves contain '}' (e.g. the endpoint
# label "GET /jobs/{id}"), and the sample value after it is numeric,
# never brace-bearing.
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_PAIR = re.compile(
    r'(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"'
    r"(?:,|$)"
)

_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _parse_labels(raw: str) -> Dict[str, str]:
    """Parse a label block; quoted values may hold ',' '{' '}' '='."""
    labels: Dict[str, str] = {}
    raw = raw.strip()
    if not raw:
        return labels
    position = 0
    while position < len(raw):
        match = _LABEL_PAIR.match(raw, position)
        if match is None:
            raise ValueError(
                f"malformed label pair: {raw[position:]!r}"
            )
        labels[match.group("name")] = match.group("value")
        position = match.end()
    return labels


def validate_exposition(text: str) -> Dict[str, Any]:
    """Syntax-check Prometheus exposition text.

    Returns ``{"metrics": <count>, "samples": <count>}`` on success and
    raises :class:`ValueError` with a line-numbered message on the
    first violation.  Checks: name/label grammar, float values, known
    TYPE keywords, TYPE-before-samples ordering, and histogram
    coherence (cumulative non-decreasing buckets whose ``+Inf`` count
    equals ``_count``).
    """
    types: Dict[str, str] = {}
    samples: List[Tuple[str, Dict[str, str], float]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 3 or parts[1] not in ("HELP", "TYPE"):
                raise ValueError(
                    f"line {lineno}: malformed comment: {line!r}"
                )
            if not _METRIC_NAME.match(parts[2]):
                raise ValueError(
                    f"line {lineno}: bad metric name {parts[2]!r}"
                )
            if parts[1] == "TYPE":
                if len(parts) != 4 or parts[3] not in _TYPES:
                    raise ValueError(
                        f"line {lineno}: bad TYPE: {line!r}"
                    )
                types[parts[2]] = parts[3]
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        name = match.group("name")
        if not _METRIC_NAME.match(name):
            raise ValueError(f"line {lineno}: bad metric name {name!r}")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: non-numeric value "
                f"{match.group('value')!r}"
            ) from exc
        try:
            labels = _parse_labels(match.group("labels") or "")
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        family = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                family = name[: -len(suffix)]
                break
        if family not in types:
            raise ValueError(
                f"line {lineno}: sample {name!r} has no preceding "
                f"# TYPE"
            )
        samples.append((name, labels, value))

    _check_histograms(types, samples)
    return {"metrics": len(types), "samples": len(samples)}


def _check_histograms(
    types: Mapping[str, str],
    samples: List[Tuple[str, Dict[str, str], float]],
) -> None:
    for family, kind in types.items():
        if kind != "histogram":
            continue
        by_series: Dict[Tuple[Tuple[str, str], ...], Dict] = {}
        for name, labels, value in samples:
            if not name.startswith(family):
                continue
            rest = {k: v for k, v in labels.items() if k != "le"}
            key = tuple(sorted(rest.items()))
            series = by_series.setdefault(
                key, {"buckets": [], "count": None}
            )
            if name == f"{family}_bucket":
                if "le" not in labels:
                    raise ValueError(
                        f"{family}_bucket sample missing 'le' label"
                    )
                series["buckets"].append(
                    (labels["le"], value)
                )
            elif name == f"{family}_count":
                series["count"] = value
        for key, series in by_series.items():
            bounds = series["buckets"]
            if not bounds:
                continue
            values = [v for _, v in bounds]
            if any(
                later < earlier
                for earlier, later in zip(values, values[1:])
            ):
                raise ValueError(
                    f"{family}{dict(key)}: buckets not cumulative"
                )
            inf = [v for le, v in bounds if le in ("+Inf", "inf")]
            if not inf:
                raise ValueError(
                    f"{family}{dict(key)}: missing +Inf bucket"
                )
            if series["count"] is not None and not math.isclose(
                inf[-1], series["count"]
            ):
                raise ValueError(
                    f"{family}{dict(key)}: +Inf bucket "
                    f"{inf[-1]} != _count {series['count']}"
                )


def smoke(root: str) -> int:
    proc = None
    try:
        port = free_port()
        proc = boot(root, port)
        client = ServiceClient("127.0.0.1", port)
        wait_healthy(client, proc)
        print(f"obs smoke @ {root} (port {port})")

        # One real job first, so the histograms/phase bars have data.
        reply = client.submit(SMOKE_SPEC)
        client.wait(reply["job"], timeout=120)
        client.close()
        base = f"http://127.0.0.1:{port}"

        with urllib.request.urlopen(
            f"{base}/metrics?format=prometheus", timeout=10
        ) as response:
            content_type = response.headers.get("Content-Type", "")
            text = response.read().decode("utf-8")
        if "text/plain" not in content_type:
            print(f"error: exposition served as {content_type!r}, "
                  f"want text/plain", file=sys.stderr)
            return 1
        try:
            checked = validate_exposition(text)
        except ValueError as exc:
            print(f"error: invalid exposition: {exc}", file=sys.stderr)
            return 1
        for required in ("repro_uptime_seconds",
                         "repro_http_request_duration_ms_bucket",
                         "repro_jobs"):
            if required not in text:
                print(f"error: exposition is missing {required}",
                      file=sys.stderr)
                return 1
        print(f"  prometheus exposition OK "
              f"({checked['metrics']} metrics, "
              f"{checked['samples']} samples)")

        with urllib.request.urlopen(
            f"{base}/dashboard", timeout=10
        ) as response:
            status = response.status
            page = response.read().decode("utf-8")
        if status != 200 or "<html" not in page \
                or "/metrics" not in page:
            print("error: /dashboard did not serve the dashboard page",
                  file=sys.stderr)
            return 1
        print(f"  dashboard OK ({len(page)} bytes, self-contained)")

        code = drain(proc)
        proc = None
        if code != 0:
            print(f"error: server exited {code} on SIGTERM",
                  file=sys.stderr)
            return 1
        print("obs smoke OK")
        return 0
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if proc is not None:
            proc.kill()
            proc.wait()


def main(argv=None) -> int:
    args = parse_args(argv, "Boot a sweep server subprocess; validate "
                            "its Prometheus exposition and dashboard.")
    return run_on_store(args.store, "repro-obs-smoke-", smoke)


if __name__ == "__main__":
    sys.exit(main())
