"""A tiny stdlib client for the sweep service.

``http.client`` with keep-alive and a single transparent reconnect on
stale connections — one :class:`ServiceClient` can push thousands of
dedup submits down one socket (this is what the cached-rps benchmark
measures).  Specs go in as plain dicts (the ``exp --spec`` schema) or
:class:`~repro.api.spec.ExperimentSpec` objects; results come back as
the raw canonical JSON text so byte-equality checks against a local
``run_experiment`` need no re-serialisation.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Any, Dict, Iterator, Optional, Union

from ..api.spec import ExperimentSpec

SpecLike = Union[ExperimentSpec, Dict[str, Any]]


class ServiceClientError(RuntimeError):
    """An HTTP-level error reply from the service."""

    def __init__(self, status: int, payload: Any) -> None:
        detail = payload.get("error") if isinstance(payload, dict) \
            else payload
        super().__init__(f"service replied {status}: {detail}")
        self.status = status
        self.payload = payload


class ServiceClient:
    """Talk to a running :class:`~repro.service.app.SweepServer`."""

    def __init__(self, host: str, port: int,
                 timeout: float = 30.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: Optional[http.client.HTTPConnection] = None

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> tuple:
        headers = {"Content-Type": "application/json"} if body else {}
        for attempt in (0, 1):
            conn = self._connection()
            try:
                conn.request(method, path, body=body, headers=headers)
                response = conn.getresponse()
                return response.status, response.read()
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, OSError):
                # Stale keep-alive socket (server idle-timeout or
                # restart): reconnect once, then give up.
                self.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")

    def _json(self, method: str, path: str,
              body: Optional[bytes] = None) -> Any:
        status, raw = self._request(method, path, body)
        try:
            payload = json.loads(raw.decode("utf-8")) if raw else None
        except ValueError:
            payload = raw.decode("utf-8", "replace")
        if status >= 400:
            raise ServiceClientError(status, payload)
        return payload

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def submit(self, spec: SpecLike) -> Dict[str, Any]:
        """POST a spec; returns ``{"job", "state", "deduped", "cells"}``."""
        if isinstance(spec, ExperimentSpec):
            spec = spec.to_dict()
        body = json.dumps(spec, separators=(",", ":")).encode("utf-8")
        return self._json("POST", "/jobs", body)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._json("GET", f"/jobs/{job_id}")

    def result(self, job_id: str) -> str:
        """The canonical ResultSet JSON, as raw text."""
        status, raw = self._request("GET", f"/jobs/{job_id}/result")
        if status >= 400:
            try:
                payload = json.loads(raw.decode("utf-8"))
            except ValueError:
                payload = raw.decode("utf-8", "replace")
            raise ServiceClientError(status, payload)
        return raw.decode("utf-8")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll: float = 0.05) -> Dict[str, Any]:
        """Poll until the job is done/failed; returns the final
        snapshot (raises on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            snapshot = self.status(job_id)
            if snapshot["state"] in ("done", "failed"):
                return snapshot
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {snapshot['state']} after "
                    f"{timeout:.0f}s"
                )
            time.sleep(poll)

    def events(self, job_id: str,
               timeout: float = 300.0) -> Iterator[Dict[str, Any]]:
        """Stream the job's SSE feed; yields decoded event dicts and
        ends after the final ``event: end`` frame."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=timeout
        )
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raw = response.read()
                try:
                    payload = json.loads(raw.decode("utf-8"))
                except ValueError:
                    payload = raw.decode("utf-8", "replace")
                raise ServiceClientError(response.status, payload)
            ending = False
            while True:
                line = response.readline()
                if not line:
                    return
                text = line.decode("utf-8").rstrip("\r\n")
                if text.startswith("event:"):
                    ending = text.split(":", 1)[1].strip() == "end"
                    continue
                if text.startswith("data:"):
                    yield json.loads(text.split(":", 1)[1].strip())
                    if ending:
                        return
        finally:
            conn.close()

    def healthz(self) -> Dict[str, Any]:
        return self._json("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        return self._json("GET", "/metrics")

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
