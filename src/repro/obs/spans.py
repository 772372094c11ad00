"""Wall-clock span recording for executors, the store, and the service.

The cycle-domain tracer (:mod:`repro.obs.tracer`) explains where a
*simulated* run's cycles go; this module explains where a *sweep's*
wall-clock goes — queue wait, store hit/miss resolution, cell compute,
retry attempts.  Hook sites call :func:`span` (a context manager) or
:func:`span_event` (an instant); both are no-ops costing one global
read when no :class:`SpanRecorder` is armed via :func:`span_scope`.

Recorded spans export to the same Chrome trace-event JSON as the cycle
tracer (:meth:`SpanRecorder.to_chrome`), with wall-clock microseconds as
the time axis and one track per thread.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class SpanRecorder:
    """Thread-safe wall-clock span log with a hard cap.

    Spans are ``(name, cat, start_us, dur_us, thread, args)`` tuples;
    ``dropped`` counts spans discarded once ``cap`` is reached.
    """

    def __init__(self, cap: int = 100_000) -> None:
        self.cap = cap
        self.dropped = 0
        self.spans: List[Dict[str, Any]] = []
        self._lock = threading.Lock()
        self._origin = time.perf_counter()

    def now_us(self) -> int:
        """Microseconds since the recorder was created."""
        return int((time.perf_counter() - self._origin) * 1e6)

    def record(
        self,
        name: str,
        cat: str,
        start_us: int,
        dur_us: int,
        **args: Any,
    ) -> None:
        entry = {
            "name": name,
            "cat": cat,
            "ts": start_us,
            "dur": dur_us,
            "thread": threading.current_thread().name,
            "args": args,
        }
        with self._lock:
            if len(self.spans) >= self.cap:
                self.dropped += 1
                return
            self.spans.append(entry)

    def by_category(self) -> Dict[str, Dict[str, float]]:
        """Aggregate span count and total milliseconds per category."""
        out: Dict[str, Dict[str, float]] = {}
        with self._lock:
            spans = list(self.spans)
        for entry in spans:
            agg = out.setdefault(
                entry["cat"], {"count": 0, "total_ms": 0.0}
            )
            agg["count"] += 1
            agg["total_ms"] += entry["dur"] / 1000.0
        return out

    def to_chrome(self) -> Dict[str, Any]:
        """Chrome trace-event JSON: one track per recording thread."""
        with self._lock:
            spans = list(self.spans)
        threads = {}
        events: List[Dict[str, Any]] = []
        for entry in spans:
            tid = threads.setdefault(entry["thread"], len(threads))
            events.append({
                "name": entry["name"],
                "cat": entry["cat"],
                "ph": "X" if entry["dur"] else "i",
                **({} if entry["dur"] else {"s": "t"}),
                "ts": entry["ts"],
                "dur": entry["dur"],
                "pid": 0,
                "tid": tid,
                "args": entry["args"],
            })
        for name, tid in threads.items():
            events.append({
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": tid,
                "args": {"name": name},
            })
        return {
            "traceEvents": events,
            "metadata": {
                "dropped": self.dropped,
                "unit": "wall-clock microseconds",
            },
        }


_ACTIVE: Optional[SpanRecorder] = None
_LOCK = threading.Lock()


def current_recorder() -> Optional[SpanRecorder]:
    """The armed recorder, or None (the common, free case)."""
    return _ACTIVE


@contextmanager
def span_scope(
    recorder: Optional[SpanRecorder] = None,
) -> Iterator[SpanRecorder]:
    """Arm wall-clock span recording for the dynamic extent."""
    global _ACTIVE
    armed = recorder if recorder is not None else SpanRecorder()
    with _LOCK:
        previous = _ACTIVE
        _ACTIVE = armed
    try:
        yield armed
    finally:
        with _LOCK:
            _ACTIVE = previous


@contextmanager
def span(name: str, cat: str = "exec", **args: Any) -> Iterator[None]:
    """Record a wall-clock span around the body (no-op when unarmed)."""
    recorder = _ACTIVE
    if recorder is None:
        yield
        return
    start = recorder.now_us()
    try:
        yield
    finally:
        recorder.record(
            name, cat, start, recorder.now_us() - start, **args
        )


def span_event(name: str, cat: str = "event", **args: Any) -> None:
    """Record an instant event (no-op when unarmed)."""
    recorder = _ACTIVE
    if recorder is None:
        return
    recorder.record(name, cat, recorder.now_us(), 0, **args)
