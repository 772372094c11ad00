"""Cycle-domain span tracing for the simulator core.

The tracer is a null object by default: :data:`NULL_TRACER` has
``enabled = False``.  The replay kernel (:mod:`repro.core.replay`)
checks that once per run and keeps an armed tracer in a local (None
otherwise), so an untraced run pays one predictable branch at *rare*
event sites only (faults, waits, worker scheduling, evictions) and
nothing at all in the per-block hot path; the image's decode dispatch
checks ``tracer.enabled`` on plaintext-memo misses.
``bench_trace_overhead`` bounds what arming a tracer costs.

Arming is out-of-band on purpose.  A tracer must never ride on
:class:`~repro.core.config.SimulationConfig`: configs are fingerprinted
into store cache keys, and tracing is required to leave results and
fingerprints byte-identical.  Two ways to arm:

* explicitly — ``CodeCompressionManager(cfg, config, tracer=SpanTracer())``;
* ambiently — ``with tracing_scope() as sink: run_grid(...)``; every
  manager constructed inside the scope (interpreting runs and trace
  replays alike — a replay builds the same manager) asks the sink for a
  tracer.

The ambient scope is process-global, mirroring
:func:`repro.faults.runtime.retry_scope`; it does not propagate into
``ParallelExecutor`` worker *processes* (their runs simply stay
untraced — results are identical by construction).

Stall kinds map one-to-one onto the replay kernel's stall charges:

``decompress``
    full fault handler + synchronous fill, and waiting out an in-flight
    pre-decompression;
``patch``
    patch-only faults (Figure 5 steps 5-6);
``mem``
    memory-hierarchy transfer charges (uncompressed-baseline entry
    streaming);
``contention``
    the end-of-run charge for background threads sharing the core.

Invariants (asserted by the unit tests, exactly, on interpreting runs
and trace replays)::

    phases["execute"] == result.execution_cycles
    sum(phases[f"stall_{k}"] for k in STALL_KINDS) == counters.stall_cycles
    phases["execute"] + sum(stall phases) == result.total_cycles
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

#: The stall taxonomy; one entry per kind of stall the replay kernel
#: charges.
STALL_KINDS = ("decompress", "patch", "mem", "contention")


class Tracer:
    """Null-object base: every hook is a no-op and ``enabled`` is False.

    Subclasses that record set ``enabled = True``; core hook sites check
    that one attribute and skip the call entirely when it is False, so
    the disabled tracer costs a single branch per *event* (not per
    block).
    """

    enabled = False

    def stall(
        self, at: int, cycles: int, kind: str, counted: bool
    ) -> None:
        """``cycles`` of synchronous penalty charged at cycle ``at``."""

    def worker_job(
        self,
        worker: str,
        unit_id: int,
        scheduled_at: int,
        started_at: int,
        completes_at: int,
    ) -> None:
        """A new background job was queued on ``worker`` (a request
        for a unit whose job is still queued adds none)."""

    def worker_cancel(self, at: int, worker: str, unit_id: int) -> None:
        """A pending background job was cancelled (work refunded)."""

    def fill(self, at: int, unit_id: int, cycles: int) -> None:
        """``unit_id`` was materialised (decompressed copy created)."""

    def release(
        self, at: int, unit_id: int, reason: str, patches: int
    ) -> None:
        """``unit_id``'s decompressed copy was dropped (evict/recompress)."""

    def decode(self, block_id: int, codec: str, nbytes: int) -> None:
        """The codec actually ran for ``block_id`` (plaintext-memo miss)."""

    def close(self, execution_cycles: int, total_cycles: int) -> None:
        """End of run: record the execution/total cycle tallies."""


#: The shared inert tracer every untraced run uses.
NULL_TRACER = Tracer()


class SpanTracer(Tracer):
    """A recording tracer: per-kind stall aggregation plus raw spans.

    ``keep_spans=False`` keeps only the aggregate phase totals and event
    counts (the cheapest armed mode — what ``bench_trace_overhead``
    measures as the aggregation floor); with spans kept, recording is
    capped at ``span_cap`` entries per stream and ``dropped_spans``
    counts the overflow, so a pathological run cannot exhaust memory.
    """

    enabled = True

    def __init__(
        self,
        program: str = "",
        keep_spans: bool = True,
        span_cap: int = 200_000,
    ) -> None:
        self.program = program
        self.keep_spans = keep_spans
        self.span_cap = span_cap
        self.dropped_spans = 0
        # Aggregates.
        self.stall_cycles_by_kind: Dict[str, int] = {
            kind: 0 for kind in STALL_KINDS
        }
        self.stall_events: Dict[str, int] = {
            kind: 0 for kind in STALL_KINDS
        }
        self.counts: Dict[str, int] = {
            "fills": 0,
            "releases": 0,
            "evictions": 0,
            "decodes": 0,
            "jobs": 0,
            "cancels": 0,
        }
        self.execution_cycles: Optional[int] = None
        self.total_cycles: Optional[int] = None
        # Raw spans (cycle domain).
        #: (start, duration, kind) per synchronous stall.
        self.stall_spans: List[Tuple[int, int, str]] = []
        #: (worker, unit_id, started_at, completes_at) per background job.
        self.worker_spans: List[Tuple[str, int, int, int]] = []
        #: (at, name, detail) instants: evictions, releases, decodes,
        #: fills, cancels.
        self.instants: List[Tuple[int, str, str]] = []

    # -- recording hooks ----------------------------------------------

    def _keep(self, stream: List) -> bool:
        if not self.keep_spans:
            return False
        if len(stream) >= self.span_cap:
            self.dropped_spans += 1
            return False
        return True

    def stall(
        self, at: int, cycles: int, kind: str, counted: bool
    ) -> None:
        self.stall_cycles_by_kind[kind] += cycles
        self.stall_events[kind] += 1
        if cycles and self._keep(self.stall_spans):
            self.stall_spans.append((at, cycles, kind))

    def worker_job(
        self,
        worker: str,
        unit_id: int,
        scheduled_at: int,
        started_at: int,
        completes_at: int,
    ) -> None:
        self.counts["jobs"] += 1
        if self._keep(self.worker_spans):
            self.worker_spans.append(
                (worker, unit_id, started_at, completes_at)
            )

    def worker_cancel(self, at: int, worker: str, unit_id: int) -> None:
        self.counts["cancels"] += 1
        if self._keep(self.instants):
            self.instants.append((at, "cancel", f"{worker}:u{unit_id}"))

    def fill(self, at: int, unit_id: int, cycles: int) -> None:
        self.counts["fills"] += 1
        if self._keep(self.instants):
            self.instants.append((at, "fill", f"u{unit_id}+{cycles}cy"))

    def release(
        self, at: int, unit_id: int, reason: str, patches: int
    ) -> None:
        self.counts["releases"] += 1
        if reason == "evict":
            self.counts["evictions"] += 1
        if self._keep(self.instants):
            self.instants.append(
                (at, reason, f"u{unit_id} patches={patches}")
            )

    def decode(self, block_id: int, codec: str, nbytes: int) -> None:
        self.counts["decodes"] += 1
        # Decodes happen at most once per block per shared artifact set;
        # they are recorded as count + instant, never per-byte.
        if self._keep(self.instants):
            self.instants.append((-1, "decode", f"b{block_id}:{codec}"))

    def close(self, execution_cycles: int, total_cycles: int) -> None:
        self.execution_cycles = execution_cycles
        self.total_cycles = total_cycles

    # -- aggregation ---------------------------------------------------

    def phases(self) -> Dict[str, int]:
        """The per-run phase breakdown with stable keys.

        ``execute`` plus the four ``stall_*`` entries always sum to the
        run's ``total_cycles``; the sum of the stall entries equals
        ``Counters.stall_cycles`` exactly.
        """
        out: Dict[str, int] = {"execute": self.execution_cycles or 0}
        for kind in STALL_KINDS:
            out[f"stall_{kind}"] = self.stall_cycles_by_kind[kind]
        return out

    def stall_total(self) -> int:
        """All synchronous stall cycles seen, across kinds."""
        return sum(self.stall_cycles_by_kind.values())


class TraceSink:
    """Collects one :class:`SpanTracer` per simulated run in a scope.

    Thread-safe: parallel in-process runs (``ParallelExecutor`` in
    thread mode, the service's inner executors) may each request a
    tracer concurrently.
    """

    def __init__(
        self, keep_spans: bool = True, span_cap: int = 200_000
    ) -> None:
        self.keep_spans = keep_spans
        self.span_cap = span_cap
        self.tracers: List[SpanTracer] = []
        self._lock = threading.Lock()

    def tracer_for(self, program: str) -> SpanTracer:
        tracer = SpanTracer(
            program, keep_spans=self.keep_spans, span_cap=self.span_cap
        )
        with self._lock:
            self.tracers.append(tracer)
        return tracer

    def phases(self) -> Dict[str, int]:
        """Summed phase breakdown across every run the sink saw."""
        total: Dict[str, int] = {"execute": 0}
        for kind in STALL_KINDS:
            total[f"stall_{kind}"] = 0
        with self._lock:
            tracers = list(self.tracers)
        for tracer in tracers:
            for key, value in tracer.phases().items():
                total[key] += value
        return total


_ACTIVE_SINK: Optional[TraceSink] = None
_SINK_LOCK = threading.Lock()


@contextmanager
def tracing_scope(
    sink: Optional[TraceSink] = None,
) -> Iterator[TraceSink]:
    """Arm ambient tracing for every manager built inside the scope.

    Yields the sink (a fresh one when not supplied); after the scope the
    previous sink — usually none — is restored.  Scopes are process-wide
    and non-reentrant by design, like ``retry_scope``.
    """
    global _ACTIVE_SINK
    armed = sink if sink is not None else TraceSink()
    with _SINK_LOCK:
        previous = _ACTIVE_SINK
        _ACTIVE_SINK = armed
    try:
        yield armed
    finally:
        with _SINK_LOCK:
            _ACTIVE_SINK = previous


def current_tracer(program: str) -> Tracer:
    """The tracer a new simulation run should use.

    :data:`NULL_TRACER` when no scope is armed — the zero-cost default.
    """
    sink = _ACTIVE_SINK
    if sink is None:
        return NULL_TRACER
    return sink.tracer_for(program)
