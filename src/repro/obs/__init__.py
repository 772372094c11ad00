"""repro.obs — zero-dependency observability for the simulator stack.

Three layers, all opt-in and all provably inert when unused:

* **Cycle-domain span tracing** (:mod:`repro.obs.tracer`): an opt-in
  :class:`Tracer` receives structured events from the replay kernel
  (:mod:`repro.core.replay`) — its stall charges, background-worker
  jobs and cancellations, unit fills, releases and evictions — and from
  per-block codec decode dispatch.  The default is :data:`NULL_TRACER`
  (``enabled`` is False); every hook is a single check, and the
  per-block hot path has no hook at all.  Arm it per run with
  ``CodeCompressionManager(..., tracer=SpanTracer())`` or ambiently for
  a whole sweep with :func:`tracing_scope`.
* **Wall-clock span recording** (:mod:`repro.obs.spans`): the
  executors, the caching store layer, and the sweep service emit
  per-cell spans (queue wait, store hit/miss, compute, retry attempts)
  into an ambient :class:`SpanRecorder` when one is armed via
  :func:`span_scope`.
* **Export** (:mod:`repro.obs.chrome`, :mod:`repro.obs.prometheus`):
  Chrome trace-event JSON (loadable in Perfetto / ``chrome://tracing``)
  for both domains, and Prometheus text exposition for the service
  metrics snapshot.

Tracing never changes simulation results: phase data rides on
``SimulationResult.phases`` (excluded from ResultSet serialisation and
store fingerprints), and the byte-identity of traced vs. untraced
sweeps is pinned by integration tests.
"""

from .chrome import chrome_trace, chrome_trace_json, sink_chrome_trace
from .prometheus import render_prometheus
from .spans import SpanRecorder, current_recorder, span, span_event, span_scope
from .tracer import (
    NULL_TRACER,
    STALL_KINDS,
    SpanTracer,
    TraceSink,
    Tracer,
    current_tracer,
    tracing_scope,
)

__all__ = [
    "NULL_TRACER",
    "STALL_KINDS",
    "SpanRecorder",
    "SpanTracer",
    "TraceSink",
    "Tracer",
    "chrome_trace",
    "chrome_trace_json",
    "current_recorder",
    "current_tracer",
    "render_prometheus",
    "sink_chrome_trace",
    "span",
    "span_event",
    "span_scope",
    "tracing_scope",
]
