"""The replay kernel: the runtime's one per-block state machine.

Every run ends up here.  The manager hands over the run's block trace —
the one an interpreting run just executed, or a recorded trace a sweep
replays — as :class:`~repro.runtime.trace_sim.ReplayPlan`
objects (flat per-step arrays): one for a trace replay, one per segment
for an interpreting run, which interprets each segment as the kernel
reaches it.  The kernel runs the paper's runtime over the whole trace
in a single loop with all hot state in locals: the prologue (first
footprint sample, program-start prefetches, the entry fetch), then per
block the entry, k-edge expiry, pre-decompression requests and the
next block's fetch — full faults, patch faults and waits for in-flight
pre-decompressions — and finally the end-of-run contention charge.  It
covers every strategy family the paper studies: on-demand faults,
pre-decompress-all and pre-decompress-single (the decompression
worker's FIFO, with the policy's own ``on_edge``/``on_block_exit``/
``last_choice`` hooks and the prediction-accuracy bookkeeping), memory
budgets (victims chosen by the
:class:`~repro.strategies.budget.MemoryBudget` itself, over its own
recency dicts), the event log and span tracing.  Policies the kernel
does not know (injected ablation policies, plug-in strategies) are
driven through their generic
:class:`~repro.strategies.base.CompressionPolicy` and
:class:`~repro.strategies.base.DecompressionPolicy` hooks.

k-edge expiry runs on deadlines.  Section 5's counter goes up by one at
every branch for every decompressed unit but the branch's destination,
and resets when the unit executes; so it is the number of steps since
the unit's last reset, and a unit last reset at step ``s`` expires on
the tick after step ``s + k - 1`` unless it resets again first or is
that tick's destination.  A prefetched unit resets as if it entered at
the step after its fill.  A tick therefore checks only the units last
reset k - 1 steps earlier: the one entered then, read off the plan, and
those prefetched for that step; expiries of one tick release in unit-id
order.  The counters themselves are derived once, at the end of the
run.  No step walks the resident set.

The manager tries two entry points in turn.  :func:`try_batched_replay`
takes on-demand runs without a budget, an event log or a policy it
does not know (:func:`sharing_envelope`), the runs that may share
decisions (below); :func:`try_stepped_replay` takes every other run.
Both run the same loop.

Trace replays on the paper's unbounded separate-area image track the
decompressed area's footprint arithmetically and settle the allocator
once at the end (:meth:`~repro.memory.image.SeparateAreaImage.absorb_replay`).
Interpreting runs, the in-place image and bounded areas drive the live
allocator block by block instead, so its layout (holes, address space,
relocations) is the real one.

Decision sharing.  Inside :func:`sharing_envelope` a trace replay's
fills, releases and patches depend only on its plan (trace and
granularity), k and ``fault_cycles``; the codec, assignment, hierarchy,
``patch_cycles`` and ``contention`` only price them.  The first such
replay of a key on the arithmetic separate area with the tracer off
charges itself inline, logs its fills and releases and publishes the
log and end state on the plan (:class:`_Decisions`).  Later replays of
the key run only the priced half of the same fill and release code over
the log, on their own clocks: first decodes in fault order, traffic,
patch-back jobs, footprint samples and ready times; counters, resident
set, remember sets, k-edge counters and used-since flags are copied
from the pass.  Every other run charges inline and never touches the
memo, which dies with its plan (at most 48 bytes of log per step).

Exactness is the contract: ``tests/oracle/`` keeps a frozen copy of the
layered per-block loop this kernel replaced, and the differential
suites pin kernel == oracle cell by cell — metrics, events, tracer
spans and allocator state, and ``test_shared_decisions.py`` holds
every replay that reuses a decision pass to the cell replayed alone.
"""

from __future__ import annotations

from array import array
from collections import deque
from typing import TYPE_CHECKING, Optional

from ..memory.image import SeparateAreaImage
from ..runtime.events import EventKind
from ..runtime.trace_sim import entry_charges
from ..strategies.base import DecompressionPolicy
from ..strategies.kedge import KEdgeCompression, NeverRecompress
from ..strategies.ondemand import OnDemandDecompression
from ..strategies.predecompress import PreDecompressAll, PreDecompressSingle

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .manager import CodeCompressionManager

#: Built-in policies the kernel handles directly: k-edge counters run
#: as deadlines and the decompression policies read only their own
#: state, the static CFG and the live residency map.  Any other policy
#: is driven through its generic hooks, and the manager's edge profile
#: is then kept live for it to read.
_DECOMPRESSION_POLICIES = (
    OnDemandDecompression, PreDecompressAll, PreDecompressSingle,
)
_COMPRESSION_POLICIES = (KEdgeCompression, NeverRecompress)

_BLOCK_ENTER = EventKind.BLOCK_ENTER
_FAULT = EventKind.FAULT
_DECOMPRESS_START = EventKind.DECOMPRESS_START
_DECOMPRESS_DONE = EventKind.DECOMPRESS_DONE
_STALL = EventKind.STALL
_RECOMPRESS = EventKind.RECOMPRESS
_PATCH = EventKind.PATCH
_EVICT = EventKind.EVICT
_PREDICT = EventKind.PREDICT


def sharing_envelope(manager: "CodeCompressionManager") -> Optional[str]:
    """The first condition that keeps a run off the batched path, whose
    trace replays may share decision passes: ``predecompress`` (the
    policy queues background decompressions), ``budget`` (a memory
    budget), ``events`` (an event log) or ``policy`` (a compression or
    decompression policy the kernel drives through its generic hooks).
    None when :func:`try_batched_replay` can take it."""
    if manager.decompression.uses_thread:
        return "predecompress"
    if manager.residency.budget is not None:
        return "budget"
    if manager.log.enabled:
        return "events"
    if _generic(manager):
        return "policy"
    return None


def try_batched_replay(manager: "CodeCompressionManager") -> bool:
    """Replay the manager's whole trace, sharing decision passes where
    it can.

    Returns True when the trace was replayed; False when the run is
    outside :func:`sharing_envelope` — the caller then runs
    :func:`try_stepped_replay`.  Either way ``manager.replay_declined``
    records the condition (None when this path ran).
    """
    declined = sharing_envelope(manager)
    manager.replay_declined = declined
    if declined is not None:
        return False
    manager.replay_path = "batched"
    _replay(manager, shared=True)
    return True


def try_stepped_replay(manager: "CodeCompressionManager") -> bool:
    """Replay the manager's whole trace one block at a time: every run
    the batched path declines.  Always takes the run (returns True);
    ``replay_declined`` keeps the condition that declined the batched
    path."""
    manager.replay_path = "stepped"
    _replay(manager, shared=False)
    return True


def _generic(manager) -> bool:
    """True when a policy is not one the kernel knows: its generic hooks
    then run every step, and the manager's edge profile (part of the
    policies' ManagerView) is recorded live instead of in bulk."""
    return type(manager.compression) not in _COMPRESSION_POLICIES \
        or type(manager.decompression) not in _DECOMPRESSION_POLICIES


def _event_sink(log):
    """``(fields, append, room)``: the log's flat field list, its
    ``extend`` (None when the log is off), which appends one event's
    four fields unchecked, and the length that fills its capacity.  A
    step that finds the list past ``room`` trims it, and so does the
    end of the run: the log keeps what ``EventLog.emit`` would keep."""
    if not log.enabled:
        return None, None, 0
    fields = log._flat
    return fields, fields.extend, 4 * log.capacity


def _edge_hook(policy: DecompressionPolicy):
    """``policy.on_edge`` when its class overrides the no-op default."""
    if type(policy).on_edge is DecompressionPolicy.on_edge:
        return None
    return policy.on_edge


class _Plans:
    """The run's replay plans, pulled in order, and the run-wide
    aggregates the kernel charges in bulk.

    A trace replay is one plan; a long interpreting run is one plan per
    segment, interpreted as the kernel pulls it.  The aggregates merge
    the plans' own plus each edge across a segment boundary, in
    first-occurrence order: what one plan over the whole trace holds.
    """

    __slots__ = ("_source", "first", "_last", "steps", "total_cycles",
                 "edges", "visits", "entered")

    def __init__(self, source) -> None:
        self._source = source
        self.first: Optional[int] = None
        self._last: Optional[int] = None
        self.steps = 0
        self.total_cycles = 0
        #: (src, dst) -> traversal count.
        self.edges = {}
        #: block id -> entry count.
        self.visits = {}
        #: Distinct entered units (keys).
        self.entered = {}

    def pull(self):
        """The next plan, or None once the trace is exhausted."""
        plan = next(self._source, None)
        if plan is None:
            return None
        trace = plan.trace
        edges = self.edges
        if self._last is None:
            self.first = trace[0]
        else:
            edge = (self._last, trace[0])
            edges[edge] = edges.get(edge, 0) + 1
        self._last = trace[-1]
        for edge, count in plan.edge_items:
            edges[edge] = edges.get(edge, 0) + count
        visits = self.visits
        for block_id, count in plan.block_visits.items():
            visits[block_id] = visits.get(block_id, 0) + count
        self.entered.update(dict.fromkeys(plan.entered_units))
        self.steps += len(trace)
        self.total_cycles += plan.total_cycles
        return plan


def _replay(manager, shared: bool) -> None:
    residency = manager.residency
    plans = _Plans(manager.plans)
    tracer = manager.tracer if manager.tracer.enabled else None
    generic = _generic(manager)
    residency.footprint.record(manager.now, residency.footprint_bytes())
    if residency.image is None:
        now = _replay_uncompressed(manager, plans, tracer, generic)
    else:
        now = _replay_compressed(manager, plans, tracer, generic, shared)
    manager.log.trim()
    if not generic:
        profile = manager.profile
        profile.record_entry(plans.first)
        for (src, dst), count in plans.edges.items():
            profile.record_edge(src, dst, count)

    # ---- end of run: settle the clock ----------------------------
    counters = manager.counters
    dworker = manager.decompress_worker
    cworker = manager.compress_worker
    manager.execution_cycles += plans.total_cycles
    # Contention models a shared single-issue core: a configured
    # fraction of every busy background cycle is charged to the
    # execution thread, as one final stall-cycle block.
    contention = dworker.contention_cycles() + cworker.contention_cycles()
    if contention:
        if tracer is not None:
            tracer.stall(now, contention, "contention", False)
        now += contention
        counters.stall_cycles += contention
    counters.background_compress_cycles = cworker.busy_cycles
    manager.now = now
    residency.footprint.record(now, residency.footprint_bytes())


def _replay_uncompressed(manager, plans, tracer, generic: bool) -> int:
    """Uncompressed baseline (``decompression="none"``): no image, no
    faults, no releases.  Every entry streams the block from the target
    memory; the replay reduces to aggregate sums unless something needs
    each step (events, tracing, a budget's recency, generic policies).
    Returns the final clock."""
    residency = manager.residency
    prepared = manager.prepared
    if prepared is not None:
        read_bytes, read_cycles = prepared.entry_charges(
            manager.config.hierarchy, residency.hierarchy
        )
    else:
        read_bytes, read_cycles = entry_charges(
            manager.cfg, residency.hierarchy
        )
    compression = manager.compression
    kcount = (
        compression._counters
        if type(compression) is KEdgeCompression else None
    )
    on_enter = (
        compression.on_unit_enter
        if type(compression) not in _COMPRESSION_POLICIES else None
    )
    observe = _edge_hook(manager.decompression)
    logged, emit, room = _event_sink(manager.log)
    budget = residency.budget
    now = manager.now
    stepped = emit is not None or tracer is not None \
        or budget is not None or generic or observe is not None
    if stepped:
        profile = manager.profile
        if budget is not None:
            last_use = budget._last_use
            bclock = budget._clock
        prev = None
        plan = plans.pull()
        if generic:
            profile.record_entry(plan.trace[0])
        while plan is not None:
            usteps = plan.unit_steps
            cycles = plan.cycles
            for pos, block_id in enumerate(plan.trace):
                if prev is not None:
                    # The edge from the previous block (possibly across
                    # a segment boundary).
                    if generic:
                        profile.record_edge(prev, block_id)
                    if observe is not None:
                        observe(prev, block_id)
                prev = block_id
                unit = usteps[pos]
                if emit is not None:
                    if len(logged) > room:
                        manager.log.trim()
                    emit((now, _BLOCK_ENTER, block_id, 0))
                if budget is not None:
                    bclock += 1
                    last_use[unit] = bclock
                if on_enter is not None:
                    on_enter(unit)
                stall = read_cycles[block_id]
                if stall:
                    if tracer is not None:
                        tracer.stall(now, stall, "mem", False)
                    now += stall
                now += cycles[pos]
            plan = plans.pull()
        if budget is not None:
            budget._clock = bclock
    else:
        while plans.pull() is not None:
            pass

    bytes_total = 0
    stall_total = 0
    for block_id, count in plans.visits.items():
        bytes_total += read_bytes[block_id] * count
        stall_total += read_cycles[block_id] * count
    if not stepped:
        now += plans.total_cycles + stall_total
    counters = manager.counters
    counters.blocks_executed += plans.steps
    counters.target_memory_bytes += bytes_total
    counters.target_memory_accesses += plans.steps
    counters.stall_cycles += stall_total

    used_since = residency._used_since_decompress
    for unit_id in plans.entered:
        used_since[unit_id] = True
        if kcount is not None:
            # No unit is ever resident, so the edge loop never
            # increments: every entered unit ends reset at zero.
            kcount[unit_id] = 0
    return now


class _Decisions:
    """A decision pass over a plan: its log and a copy of its end state.

    ``log`` holds flat ``(unit, clock, patched)`` triples, one per fill
    (``patched`` = -1) or release (the branch sites it patched back) in
    run order, on the deciding replay's clock; a reusing replay adds
    its fill latency minus the decider's (``geometry``) so far.  A step
    fills at most one unit and, with no prefetches, its k-edge tick
    releases at most one (the unit entered k - 1 steps earlier), so a
    log holds at most two events per step, 48 bytes once the first
    reuse compacts it to ``array('q')``.  ``tallies`` are the decider's
    totals.
    """

    __slots__ = ("log", "tallies", "geometry", "used_since", "counters",
                 "site_target", "by_target")

    def __init__(self, log, tallies, geometry, residency, kcount) -> None:
        self.log = log
        self.tallies = tallies
        self.geometry = geometry
        self.used_since = dict(residency._used_since_decompress)
        self.counters = None if kcount is None else dict(kcount)
        self.site_target = dict(residency.site_target)
        self.by_target = {
            target: set(sites)
            for target, sites in residency.by_target.items()
        }

    def restore(self, residency, kcount) -> None:
        """Give a replay its own copy of the pass's end state."""
        residency._used_since_decompress.update(self.used_since)
        residency.site_target.update(self.site_target)
        residency.by_target.update(
            (target, set(sites)) for target, sites in self.by_target.items()
        )
        if kcount is not None:
            kcount.update(self.counters)


def _replay_compressed(manager, plans, tracer, generic: bool,
                       shared: bool) -> int:
    """Compressed image: the full fault/prefetch/release/eviction/patch
    state machine, flattened.  ``shared`` (inside
    :func:`sharing_envelope` only) lets a trace replay share decisions
    (see the module docstring).  Returns the final clock."""
    residency = manager.residency
    config = manager.config
    image = residency.image
    plan = plans.pull()
    trace = plan.trace
    usteps = plan.unit_steps
    cycles = plan.cycles
    n = len(trace)
    # Steps of the run before the current plan's first.
    base = 0
    geometry = residency.replay_geometry()
    unit_of = residency._unit_of
    # Trace replays on the paper's unbounded separate area track the
    # footprint arithmetically; everything else drives the allocator.
    arithmetic = manager.engine == "trace" \
        and type(image) is SeparateAreaImage \
        and image.allocator.capacity is None

    compression = manager.compression
    kcount = k = None
    on_enter = on_expire = on_decompressed = on_released = None
    if type(compression) is KEdgeCompression:
        k = compression.k
        kcount = compression._counters
    elif type(compression) is not NeverRecompress:
        on_enter = compression.on_unit_enter
        on_expire = compression.on_edge
        on_decompressed = compression.on_unit_decompressed
        on_released = compression.on_unit_released
    # k-edge deadlines: until the end of the run ``kcount`` maps each
    # resident unit to its last reset step, counted from the current
    # plan's first step.  ``fills`` holds the units whose reset step the
    # plan does not show (reset step -> units): prefetched units, and
    # after a segment boundary the units reset before it.
    fills = {}
    profile = manager.profile if generic else None

    # Pre-decompression: the policy's own hooks pick the targets.
    decompression = manager.decompression
    pre = decompression.uses_thread
    on_exit = decompression.on_block_exit
    observe = _edge_hook(decompression)
    # Per-edge observers: a generic policy's live profile, on_edge.
    watched = profile is not None or observe is not None
    predicting = pre and hasattr(decompression, "last_choice")
    pending_preds = deque()
    k_dec = config.k_decompress
    max_backlog = config.max_prefetch_backlog

    budget = residency.budget
    if budget is not None:
        select_victims = budget.select_victims
        size_of = residency.unit_uncompressed_size
        last_use = budget._last_use
        resident_since = budget._resident_since
        bclock = budget._clock
    else:
        last_use = resident_since = None
        bclock = 0

    logged, emit, room = _event_sink(manager.log)
    # Per-entry work beyond the residency flags and k-edge reset.
    extras = emit is not None or budget is not None or predicting \
        or on_enter is not None
    # Per-fill and per-release work for spans, hooks, budget, events.
    hooked = tracer is not None or on_released is not None \
        or budget is not None or emit is not None

    ready = residency._ready_at
    used_since = residency._used_since_decompress
    # Remember sets, keyed by block id: a block's branch site is its
    # terminator.
    site_target = residency.site_target
    by_target = residency.by_target
    fp_cycles = residency.footprint._cycles
    fp_values = residency.footprint._values
    base_size = image.compressed_image_size
    used = image.allocator.used_bytes
    fault_cycles = config.fault_cycles
    patch_cycles = config.patch_cycles

    # Units whose payloads this run has decoded (or found in the shared
    # memo): the executed path must still fail on undecodable payloads.
    decoded = set()

    # Follow the plan's decision pass for this key, or record one.
    decisions = record = memo = key = None
    if shared and arithmetic and tracer is None and not ready \
            and not kcount:
        memo = plan.decisions
        key = (k, fault_cycles)
        decisions = memo.get(key)
        if decisions is None:
            record = []
    following = decisions is not None

    # The decompression worker's FIFO: ``unit -> [latency, scheduled_at,
    # started_at, completes_at]``.  A job scheduled at ``t`` starts when
    # the worker is free; cancelling refunds unperformed work and
    # re-chains the jobs queued behind it.  The compression worker's
    # FIFO holds ``unit -> completes_at``: nothing cancels patch jobs.
    dworker = manager.decompress_worker
    d_pending = {}
    d_free = dworker.free_at
    d_busy = d_done = d_cancelled = 0
    cworker = manager.compress_worker
    w_pending = {}
    w_free = cworker.free_at
    w_busy = w_done = 0

    now = manager.now
    stall_cycles = 0
    stalls = 0
    faults = 0
    decompressions = 0
    recompressions = 0
    patches = 0
    wasted = 0
    evictions = 0
    predictions = 0
    correct = 0
    dropped = 0
    background = 0
    tmem_bytes = 0
    tmem_accesses = 0
    img_rel = 0

    # ---- fills and releases: a decision half, skipped when following
    # a decision pass, and a half priced by this replay's own clock.

    def materialise(unit, now):
        """Give ``unit`` a decompressed copy and sample the footprint;
        returns the unit's geometry."""
        nonlocal tmem_bytes, tmem_accesses, decompressions, used, bclock
        geo = geometry[unit]
        if not arithmetic:
            for rb in geo[4]:
                image.decompress(rb)
                # Materialise the actual bytes: an undecodable payload
                # must fail on the executed path.  The shared memo
                # bounds this to one decode per block per artifact set.
                image.block_data(rb)
        elif unit not in decoded:
            for rb in geo[4]:
                image.block_data(rb)
            decoded.add(unit)
        tmem_bytes += geo[2]
        used += geo[0]
        value = base_size + used if arithmetic else image.footprint_bytes
        if fp_cycles and fp_cycles[-1] == now:
            fp_values[-1] = value
        else:
            fp_cycles.append(now)
            fp_values.append(value)
        if following:
            return geo
        if record is not None:
            record.extend((unit, now, -1))
        tmem_accesses += geo[3]
        decompressions += 1
        used_since[unit] = False
        if hooked:
            if tracer is not None:
                tracer.fill(now, unit, geo[1])
            if on_decompressed is not None:
                on_decompressed(unit)
            if resident_since is not None:
                bclock += 1
                resident_since[unit] = bclock
                last_use.setdefault(unit, bclock)
        return geo

    def release(unit, reason, now, patched=None):
        """Drop ``unit``'s copy: cancel its prefetch (refund + re-chain),
        patch back its remember sets on the compression worker, and
        sample the footprint.  ``patched`` comes from a decision log."""
        nonlocal d_free, d_busy, d_cancelled, w_free, w_busy, w_done
        nonlocal patches, recompressions, wasted, used, img_rel
        del ready[unit]
        geo = geometry[unit]
        if patched is None:
            job = d_pending.pop(unit, None) if d_pending else None
            if job is not None:
                if tracer is not None:
                    tracer.worker_cancel(now, "decompression", unit)
                d_cancelled += 1
                d_busy -= job[0] if job[2] >= now else max(0, job[3] - now)
                # Start times rise in queue order: the jobs already
                # started come first, then the re-chained ones.
                cursor = now
                for other in d_pending.values():
                    if other[2] < now:
                        if other[3] > cursor:
                            cursor = other[3]
                    else:
                        other[2] = cursor if cursor > other[1] else other[1]
                        cursor = other[3] = other[2] + other[0]
                d_free = cursor
            if not arithmetic:
                for rb in geo[4]:
                    if image.is_resident(rb):
                        image.release(rb)
            patched = 0
            for rb in geo[4]:
                tset = by_target.pop(rb, None)
                if tset:
                    for s in tset:
                        del site_target[s]
                    patched += len(tset)
                tt = site_target.pop(rb, None)
                if tt is not None:
                    by_target[tt].discard(rb)
            patches += patched
            recompressions += 1
            if not used_since.pop(unit, True):
                wasted += 1
            if kcount is not None:
                kcount.pop(unit, None)
            if hooked:
                if tracer is not None:
                    tracer.release(now, unit, reason.name.lower(),
                                   patched)
                if on_released is not None:
                    on_released(unit)
                if resident_since is not None:
                    resident_since.pop(unit, None)
                if emit is not None:
                    emit((now, reason, unit, patched))
            if record is not None:
                record.extend((unit, now, patched))
            img_rel += geo[3]
        # Patching runs on the compression worker.  A unit whose patch
        # job is still queued keeps that job.
        if unit not in w_pending:
            latency = patch_cycles * patched
            started = w_free if w_free > now else now
            w_free = started + latency
            w_busy += latency
            w_pending[unit] = w_free
            if tracer is not None:
                tracer.worker_job("compression", unit, now, started,
                                  w_free)
        if w_free <= now:
            # Nothing cancels patch jobs, so the last one finishes
            # last: all of them are done.
            w_done += len(w_pending)
            w_pending.clear()
        else:
            done = [uu for uu, done_at in w_pending.items()
                    if done_at <= now]
            for uu in done:
                del w_pending[uu]
            w_done += len(done)
        used -= geo[0]
        value = base_size + used if arithmetic else image.footprint_bytes
        if fp_cycles and fp_cycles[-1] == now:
            fp_values[-1] = value
        else:
            fp_cycles.append(now)
            fp_values.append(value)

    def evict(unit, protected, now):
        """Release budget victims so ``unit`` fits (BudgetError
        propagates); ``protected`` units are never chosen."""
        nonlocal evictions
        for victim in select_victims(
            needed_bytes=size_of(unit),
            current_footprint=(
                base_size + used if arithmetic else image.footprint_bytes
            ),
            resident=ready.keys(),
            protected=protected,
            size_of=size_of,
        ):
            release(victim, _EVICT, now)
            evictions += 1

    def prefetch(targets, protected, now, reset, entering):
        """Queue each target's unit on the decompression worker, shedding
        requests past the backlog limit (a shed block faults on demand
        if reached).  ``protected`` is the running block's unit, or
        None before the first block.  A filled unit's k-edge counter
        starts as if it entered at step ``reset``, when unit
        ``entering`` does enter."""
        nonlocal d_free, d_busy, background, dropped
        filled = None
        for target in targets:
            tu = unit_of[target]
            if tu in ready:
                continue
            if len(d_pending) >= max_backlog:
                dropped += 1
                continue
            if budget is not None:
                evict(tu, {tu} if protected is None else {protected, tu},
                      now)
            latency = materialise(tu, now)[1]
            if kcount is not None:
                kcount[tu] = reset
                # The entering unit's entry deadline covers it.
                if tu != entering:
                    if filled is None:
                        filled = fills[reset] = [tu]
                    else:
                        filled.append(tu)
            started = d_free if d_free > now else now
            d_free = started + latency
            d_busy += latency
            d_pending[tu] = [latency, now, started, d_free]
            background += latency
            if tracer is not None:
                tracer.worker_job("decompression", tu, now, started,
                                  d_free)
            # The ready clock keeps the schedule-time completion even if
            # a cancellation later re-chains the job.
            ready[tu] = d_free
            if emit is not None:
                emit((now, _DECOMPRESS_START, tu, 0))

    if decisions is not None:
        # ---- reuse the plan's decision pass: charge only this clock ----
        manager.replay_shared = True
        (faults, decompressions, recompressions, patches, wasted,
         tmem_accesses, stall_cycles, stalls, img_rel, now) = \
            decisions.tallies
        # This clock is the deciding replay's plus ``lag``: the
        # difference between the two runs' fill latencies so far.
        lead = decisions.geometry
        lag = 0
        log = decisions.log
        if type(log) is list:
            decisions.log = log = array("q", log)
        events = iter(log)
        for unit, clock, patched in zip(events, events, events):
            at = clock + lag
            if patched < 0:
                latency = materialise(unit, at)[1]
                lag += latency - lead[unit][1]
                ready[unit] = at + fault_cycles + latency
            else:
                release(unit, None, at, patched)
        now += lag
        stall_cycles += lag
        decisions.restore(residency, kcount)
    else:
        # ---- prologue: program-start prefetches, then the entry fetch ----
        if pre:
            prefetch(decompression.on_program_start(trace[0]), None, now,
                     0, usteps[0])
        u = usteps[0]
        if u not in ready:
            # A full fault; no branch led here, so nothing is patched.
            faults += 1
            if emit is not None:
                emit((now, _FAULT, trace[0], 0))
            if budget is not None:
                evict(u, {u}, now)
            stall = fault_cycles + materialise(u, now)[1]
            if tracer is not None:
                tracer.stall(now, stall, "decompress", True)
            now += stall
            stall_cycles += stall
            stalls += 1
            ready[u] = now
            if emit is not None:
                emit((now, _DECOMPRESS_DONE, u, stall))
        elif pre and ready[u] > now:
            # Its program-start prefetch is still in flight.
            waited = ready[u] - now
            if tracer is not None:
                tracer.stall(now, waited, "decompress", True)
            now += waited
            stall_cycles += waited
            stalls += 1
            if emit is not None:
                emit((now, _STALL, trace[0], waited))
        if profile is not None:
            profile.record_entry(trace[0])

        pos = 0
        while True:
            # ---- one per-block step: enter, execute -----------------
            b = trace[pos]
            u = usteps[pos]
            if extras:
                if emit is not None:
                    if len(logged) > room:
                        manager.log.trim()
                    emit((now, _BLOCK_ENTER, b, 0))
                if last_use is not None:
                    bclock += 1
                    last_use[u] = bclock
                if on_enter is not None:
                    on_enter(u)
                if pending_preds:
                    # Did a pending prediction come true within its window?
                    for index, (predicted, _expires) in enumerate(
                        pending_preds
                    ):
                        if predicted == b:
                            correct += 1
                            del pending_preds[index]
                            break
                    entered = base + pos + 1
                    while pending_preds and pending_preds[0][1] <= entered:
                        pending_preds.popleft()
            used_since[u] = True
            if kcount is not None:
                kcount[u] = pos
            now += cycles[pos]
            pos += 1
            if d_pending:
                # Retire the decompression jobs finished by now (FIFO: the
                # queue drains by ``d_free``).  Completion times rise in
                # queue order, and a cancellation's re-chain keeps that
                # order, so the finished jobs are a prefix.
                if d_free <= now:
                    d_done += len(d_pending)
                    d_pending.clear()
                else:
                    # The last job finishes at ``d_free``, after now.
                    while True:
                        uu = next(iter(d_pending))
                        if d_pending[uu][3] > now:
                            break
                        del d_pending[uu]
                        d_done += 1
            if pos == n:
                # Move on to the next segment, if any (a long interpreting
                # run interprets it now).
                plan = plans.pull()
                if plan is None:
                    break
                if kcount is not None:
                    # Count reset steps from the new plan's first step;
                    # every resident unit's deadline moves to ``fills``.
                    fills = {}
                    for ru in kcount:
                        reset = kcount[ru] = kcount[ru] - n
                        fills.setdefault(reset, []).append(ru)
                base += n
                trace = plan.trace
                usteps = plan.unit_steps
                cycles = plan.cycles
                n = len(trace)
                pos = 0
            nb = trace[pos]
            nu = usteps[pos]
            if watched:
                if profile is not None:
                    profile.record_edge(b, nb)
                if observe is not None:
                    observe(b, nb)

            # ---- k-edge expiry: units last reset at step ``due`` --------
            if kcount is not None:
                due = pos - k
                cu = usteps[due] if due >= 0 else -1
                if fills and due in fills:
                    # In unit-id order; a release drops the unit's reset
                    # step, so a unit listed twice goes once.
                    expired = fills.pop(due)
                    expired.append(cu)
                    expired.sort()
                    for ru in expired:
                        if ru != nu and kcount.get(ru) == due:
                            release(ru, _RECOMPRESS, now)
                elif cu != nu and kcount.get(cu) == due:
                    release(cu, _RECOMPRESS, now)
            elif on_expire is not None:
                for ru in on_expire(u, nu):
                    assert ru != nu, (
                        "compression policy tried to release the "
                        "destination unit"
                    )
                    if ru in ready:
                        release(ru, _RECOMPRESS, now)

            # ---- pre-decompression requests ---------------------------
            if pre:
                targets = on_exit(b)
                if predicting:
                    choice = decompression.last_choice
                    if choice is not None:
                        predictions += 1
                        pending_preds.append(
                            (choice, base + pos + k_dec + 1)
                        )
                        if emit is not None:
                            emit((now, _PREDICT, choice, 0))
                if targets:
                    prefetch(targets, u, now, pos, nu)

            # ---- ensure the next block is executable ----------------
            if nu not in ready:
                # Full fault: handler + synchronous decompression.
                faults += 1
                if emit is not None:
                    emit((now, _FAULT, nb, 0))
                if budget is not None:
                    evict(nu, {u, nu}, now)
                stall = fault_cycles + materialise(nu, now)[1]
                if tracer is not None:
                    tracer.stall(now, stall, "decompress", True)
                now += stall
                stall_cycles += stall
                stalls += 1
                ready[nu] = now
                if emit is not None:
                    emit((now, _DECOMPRESS_DONE, nu, stall))
            else:
                if pre:
                    waited = ready[nu] - now
                    if waited > 0:
                        # Its pre-decompression is still in flight.
                        if tracer is not None:
                            tracer.stall(now, waited, "decompress", True)
                        now += waited
                        stall_cycles += waited
                        stalls += 1
                        if emit is not None:
                            emit((now, _STALL, nb, waited))
                if u in ready and site_target.get(b) == nb:
                    continue
                # Patch fault: copy exists, branch still aims at the
                # compressed area.
                faults += 1
                if tracer is not None:
                    tracer.stall(now, fault_cycles, "patch", False)
                now += fault_cycles
                stall_cycles += fault_cycles
                if u not in ready:
                    # The branch's own block was released: nothing to patch.
                    if emit is not None:
                        emit((now, _PATCH, nb, 0))
                    continue
            if u in ready:
                # The branch site that got us here (``b``'s terminator)
                # gets patched.
                previous = site_target.get(b)
                if previous != nb:
                    if previous is not None:
                        by_target[previous].discard(b)
                    referrers = by_target.get(nb)
                    if referrers is None:
                        by_target[nb] = {b}
                    else:
                        referrers.add(b)
                    site_target[b] = nb
                patches += 1
                if emit is not None:
                    emit((now, _PATCH, nb, 0))

    # ---- settle shared state ------------------------------------
    counters = manager.counters
    counters.blocks_executed += plans.steps
    counters.faults += faults
    counters.decompressions += decompressions
    counters.recompressions += recompressions
    counters.patches += patches
    counters.wasted_decompressions += wasted
    counters.evictions += evictions
    counters.predictions += predictions
    counters.correct_predictions += correct
    counters.dropped_prefetches += dropped
    counters.background_decompress_cycles += background
    counters.target_memory_bytes += tmem_bytes
    counters.target_memory_accesses += tmem_accesses
    counters.stall_cycles += stall_cycles
    counters.stalls += stalls
    dworker.free_at = d_free
    dworker.busy_cycles += d_busy
    dworker.jobs_completed += d_done
    dworker.jobs_cancelled += d_cancelled
    cworker.free_at = w_free
    cworker.busy_cycles += w_busy
    cworker.jobs_completed += w_done
    if budget is not None:
        budget._clock = bclock
    if arithmetic:
        resident_blocks = []
        for unit_id in ready:
            resident_blocks.extend(geometry[unit_id][4])
        image.absorb_replay(sorted(resident_blocks), tmem_accesses, img_rel)
    if kcount is not None and not following:
        # Each resident unit's counter: the ticks since its last reset.
        last = n - 1
        for unit, reset in kcount.items():
            kcount[unit] = last - reset
    if record is not None:
        # The pass completed: publish it for every later replay of the
        # plan with this key.
        memo[key] = _Decisions(record, (
            faults, decompressions, recompressions, patches, wasted,
            tmem_accesses, stall_cycles, stalls, img_rel, now,
        ), geometry, residency, kcount)
    return now
