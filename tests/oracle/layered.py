"""The layered per-block runtime loop, frozen as a differential oracle.

This is the simulator's runtime as it ran before the replay kernel
(:mod:`repro.core.replay`) became its only implementation: the
manager's Section 5 fault handler (:meth:`LayeredManager._ensure_executable`)
and per-block/per-edge hooks, over residency mechanics (materialise,
release, budget eviction, pre-decompression scheduling), a timing model
that charges every stall through one method, FIFO background workers
with cancel-and-refund, remember-set mutators and the budget's recency
hooks.  Every call is made one block at a time through the layers, so
it shares no per-block code with the kernel — which is what makes
kernel == oracle a meaningful differential check.

Two deliberate differences from the code it was frozen from: the
tracer's ``worker_cancel`` fires only when a pending job is actually
cancelled, and ``worker_job`` only when a job is actually queued (a
unit whose patch job is still pending keeps it).

:class:`LayeredManager` reuses the production manager's construction —
config-driven policies, the code image, unit geometry and result
assembly — and replaces the subsystems and the run loop.  Pass
``trace`` (a :class:`~repro.runtime.trace_sim.PreparedTrace`) to step a
recorded trace instead of interpreting the program; an interpreting
run executes its blocks on the frozen opcode loop
(:class:`~oracle.machine.OpcodeMachine`), so kernel == oracle on
interpreting runs also checks the translated machine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Set, Tuple

import repro.core.manager as manager_module
from repro.core.manager import CodeCompressionManager
from repro.core.residency import ResidencySubsystem as _Residency
from repro.obs.tracer import NULL_TRACER
from repro.runtime.events import EventKind
from repro.runtime.machine import MachineError
from repro.runtime.trace_sim import PreparedTrace
from repro.strategies.budget import MemoryBudget as _MemoryBudget

from .machine import BlockOutcome, OpcodeMachine


# ----------------------------------------------------------------------
# Background workers
# ----------------------------------------------------------------------


@dataclass
class Job:
    """A background job for one block/unit."""

    block_id: int
    latency: int
    scheduled_at: int
    started_at: int
    completes_at: int
    seq: int

    @property
    def queue_delay(self) -> int:
        """Cycles the job waited before service."""
        return self.started_at - self.scheduled_at


class BackgroundWorker:
    """Single-server FIFO work queue on the global cycle clock.

    ``contention`` in [0, 1] is the fraction of each busy background cycle
    that the execution thread must additionally pay (0 = perfectly
    parallel, 1 = fully serialised on the main core).
    """

    def __init__(self, name: str, contention: float = 0.0) -> None:
        if not 0.0 <= contention <= 1.0:
            raise ValueError(
                f"contention must be in [0, 1], got {contention}"
            )
        self.name = name
        self.contention = contention
        self.free_at = 0
        self.busy_cycles = 0  # work actually performed (refunds applied)
        self.jobs_completed = 0
        self.jobs_cancelled = 0
        self._pending: Dict[int, Job] = {}
        self._seq = 0

    def schedule(self, now: int, block_id: int, latency: int) -> Job:
        """Enqueue a job for ``block_id``; returns the Job with its
        completion time.  At most one outstanding job per block."""
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        existing = self._pending.get(block_id)
        if existing is not None:
            return existing
        started = max(now, self.free_at)
        job = Job(
            block_id=block_id,
            latency=latency,
            scheduled_at=now,
            started_at=started,
            completes_at=started + latency,
            seq=self._seq,
        )
        self._seq += 1
        self.free_at = job.completes_at
        self.busy_cycles += latency
        self._pending[block_id] = job
        return job

    def cancel(self, block_id: int, now: Optional[int] = None) -> Optional[Job]:
        """Drop the pending job for ``block_id``.

        With ``now`` given, un-performed work is refunded: a job that has
        not started yet costs nothing; a job in flight keeps only its
        elapsed service time.  Queued jobs behind it are re-chained to
        start earlier.
        """
        job = self._pending.pop(block_id, None)
        if job is None:
            return None
        self.jobs_cancelled += 1
        if now is None:
            return job
        if job.started_at >= now:
            refund = job.latency
        else:
            refund = max(0, job.completes_at - now)
        self.busy_cycles -= refund
        self._rechain(now)
        return job

    def _rechain(self, now: int) -> None:
        """Recompute start/completion times after a cancellation.

        Jobs already finished or in flight keep their times; jobs not yet
        started are re-packed FIFO behind them.
        """
        jobs = sorted(self._pending.values(), key=lambda job: job.seq)
        cursor = now
        for job in jobs:
            if job.started_at < now:
                # Finished or in flight: immovable.
                cursor = max(cursor, job.completes_at)
        for job in jobs:
            if job.started_at >= now:
                job.started_at = max(cursor, job.scheduled_at)
                job.completes_at = job.started_at + job.latency
                cursor = job.completes_at
        self.free_at = cursor

    def absorb_jobs(
        self,
        free_at: int,
        busy_delta: int,
        completed: int,
        cancelled: int,
        pending,
        next_seq: int,
    ) -> None:
        """Absorb a batch of externally simulated jobs: the clock
        (``free_at``), the performed work, the completed and cancelled
        tallies, the outstanding jobs as ``(block_id, latency,
        scheduled_at, started_at, completes_at, seq)`` tuples in FIFO
        order — they replace the queue — and the next sequence number.
        """
        self.free_at = free_at
        self.busy_cycles += busy_delta
        self.jobs_completed += completed
        self.jobs_cancelled += cancelled
        self._pending = {job[0]: Job(*job) for job in pending}
        self._seq = next_seq

    def completion_time(self, block_id: int) -> Optional[int]:
        """Completion cycle of the pending job for ``block_id``, if any."""
        job = self._pending.get(block_id)
        return None if job is None else job.completes_at

    def is_pending(self, block_id: int, now: int) -> bool:
        """True if ``block_id`` has a job that completes after ``now``."""
        job = self._pending.get(block_id)
        return job is not None and job.completes_at > now

    def retire_completed(self, now: int) -> List[Job]:
        """Remove and return jobs completed by ``now``."""
        if not self._pending:
            return []
        done = [
            job for job in self._pending.values() if job.completes_at <= now
        ]
        for job in done:
            del self._pending[job.block_id]
            self.jobs_completed += 1
        return sorted(done, key=lambda job: (job.completes_at, job.seq))

    def pending_jobs(self) -> List[Job]:
        """Snapshot of outstanding jobs in FIFO order."""
        return sorted(self._pending.values(), key=lambda job: job.seq)

    def backlog(self) -> int:
        """Number of outstanding jobs."""
        return len(self._pending)

    def contention_cycles(self) -> int:
        """Execution-thread cycles charged for sharing the core."""
        return int(round(self.busy_cycles * self.contention))


# ----------------------------------------------------------------------
# Remember-set mutators and budget recency hooks
# ----------------------------------------------------------------------


class BranchSite(NamedTuple):
    """A branch instruction location: (block id, instruction index within
    that block's decompressed copy)."""

    block_id: int
    instr_index: int


class RememberSets:
    """The remember sets as a class of their own: the targets' sets of
    branch sites with their queries, invariant check and per-call
    mutators (the production residency keeps two plain dicts, which the
    kernel patches inline).

    Invariant kept for the property tests: a branch site appears in at
    most one target's remember set — a branch instruction holds one
    address.
    """

    def __init__(self) -> None:
        self._by_target: Dict[int, Set[BranchSite]] = {}
        self._site_target: Dict[BranchSite, int] = {}
        self.total_patches = 0

    def references_to(self, target_block: int) -> Set[BranchSite]:
        """Sites currently pointing at ``target_block``'s copy."""
        return set(self._by_target.get(target_block, set()))

    def target_of(self, site: BranchSite) -> int:
        """Block the given site currently points to (KeyError if unknown)."""
        return self._site_target[site]

    def points_to(self, site: BranchSite, target_block: int) -> bool:
        """True if ``site`` is currently patched to ``target_block``."""
        return self._site_target.get(site) == target_block

    @property
    def tracked_sites(self) -> int:
        """Total number of tracked branch sites."""
        return len(self._site_target)

    def validate(self) -> List[str]:
        """Return invariant violations (empty when consistent)."""
        problems: List[str] = []
        for target, sites in self._by_target.items():
            for site in sites:
                if self._site_target.get(site) != target:
                    problems.append(
                        f"site {site} in set of B{target} but maps to "
                        f"{self._site_target.get(site)}"
                    )
        for site, target in self._site_target.items():
            if site not in self._by_target.get(target, set()):
                problems.append(
                    f"site {site} maps to B{target} but missing from its set"
                )
        return problems

    def add_reference(self, target_block: int, site: BranchSite) -> None:
        """Record that ``site`` now jumps to ``target_block``'s copy."""
        previous = self._site_target.get(site)
        if previous == target_block:
            return
        if previous is not None:
            self._by_target[previous].discard(site)
        self._by_target.setdefault(target_block, set()).add(site)
        self._site_target[site] = target_block
        self.total_patches += 1

    def drop_target(self, target_block: int) -> List[BranchSite]:
        """Remove ``target_block``'s set; returns the sites needing
        patch-back (each patch-back is counted in :attr:`total_patches`)."""
        sites = sorted(
            self._by_target.pop(target_block, set()),
            key=lambda s: (s.block_id, s.instr_index),
        )
        for site in sites:
            del self._site_target[site]
        self.total_patches += len(sites)
        return sites

    def drop_sites_in_block(self, block_id: int) -> int:
        """Forget all sites *located in* ``block_id`` (its decompressed copy
        is going away, so the branches it contained no longer exist).

        Returns the number of sites removed; these need no patching — the
        memory holding them is freed.
        """
        removed = 0
        for site in [
            s for s in self._site_target if s.block_id == block_id
        ]:
            target = self._site_target.pop(site)
            self._by_target[target].discard(site)
            removed += 1
        return removed


class MemoryBudget(_MemoryBudget):
    """The memory budget with its per-call recency hooks."""

    def on_unit_enter(self, unit_id: int) -> None:
        """A block of ``unit_id`` was executed (refreshes recency)."""
        self._clock += 1
        self._last_use[unit_id] = self._clock

    def on_unit_decompressed(self, unit_id: int) -> None:
        """``unit_id`` became resident."""
        self._clock += 1
        self._resident_since[unit_id] = self._clock
        self._last_use.setdefault(unit_id, self._clock)

    def on_unit_released(self, unit_id: int) -> None:
        """``unit_id`` lost residency."""
        self._resident_since.pop(unit_id, None)


# ----------------------------------------------------------------------
# Timing: one clock, one charging site
# ----------------------------------------------------------------------


class TimingModel:
    """Cycle clock + background-worker timelines + stall accounting.

    Every synchronous penalty goes through :meth:`stall`; the workers
    share the clock, and :meth:`finalize` settles the optional
    contention charge at the end of a run.
    """

    def __init__(self, config, counters, tracer=NULL_TRACER) -> None:
        self.config = config
        self.counters = counters
        self.tracer = tracer
        self.now = 0
        self.execution_cycles = 0
        self.decompress_worker = BackgroundWorker(
            "decompression", contention=config.contention
        )
        self.compress_worker = BackgroundWorker(
            "compression", contention=config.contention
        )

    def advance_execution(self, cycles: int) -> None:
        """The execution thread ran ``cycles`` of real work."""
        self.now += cycles
        self.execution_cycles += cycles

    def stall(
        self,
        cycles: int,
        *,
        count_stall: bool = True,
        kind: str = "decompress",
    ) -> None:
        """Charge the execution thread ``cycles`` of synchronous penalty;
        ``count_stall=False`` charges without counting a discrete stall
        (patch-only faults).  ``kind`` attributes the cycles for
        tracing."""
        if self.tracer.enabled:
            self.tracer.stall(self.now, cycles, kind, count_stall)
        self.now += cycles
        self.counters.stall_cycles += cycles
        if count_stall:
            self.counters.stalls += 1

    def wait_until(self, ready_at: int) -> int:
        """Stall until ``ready_at`` if it is in the future; returns the
        cycles waited (0 when already ready)."""
        if ready_at <= self.now:
            return 0
        remainder = ready_at - self.now
        self.stall(remainder)
        return remainder

    def schedule_decompression(self, unit_id: int, latency: int) -> Job:
        """Queue a background decompression; returns the worker job."""
        job = self.decompress_worker.schedule(self.now, unit_id, latency)
        self.counters.background_decompress_cycles += job.latency
        if self.tracer.enabled:
            self.tracer.worker_job(
                "decompression", unit_id, job.scheduled_at,
                job.started_at, job.completes_at,
            )
        return job

    def cancel_decompression(self, unit_id: int) -> None:
        """Cancel a pending decompression, refunding unperformed work."""
        job = self.decompress_worker.cancel(unit_id, self.now)
        if job is not None and self.tracer.enabled:
            self.tracer.worker_cancel(self.now, "decompression", unit_id)

    def retire_decompressions(self) -> None:
        """Retire decompression jobs completed by ``now``."""
        self.decompress_worker.retire_completed(self.now)

    def schedule_patches(self, unit_id: int, cycles: int) -> None:
        """Queue branch patching on the background compression thread."""
        queued = self.compress_worker.completion_time(unit_id) is not None
        job = self.compress_worker.schedule(self.now, unit_id, cycles)
        if not queued and self.tracer.enabled:
            self.tracer.worker_job(
                "compression", unit_id, job.scheduled_at,
                job.started_at, job.completes_at,
            )
        self.compress_worker.retire_completed(self.now)

    def decompression_backlog(self) -> int:
        """Outstanding jobs on the decompression worker."""
        return self.decompress_worker.backlog()

    def finalize(self) -> None:
        """Settle contention and the background-compression tally."""
        contention = (
            self.decompress_worker.contention_cycles()
            + self.compress_worker.contention_cycles()
        )
        if contention:
            self.stall(
                contention, count_stall=False, kind="contention"
            )
        self.counters.background_compress_cycles = (
            self.compress_worker.busy_cycles
        )


# ----------------------------------------------------------------------
# Residency mechanics
# ----------------------------------------------------------------------


class ResidencySubsystem(_Residency):
    """The production residency state plus its per-call mechanics."""

    def __init__(self, cfg, config, timing, counters, log) -> None:
        super().__init__(cfg, config, timing.tracer)
        self.timing = timing
        self.counters = counters
        self.log = log
        self.remember = RememberSets()
        # The end state under the production residency's names.
        self.site_target = self.remember._site_target
        self.by_target = self.remember._by_target
        if config.memory_budget is not None:
            self.budget = MemoryBudget(
                config.memory_budget, config.eviction
            )
        self.on_unit_decompressed = None
        self.on_unit_released = None
        self._site_cache: Dict[int, BranchSite] = {}

    def site_for(self, block_id: int) -> BranchSite:
        """The (memoized) terminator branch site of ``block_id``."""
        site = self._site_cache.get(block_id)
        if site is None:
            terminator_index = len(self.cfg.block(block_id)) - 1
            site = BranchSite(block_id, terminator_index)
            self._site_cache[block_id] = site
        return site

    def ready_at(self, unit_id: int) -> int:
        """Completion cycle of ``unit_id``'s (pre-)decompression."""
        return self._ready_at.get(unit_id, 0)

    def mark_ready(self, unit_id: int, cycle: int) -> None:
        """Record that ``unit_id`` is usable from ``cycle`` on."""
        self._ready_at[unit_id] = cycle

    def mark_used(self, unit_id: int) -> None:
        """A block of ``unit_id`` executed (for wasted-work accounting
        and budget recency)."""
        self._used_since_decompress[unit_id] = True
        if self.budget is not None:
            self.budget.on_unit_enter(unit_id)

    def sample_footprint(self) -> None:
        """Record the current footprint on the timeline."""
        self.footprint.record(self.timing.now, self.footprint_bytes())

    def charge_uncompressed_entry(self, block_id: int) -> None:
        """Uncompressed system: every entry streams the block's full
        bytes from the target memory (Section 2 traffic model)."""
        nbytes = self.cfg.block(block_id).size_bytes
        self.counters.target_memory_bytes += (
            self.hierarchy.target_read_bytes(nbytes)
        )
        self.counters.target_memory_accesses += 1
        cycles = self.hierarchy.target_read_cycles(nbytes)
        if cycles:
            self.timing.stall(cycles, count_stall=False, kind="mem")

    def materialise_unit(self, unit_id: int) -> None:
        """Allocate and mark every block of ``unit_id`` decompressed."""
        assert self.image is not None
        for block_id in sorted(self._unit_blocks[unit_id]):
            self.image.decompress(block_id)
            self.image.block_data(block_id)
            self.counters.target_memory_bytes += (
                self.hierarchy.target_read_bytes(
                    self.image.block(block_id).compressed_size
                )
            )
            self.counters.target_memory_accesses += 1
        self.counters.decompressions += 1
        self._used_since_decompress[unit_id] = False
        if self.timing.tracer.enabled:
            self.timing.tracer.fill(
                self.timing.now, unit_id,
                self.unit_fill_cycles(unit_id),
            )
        if self.on_unit_decompressed is not None:
            self.on_unit_decompressed(unit_id)
        if self.budget is not None:
            self.budget.on_unit_decompressed(unit_id)

    def release_unit(self, unit_id: int, reason: EventKind) -> None:
        """Delete ``unit_id``'s decompressed copy: cancel its in-flight
        pre-decompression (refunded), patch back its remember sets on
        the compression thread, and settle the wasted-work counter
        exactly once (the used-flag is popped)."""
        assert self.image is not None
        self._ready_at.pop(unit_id, None)
        self.timing.cancel_decompression(unit_id)
        patches = 0
        for block_id in sorted(self._unit_blocks[unit_id]):
            if self.image.is_resident(block_id):
                self.image.release(block_id)
            patches += len(self.remember.drop_target(block_id))
            self.remember.drop_sites_in_block(block_id)
        self.counters.patches += patches
        self.counters.recompressions += 1
        if not self._used_since_decompress.pop(unit_id, True):
            self.counters.wasted_decompressions += 1
        self.timing.schedule_patches(
            unit_id, self.config.patch_cycles * patches
        )
        if self.timing.tracer.enabled:
            self.timing.tracer.release(
                self.timing.now, unit_id, reason.name.lower(), patches
            )
        if self.on_unit_released is not None:
            self.on_unit_released(unit_id)
        if self.budget is not None:
            self.budget.on_unit_released(unit_id)
        self.log.emit(self.timing.now, reason, unit_id, patches)
        self.sample_footprint()

    def enforce_budget(self, unit_id: int, protected: Set[int]) -> None:
        """Evict units (LRU or configured policy) so ``unit_id`` fits."""
        if self.budget is None or self.image is None:
            return
        victims = self.budget.select_victims(
            needed_bytes=self.unit_uncompressed_size(unit_id),
            current_footprint=self.image.footprint_bytes,
            resident=self.resident_units(),
            protected=protected | {unit_id},
            size_of=self.unit_uncompressed_size,
        )
        for victim in victims:
            self.release_unit(victim, EventKind.EVICT)
            self.counters.evictions += 1

    def schedule_predecompression(
        self, block_id: int, protected: Set[int]
    ) -> None:
        """Queue ``block_id``'s unit on the decompression thread, shedding
        the request when the thread's backlog is full."""
        unit_id = self.unit_of(block_id)
        if self.is_unit_resident(unit_id):
            return
        if (
            self.timing.decompression_backlog()
            >= self.config.max_prefetch_backlog
        ):
            self.counters.dropped_prefetches += 1
            return
        self.enforce_budget(unit_id, protected=protected)
        self.materialise_unit(unit_id)
        job = self.timing.schedule_decompression(
            unit_id, self.unit_fill_cycles(unit_id)
        )
        self._ready_at[unit_id] = job.completes_at
        self.log.emit(
            self.timing.now, EventKind.DECOMPRESS_START, unit_id
        )
        self.sample_footprint()


# ----------------------------------------------------------------------
# Trace stepping
# ----------------------------------------------------------------------


class TraceStepper:
    """Steps a :class:`~repro.runtime.trace_sim.PreparedTrace` one block
    at a time, in place of the interpreting machine."""

    def __init__(self, cfg, prepared) -> None:
        self.cfg = cfg
        self.trace = prepared.trace
        self.position = 0
        self.registers = None
        self.halted = False
        self.steps = 0

    def run_block(self, block) -> BlockOutcome:
        """Replay one step of the trace."""
        if self.halted:
            raise MachineError("trace machine is halted")
        position = self.position
        expected = self.trace[position]
        if block.block_id != expected:
            raise MachineError(
                f"trace divergence: asked to run B{block.block_id}, "
                f"trace position {position} expects B{expected}"
            )
        self.position = position + 1
        if self.position == len(self.trace):
            self.halted = True
            next_id = None
        else:
            next_id = self.trace[self.position]
        self.steps += len(block.instructions)
        return BlockOutcome(
            block.block_id, next_id, block.cycle_cost,
            len(block.instructions),
        )


# ----------------------------------------------------------------------
# The manager's loop
# ----------------------------------------------------------------------


class LayeredManager(CodeCompressionManager):
    """The production manager driven by the frozen layered loop."""

    def __init__(
        self,
        cfg,
        config=None,
        compression_policy=None,
        decompression_policy=None,
        tracer=None,
        trace=None,
    ) -> None:
        super().__init__(
            cfg, config,
            compression_policy=compression_policy,
            decompression_policy=decompression_policy,
            tracer=tracer,
            trace=trace,
        )
        self.timing = TimingModel(self.config, self.counters, self.tracer)
        self.residency = ResidencySubsystem(
            cfg, self.config, self.timing, self.counters, self.log
        )
        self.residency.on_unit_decompressed = (
            self.compression.on_unit_decompressed
        )
        self.residency.on_unit_released = (
            self.compression.on_unit_released
        )
        if trace is not None:
            self.machine = TraceStepper(cfg, trace)
        else:
            self.machine = OpcodeMachine(
                cfg,
                data_words=self.config.data_words,
                max_steps=self.config.max_steps,
            )
        self._pending_predictions: Deque[Tuple[int, int]] = deque()
        self._blocks_entered = 0
        self._current_block: Optional[int] = None

    # -- fault handling (the Section 5 exception handler) --------------

    def _protected_units(self) -> Set[int]:
        if self._current_block is None:
            return set()
        return {self.unit_of(self._current_block)}

    def _ensure_executable(
        self, block_id: int, came_from: Optional[int]
    ) -> None:
        """Make ``block_id`` runnable, charging faults/stalls as needed:
        a full fault when not resident, a wait for an in-flight
        pre-decompression, or a patch fault when the incoming branch
        still targets the compressed area."""
        residency = self.residency
        timing = self.timing
        if residency.image is None:
            return
        unit_id = residency.unit_of(block_id)
        # A branch site can only be patched if the block holding the branch
        # still has a decompressed copy; otherwise the transfer goes via
        # the compressed-area address and faults (re-patched next time).
        site = None
        if came_from is not None and residency.is_unit_resident(
            residency.unit_of(came_from)
        ):
            site = residency.site_for(came_from)

        if not residency.is_unit_resident(unit_id):
            # Full memory-protection fault (Figure 5 steps 2, 4, 9).
            self.counters.faults += 1
            self.log.emit(timing.now, EventKind.FAULT, block_id)
            residency.enforce_budget(
                unit_id,
                protected=self._protected_units()
                | ({residency.unit_of(came_from)}
                   if came_from is not None else set()),
            )
            residency.materialise_unit(unit_id)
            residency.sample_footprint()
            stall = (
                self.config.fault_cycles
                + residency.unit_fill_cycles(unit_id)
            )
            timing.stall(stall)
            residency.mark_ready(unit_id, timing.now)
            self.log.emit(timing.now, EventKind.DECOMPRESS_DONE, unit_id,
                          stall)
            if site is not None:
                residency.remember.add_reference(block_id, site)
                self.counters.patches += 1
                self.log.emit(timing.now, EventKind.PATCH, block_id)
            return

        waited = timing.wait_until(residency.ready_at(unit_id))
        if waited:
            # Pre-decompression still in flight: we waited it out.
            self.log.emit(timing.now, EventKind.STALL, block_id, waited)
        timing.retire_decompressions()

        arrived_unpatched = came_from is not None and (
            site is None
            or not residency.remember.points_to(site, block_id)
        )
        if arrived_unpatched:
            # Patch fault: the copy exists but the branch that got us here
            # still aims at the compressed area (Figure 5 steps 5-6).
            self.counters.faults += 1
            timing.stall(
                self.config.fault_cycles, count_stall=False,
                kind="patch",
            )
            if site is not None:
                residency.remember.add_reference(block_id, site)
                self.counters.patches += 1
            self.log.emit(timing.now, EventKind.PATCH, block_id)

    # -- main loop ------------------------------------------------------

    def run(self, max_blocks: Optional[int] = None):
        entry = self.cfg.entry
        residency = self.residency
        timing = self.timing
        self.replay_path = "layered"
        residency.sample_footprint()

        # Pre-decompression may warm blocks before execution starts.
        if residency.image is not None and self.decompression.uses_thread:
            for block_id in self.decompression.on_program_start(
                entry.block_id
            ):
                residency.schedule_predecompression(
                    block_id, protected=self._protected_units()
                )

        self._ensure_executable(entry.block_id, came_from=None)
        current = entry
        self.profile.record_entry(entry.block_id)

        while True:
            self._on_block_enter(current.block_id)
            outcome = self.machine.run_block(current)
            timing.advance_execution(outcome.cycles)
            timing.retire_decompressions()

            if outcome.next_block_id is None:
                break
            if max_blocks is not None and self._blocks_entered >= max_blocks:
                break

            next_id = outcome.next_block_id
            self._on_edge(current.block_id, next_id)
            self._ensure_executable(next_id, came_from=current.block_id)
            current = self.cfg.block(next_id)

        timing.finalize()
        residency.sample_footprint()
        self.now = timing.now
        self.execution_cycles = timing.execution_cycles
        self.decompress_worker = timing.decompress_worker
        self.compress_worker = timing.compress_worker
        return self._finish_run()

    def _on_block_enter(self, block_id: int) -> None:
        residency = self.residency
        unit_id = residency.unit_of(block_id)
        self.counters.blocks_executed += 1
        self._blocks_entered += 1
        if self.config.record_trace:
            if len(self.block_trace) < manager_module._TRACE_CAP:
                self.block_trace.append(block_id)
            else:
                self.trace_truncated = True
        self.log.emit(self.timing.now, EventKind.BLOCK_ENTER, block_id)

        residency.mark_used(unit_id)
        self.compression.on_unit_enter(unit_id)
        if residency.image is None:
            residency.charge_uncompressed_entry(block_id)

        # Prediction accuracy: did a pending pre-decompress-single guess
        # come true within its window?
        if self._pending_predictions:
            matched = None
            for index, (predicted, expires) in enumerate(
                self._pending_predictions
            ):
                if predicted == block_id:
                    matched = index
                    break
            if matched is not None:
                self.counters.correct_predictions += 1
                del self._pending_predictions[matched]
            while (
                self._pending_predictions
                and self._pending_predictions[0][1] <= self._blocks_entered
            ):
                self._pending_predictions.popleft()

    def _on_edge(self, src_block: int, dst_block: int) -> None:
        residency = self.residency
        self._current_block = src_block
        self.profile.record_edge(src_block, dst_block)
        self.decompression.on_edge(src_block, dst_block)

        if residency.image is None:
            return

        src_unit = residency.unit_of(src_block)
        dst_unit = residency.unit_of(dst_block)

        # Compression side: tick the k-edge counters, expire units.
        for expired in self.compression.on_edge(src_unit, dst_unit):
            assert expired != dst_unit, (
                "compression policy tried to release the destination unit"
            )
            if residency.is_unit_resident(expired):
                residency.release_unit(expired, EventKind.RECOMPRESS)

        # Decompression side: let the policy request pre-decompressions.
        if self.decompression.uses_thread:
            targets = self.decompression.on_block_exit(src_block)
            choice = getattr(self.decompression, "last_choice", None)
            if choice is not None:
                self.counters.predictions += 1
                self._pending_predictions.append(
                    (choice,
                     self._blocks_entered + self.config.k_decompress + 1)
                )
                self.log.emit(self.timing.now, EventKind.PREDICT, choice)
            for block_id in targets:
                residency.schedule_predecompression(
                    block_id, protected=self._protected_units()
                )


def simulate_trace(cfg, trace, config=None, max_blocks=None,
                   compression_policy=None, decompression_policy=None,
                   tracer=None):
    """:func:`repro.runtime.trace_sim.simulate_trace` on the layered
    loop (same signature, so sweep-level suites can swap it in)."""
    if not isinstance(trace, PreparedTrace):
        trace = PreparedTrace(cfg, trace)
    manager = LayeredManager(
        cfg, config,
        compression_policy=compression_policy,
        decompression_policy=decompression_policy,
        tracer=tracer,
        trace=trace,
    )
    return manager.run(max_blocks=max_blocks)


# ----------------------------------------------------------------------
# Comparison helpers
# ----------------------------------------------------------------------


def image_state(image) -> Dict[str, object]:
    """Everything observable about a code image's storage: the
    allocator's full state, every block's addresses, the decompress and
    release tallies, and the in-place scheme's relocation counters."""
    if image is None:
        return {}
    allocator = vars(image.allocator)
    return {
        "allocator": {key: allocator[key] for key in sorted(allocator)},
        "blocks": [
            (block.compressed_addr, block.resident_addr)
            for block in image.blocks
        ],
        "decompress_count": image.decompress_count,
        "release_count": image.release_count,
        "relocations": getattr(image, "relocations", None),
        "compactions": getattr(image, "compactions", None),
        "slots": getattr(image, "_slot", None),
    }


def tracer_state(tracer) -> Dict[str, object]:
    """A span tracer's aggregates and the spans the differential suites
    compare: phases, event counts, stall spans and worker spans."""
    return {
        "phases": tracer.phases(),
        "stall_events": dict(tracer.stall_events),
        "counts": dict(tracer.counts),
        "stall_spans": list(tracer.stall_spans),
        "worker_spans": list(tracer.worker_spans),
        "instants": list(tracer.instants),
        "totals": (tracer.execution_cycles, tracer.total_cycles),
    }
