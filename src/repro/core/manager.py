"""The code-compression manager: the paper's three-thread runtime.

:class:`CodeCompressionManager` ties everything together the way Figure 4
of the paper draws it:

* the **execution thread** runs basic blocks — either the
  :class:`~repro.runtime.machine.Machine` interprets them (the result's
  ``engine`` is ``"machine"``) or a recorded trace supplies them (a
  :class:`~repro.runtime.trace_sim.PreparedTrace` passed as ``trace``;
  the result's ``engine`` is ``"trace"``);
* the **decompression thread** materialises decompressed copies ahead of
  the execution thread according to the configured pre-decompression
  policy;
* the **compression thread** trails behind, deleting decompressed copies
  the k-edge policy expires and patching the branches recorded in the
  remember sets.

The manager itself is a thin orchestrator.  :meth:`~CodeCompressionManager.run`
obtains the run's block trace — by interpreting the program, or from the
prepared trace it was given — and hands it to the replay kernel
(:mod:`repro.core.replay`), the one per-block implementation of the
runtime: faults, patches, k-edge recompression, both background
workers, budget eviction, events and tracing.  The kernel advances the
manager's cycle clock (``now``), leaves both background workers'
tallies on the manager, and works on two composable state holders:

* :class:`~repro.core.residency.ResidencySubsystem` — the code image,
  unit geometry, ready clock, remember sets, budget and the footprint
  timeline;
* the configured :class:`~repro.memory.hierarchy.MemoryHierarchy` —
  per-level traffic and latency priced into the unit geometry.

Faults follow Section 5's scheme exactly: fetching a block with no
decompressed copy raises the memory-protection exception; the handler
decompresses into the separate area and patches the branch that jumped
there.  Re-entering a resident block whose incoming branch still aims at
the compressed area costs a *patch fault* (handler entry + patch, no
decompression) — that is Figure 5's steps (5)-(6).
"""

from __future__ import annotations

from itertools import chain
from typing import Iterator, List, Optional, Set

from ..cfg.builder import ProgramCFG
from ..cfg.profile import EdgeProfile
from ..obs.tracer import Tracer, current_tracer
from ..runtime.events import EventLog
from ..runtime.machine import Machine
from ..runtime.metrics import Counters, SimulationResult
from ..runtime.threads import BackgroundWorker
from ..runtime.trace_sim import PreparedTrace, ReplayPlan, step_cycles
from ..strategies.base import (
    STRATEGIES,
    CompressionPolicy,
    DecompressionPolicy,
)
from ..strategies.kedge import KEdgeCompression, NeverRecompress
from ..strategies.ondemand import OnDemandDecompression
from ..strategies.predecompress import PreDecompressAll, PreDecompressSingle
from ..strategies.predictor import make_predictor
from .config import SimulationConfig
from .replay import try_batched_replay, try_stepped_replay
from .residency import ResidencySubsystem

#: Cap on the stored block trace (the full trace of a long run can be
#: millions of entries; metrics never need more than this).  Runs that
#: hit the cap are flagged via ``SimulationResult.trace_truncated``.
_TRACE_CAP = 2_000_000

#: Steps per segment of an interpreting run's block trace.  The
#: interpreter hands the kernel its trace a segment at a time, so a run
#: holds one segment's per-step arrays however long it runs.
#: Module-level so tests can shrink it.
_SEGMENT = 1 << 16


class CodeCompressionManager:
    """Simulates one program under one configuration.

    Typical use::

        cfg = build_cfg(assemble(source, "app"))
        result = CodeCompressionManager(cfg, SimulationConfig(
            codec="lzw", decompression="pre-single",
            k_compress=4, k_decompress=2,
        )).run()
        print(result.render())

    Pass ``trace`` (a :class:`~repro.runtime.trace_sim.PreparedTrace`
    of ``cfg``) to replay a recorded trace instead of interpreting the
    program: no :class:`~repro.runtime.machine.Machine` is built
    (``machine`` is None) and the result's ``engine`` is ``"trace"``.
    """

    def __init__(
        self,
        cfg: ProgramCFG,
        config: Optional[SimulationConfig] = None,
        compression_policy: Optional[CompressionPolicy] = None,
        decompression_policy: Optional[DecompressionPolicy] = None,
        tracer: Optional[Tracer] = None,
        trace: Optional[PreparedTrace] = None,
    ) -> None:
        self.cfg = cfg
        self.config = config or SimulationConfig()
        self._compression_override = compression_policy
        self._decompression_override = decompression_policy
        #: The whole trace, prepared: the one given, or an interpreting
        #: run's when it fits in one segment (None for a longer one).
        self.prepared: Optional[PreparedTrace] = trace
        if trace is None:
            self.engine = "machine"
            self.machine: Optional[Machine] = Machine(
                cfg,
                data_words=self.config.data_words,
                max_steps=self.config.max_steps,
            )
        else:
            if trace.cfg is not cfg:
                raise ValueError(
                    "prepared trace belongs to a different CFG"
                )
            self.engine = "trace"
            self.machine = None
        self.log = EventLog(enabled=self.config.trace_events)
        self.counters = Counters()
        self.profile = EdgeProfile()  # online access pattern, always kept

        # ---- observability -----------------------------------------
        # Tracing is armed out-of-band (explicit argument or the
        # ambient tracing_scope), never via SimulationConfig: configs
        # feed store fingerprints, and tracing must leave results and
        # cache keys byte-identical.  The default is the inert
        # NULL_TRACER.
        self.tracer = (
            tracer if tracer is not None else current_tracer(cfg.name)
        )

        # ---- the three threads' clock (Figure 4) ---------------------
        # One cycle clock shared by the execution thread and the two
        # background workers; the replay kernel advances it and leaves
        # the workers' tallies here.
        self.now = 0
        self.execution_cycles = 0
        self.decompress_worker = BackgroundWorker(
            "decompression", contention=self.config.contention
        )
        self.compress_worker = BackgroundWorker(
            "compression", contention=self.config.contention
        )
        self.residency = ResidencySubsystem(cfg, self.config, self.tracer)

        # ---- policies ----------------------------------------------
        # Policy instances may be injected for ablations (E12); the
        # config-driven defaults implement the paper's algorithms.
        if self._compression_override is not None:
            self.compression: CompressionPolicy = (
                self._compression_override
            )
        elif self.config.k_compress is None:
            self.compression = NeverRecompress()
        else:
            self.compression = KEdgeCompression(self.config.k_compress)
        self.compression.bind(self)

        if self._decompression_override is not None:
            self.decompression: DecompressionPolicy = (
                self._decompression_override
            )
        elif self.config.decompression == "pre-all":
            self.decompression = PreDecompressAll(
                self.config.k_decompress
            )
        elif self.config.decompression == "pre-single":
            self.decompression = PreDecompressSingle(
                self.config.k_decompress,
                make_predictor(self.config.predictor, self.config.profile),
            )
        elif self.config.decompression in ("ondemand", "none"):
            # "none" skips the image entirely; the policy is inert.
            self.decompression = OnDemandDecompression()
        else:
            # An externally registered strategy: the factory is called
            # with no arguments and may read the config through the
            # ManagerView after bind() (self.config / self.cfg).
            self.decompression = STRATEGIES.create(
                self.config.decompression
            )
        self.decompression.bind(self)

        # ---- run state ----------------------------------------------
        #: The run's block trace as the replay plans the kernel pulls in
        #: order, set by :meth:`run`.
        self.plans: Iterator[ReplayPlan] = iter(())
        self.block_trace: List[int] = []
        self.trace_truncated = False
        #: Which kernel path ran the blocks (``batched`` or ``stepped``)
        #: and the condition that declined the batched path, set by
        #: :meth:`run` (see :mod:`repro.core.replay`); ``replay_shared``
        #: is True when the run charged its clock from a decision pass
        #: another run made.
        self.replay_path: Optional[str] = None
        self.replay_declined: Optional[str] = None
        self.replay_shared = False

    # ==================================================================
    # ManagerView protocol (what policies can see)
    # ==================================================================

    def unit_of(self, block_id: int) -> int:
        """Compression unit owning ``block_id``."""
        return self.residency._unit_of[block_id]

    def unit_blocks(self, unit_id: int) -> Set[int]:
        """Blocks belonging to ``unit_id``."""
        return self.residency.unit_blocks(unit_id)

    def resident_units(self) -> Set[int]:
        """Units currently holding (or receiving) a decompressed copy."""
        return self.residency.resident_units()

    def is_unit_resident(self, unit_id: int) -> bool:
        """True when ``unit_id`` is decompressed or being decompressed."""
        return unit_id in self.residency._ready_at

    # ==================================================================
    # Main loop
    # ==================================================================

    def run(self, max_blocks: Optional[int] = None) -> SimulationResult:
        """Execute the program to completion (or ``max_blocks``).

        Returns the :class:`~repro.runtime.metrics.SimulationResult` with
        all cycle and memory metrics filled in.
        """
        if self.engine == "trace":
            prepared = self.prepared
            if max_blocks is not None:
                prepared = self.prepared = prepared.prefix(
                    max(max_blocks, 1)
                )
            self._record(prepared.trace)
            self.plans = iter((prepared.plan(
                self.config.granularity, self.residency._unit_of
            ),))
        else:
            plans = self._interpret(max_blocks)
            # Interpret the first segment (for most runs the whole
            # trace) before the kernel starts, so the kernel's time
            # excludes interpretation; later ones run as it pulls them.
            self.plans = chain((next(plans),), plans)
        # The replay kernel runs the whole trace: batched where decision
        # passes may be shared, else stepped.
        if not try_batched_replay(self):
            try_stepped_replay(self)
        return self._finish_run()

    def _interpret(self, max_blocks: Optional[int]) -> Iterator[ReplayPlan]:
        """Interpret the program, yielding its block trace as replay plans.

        Compression is transparent to program semantics, so the block
        sequence does not depend on the configuration: the machine runs
        ahead, the kernel replays what it executed.  The trace comes in
        segments of at most :data:`_SEGMENT` steps, each interpreted
        when the kernel asks for it, so a run's memory stays bounded
        however long it runs; a trace that fits in one segment becomes
        :attr:`prepared`.  Stops after ``max_blocks`` entered blocks
        when given.
        """
        cfg = self.cfg
        unit_of = self.residency._unit_of
        step = self.machine.step
        block_id = cfg.entry.block_id
        segment = [block_id]
        entered = 1
        while True:
            block_id = step(block_id)
            if block_id is None or (
                max_blocks is not None and entered >= max_blocks
            ):
                break
            if len(segment) == _SEGMENT:
                self._record(segment)
                yield ReplayPlan(segment, step_cycles(cfg, segment),
                                 unit_of)
                segment = []
            segment.append(block_id)
            entered += 1
        self._record(segment)
        if entered == len(segment):
            self.prepared = PreparedTrace(cfg, segment)
            yield self.prepared.plan(self.config.granularity, unit_of)
        else:
            yield ReplayPlan(segment, step_cycles(cfg, segment), unit_of)

    def _record(self, steps: List[int]) -> None:
        """Append ``steps`` to the recorded block trace (``record_trace``),
        up to :data:`_TRACE_CAP`."""
        if not self.config.record_trace:
            return
        room = _TRACE_CAP - len(self.block_trace)
        if len(steps) > room:
            self.trace_truncated = True
            steps = steps[:room]
        self.block_trace.extend(steps)

    def _finish_run(self) -> SimulationResult:
        """Assemble the result of the replayed run."""
        residency = self.residency
        result = SimulationResult(
            program=self.cfg.name,
            strategy=self.config.strategy_name,
            codec=self.config.codec,
            k_compress=self.config.k_compress,
            k_decompress=(
                self.config.k_decompress
                if self.config.decompression in ("pre-all", "pre-single")
                else None
            ),
            total_cycles=self.now,
            execution_cycles=self.execution_cycles,
            counters=self.counters,
            footprint=residency.footprint,
            uncompressed_size=self.cfg.total_size_bytes(),
            compressed_size=(
                residency.image.compressed_image_size
                if residency.image is not None
                else self.cfg.total_size_bytes()
            ),
            registers=(
                list(self.machine.registers)
                if self.engine == "machine" else None
            ),
            block_trace=self.block_trace,
            trace_truncated=self.trace_truncated,
            engine=self.engine,
            replay_path=self.replay_path,
            replay_declined=self.replay_declined,
            replay_shared=self.replay_shared,
        )
        if self.tracer.enabled:
            self.tracer.close(self.execution_cycles, self.now)
            # The phase breakdown rides on the live result only; it is
            # excluded from summary()/serialisation so traced and
            # untraced runs stay byte-identical.
            result.phases = self.tracer.phases()
        return result
