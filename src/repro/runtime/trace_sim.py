"""Trace-driven simulation: replay a recorded block trace.

Interpreting every instruction is the gold standard (results are
self-validating) but costs most of the simulation time.  For large
parameter sweeps the compression machinery only needs the *block
sequence* and per-block cycle costs — exactly what a recorded trace
provides.  :func:`simulate_trace` hands a :class:`PreparedTrace` to the
standard :class:`~repro.core.manager.CodeCompressionManager`
(``trace=``), whose replay kernel runs it exactly as it runs an
interpreted run's own trace, producing identical compression behaviour
(faults, stalls, footprint) at a fraction of the cost.

Typical use::

    base = simulate(program, SimulationConfig(decompression="none"))
    for config in many_configs:
        result = simulate_trace(cfg, base.block_trace, config)

The integration tests assert that trace-driven metrics match
machine-driven metrics exactly for the same program and configuration.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..cfg.builder import ProgramCFG


class ReplayPlan:
    """Precomputed per-step arrays and trace-wide aggregates for one
    (trace, unit granularity) pair.

    Built once per :class:`PreparedTrace` per granularity and shared by
    every grid cell that replays the trace — the replay kernel
    (:mod:`repro.core.replay`) walks these flat lists — or once per
    segment of a long interpreting run, whose trace reaches the kernel
    a segment at a time.

    ``decisions`` memoises the kernel's completed decision passes,
    ``(k, fault_cycles) ->`` log and end state (at most two events per
    step), for later trace replays to charge to their own clocks; it
    dies with the plan.  Clearing it only makes the next replay decide.
    """

    __slots__ = (
        "trace", "cycles", "unit_steps", "total_cycles", "edge_items",
        "block_visits", "entered_units", "decisions",
    )

    def __init__(
        self,
        trace: List[int],
        cycles: List[int],
        unit_of: Dict[int, int],
    ) -> None:
        # The per-step lists are shared with the caller (a prepared
        # trace's own): a plan adds only what depends on the granularity.
        self.trace = trace
        self.cycles = cycles
        self.unit_steps = [unit_of[block_id] for block_id in trace]
        # Trace-wide aggregates (the kernel charges these in one
        # operation each instead of summing per step).
        self.total_cycles = sum(self.cycles)
        edge_items: Dict[Tuple[int, int], int] = {}
        for src, dst in zip(self.trace, self.trace[1:]):
            edge = (src, dst)
            edge_items[edge] = edge_items.get(edge, 0) + 1
        #: Distinct (src, dst) edges with traversal counts, in
        #: first-traversal order.
        self.edge_items = tuple(edge_items.items())
        visits: Dict[int, int] = {}
        for block_id in self.trace:
            visits[block_id] = visits.get(block_id, 0) + 1
        #: block id -> number of times the trace enters it.
        self.block_visits = visits
        entered: Dict[int, None] = {}
        for unit in self.unit_steps:
            entered[unit] = None
        #: Distinct units the trace enters, in first-entry order.
        self.entered_units = tuple(entered)
        self.decisions: Dict[Tuple, object] = {}


def step_cycles(cfg: ProgramCFG, trace: Sequence[int]) -> List[int]:
    """Flat per-step cycle array for ``trace``: each step costs its
    block's static cycles, exactly what the interpreter charges for
    executing it."""
    blocks = cfg.blocks
    return [blocks[block_id].cycle_cost for block_id in trace]


def entry_charges(cfg: ProgramCFG, hierarchy) -> Tuple[List[int], List[int]]:
    """Per-block (target read bytes, read cycles) lists for the
    uncompressed entry charge under ``hierarchy``."""
    nbytes = [block.size_bytes for block in cfg.blocks]
    return (
        [hierarchy.target_read_bytes(b) for b in nbytes],
        [hierarchy.target_read_cycles(b) for b in nbytes],
    )


def _validate(cfg: ProgramCFG, trace: Sequence[int]) -> None:
    """Reject traces no execution of ``cfg`` could have produced."""
    if not trace:
        raise ValueError("trace must contain at least one block")
    if trace[0] != cfg.entry_id:
        raise ValueError(
            f"trace must start at the entry block "
            f"B{cfg.entry_id}, got B{trace[0]}"
        )
    for src, dst in zip(trace, trace[1:]):
        if not cfg.has_edge(src, dst):
            raise ValueError(
                f"trace contains impossible transition "
                f"B{src} -> B{dst}"
            )


class PreparedTrace:
    """A validated trace with its per-step costs precomputed.

    Sweeps replay the same trace through many configurations; validating
    edges and building the per-step cost arrays and replay plans once —
    instead of once per grid cell — removes the dominant per-cell replay
    setup cost.  An interpreting run produces one of these for its own
    replay, and a sweep replays its recording's object in every grid
    cell.

    The prepared trace refers to its CFG weakly: caches keyed (weakly)
    on the CFG can hold its prepared traces without keeping the graph
    alive, so they drop out together.  Replaying needs the live CFG
    anyway (the manager takes it explicitly).
    """

    def __init__(self, cfg: ProgramCFG, trace: Sequence[int]) -> None:
        _validate(cfg, trace)
        self._cfg = weakref.ref(cfg)
        # A list is adopted, not copied (an interpreting run hands over
        # its freshly built trace); nothing mutates it afterwards.
        self.trace = trace if type(trace) is list else list(trace)
        self.cycles = step_cycles(cfg, self.trace)
        #: granularity -> ReplayPlan (unit maps are pure functions of
        #: (cfg, granularity), so one plan serves every grid cell).
        self._plans: Dict[str, ReplayPlan] = {}
        #: hierarchy name -> per-block (read_bytes, read_cycles) for the
        #: uncompressed-mode entry charge.
        self._entry_charges: Dict[str, Tuple[List[int], List[int]]] = {}

    @property
    def cfg(self) -> Optional[ProgramCFG]:
        """The CFG this trace was validated against (None once dead)."""
        return self._cfg()

    def plan(
        self, granularity: str, unit_of: Dict[int, int]
    ) -> ReplayPlan:
        """The (cached) :class:`ReplayPlan` for ``granularity``.

        ``unit_of`` must be the block->unit map for that granularity —
        the caller (the residency subsystem) already has it computed.
        """
        plan = self._plans.get(granularity)
        if plan is None:
            plan = ReplayPlan(self.trace, self.cycles, unit_of)
            self._plans[granularity] = plan
        return plan

    def entry_charges(
        self, hierarchy_name: str, hierarchy
    ) -> Tuple[List[int], List[int]]:
        """Per-block (target read bytes, read cycles) lists for the
        uncompressed entry charge, cached per hierarchy preset."""
        charges = self._entry_charges.get(hierarchy_name)
        if charges is None:
            charges = entry_charges(self.cfg, hierarchy)
            self._entry_charges[hierarchy_name] = charges
        return charges

    def prefix(self, length: int) -> "PreparedTrace":
        """The first ``length`` steps (``self`` when that is all of
        them): a run bounded by ``max_blocks`` replays this prefix."""
        if length >= len(self.trace):
            return self
        return PreparedTrace(self.cfg, self.trace[:length])


def simulate_trace(
    cfg: ProgramCFG,
    trace: Union[PreparedTrace, Sequence[int]],
    config=None,
    max_blocks: Optional[int] = None,
    compression_policy=None,
    decompression_policy=None,
    tracer=None,
):
    """Run the compression machinery over a recorded block trace.

    Returns the same :class:`~repro.runtime.metrics.SimulationResult` a
    full simulation would, except ``registers`` is ``None`` (replay does
    not model register state, so none is presented as real machine
    state) and ``engine`` is tagged ``"trace"``.
    ``compression_policy``/``decompression_policy`` are optional policy
    instances forwarded to the manager (for ablations such as E12 that
    inject non-config policies into a trace replay).  Pass a
    :class:`PreparedTrace` when replaying the same trace many times.
    ``tracer`` optionally arms cycle-domain span tracing for the replay
    (an ambient :func:`repro.obs.tracing_scope` covers replays too, as
    they build the same manager).
    """
    from ..core.manager import CodeCompressionManager

    if not isinstance(trace, PreparedTrace):
        trace = PreparedTrace(cfg, trace)
    manager = CodeCompressionManager(
        cfg,
        config,
        compression_policy=compression_policy,
        decompression_policy=decompression_policy,
        tracer=tracer,
        trace=trace,
    )
    return manager.run(max_blocks=max_blocks)
