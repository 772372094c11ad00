"""Metrics: footprint timeline, counters, and the per-run result record.

The paper's two axes are *memory space consumption* and *performance
overhead*; everything in this module exists to measure those two, plus the
secondary quantities (stalls, patches, predictor accuracy) the analysis
sections discuss.
"""

from __future__ import annotations

import dataclasses
from bisect import bisect_left
from dataclasses import dataclass, field
from operator import lt, mul, sub
from typing import Dict, List, Optional, Tuple

#: Integers below this (sums of them included) are exact as floats.
_EXACT_FLOAT = 1 << 53


def int_list(value: object) -> List[int]:
    """``value`` itself when it is a list of plain ints, else
    :class:`ValueError` (a ``bool`` is not a plain int).  One pass over
    the types, for lists decoded from stored records."""
    if type(value) is not list or not set(map(type, value)) <= {int}:
        raise ValueError("expected a list of ints")
    return value


class FootprintTimeline:
    """Piecewise-constant memory footprint over cycle time.

    ``record(cycle, bytes)`` appends a step; peak and time-weighted average
    are computed over [first record, close cycle].  Steps live in two flat
    int lists, so a run keeps no per-step object for the collector.
    """

    def __init__(self) -> None:
        self._cycles: List[int] = []
        self._values: List[int] = []

    def __len__(self) -> int:
        return len(self._cycles)

    def record(self, cycle: int, footprint: int) -> None:
        """Record that the footprint is ``footprint`` from ``cycle`` on."""
        cycles = self._cycles
        if cycles and cycles[-1] == cycle:
            self._values[-1] = footprint
            return
        if cycles and cycle < cycles[-1]:
            raise ValueError(
                f"footprint recorded out of order: {cycle} after "
                f"{cycles[-1]}"
            )
        cycles.append(cycle)
        self._values.append(footprint)

    @property
    def samples(self) -> List[Tuple[int, int]]:
        """The recorded (cycle, footprint) steps."""
        return list(zip(self._cycles, self._values))

    def columns(self) -> List[List[int]]:
        """The steps as ``[cycles, footprints]``, two flat int lists
        (the stored form)."""
        return [list(self._cycles), list(self._values)]

    @classmethod
    def from_columns(
        cls, cycles: List[int], values: List[int]
    ) -> "FootprintTimeline":
        """Rebuild a timeline from :meth:`columns` output.

        Both columns must be lists of equal length holding plain ints
        (a ``bool``, float or string raises :class:`ValueError`).  With
        strictly increasing cycles the lists themselves are adopted;
        any others go through :meth:`record` (equal cycles merge, out
        of order raises), so a reconstructed timeline is
        indistinguishable from the original (the experiment store
        round-trips results through this).
        """
        if len(int_list(cycles)) != len(int_list(values)):
            raise ValueError("footprint columns differ in length")
        timeline = cls()
        if all(map(lt, cycles, cycles[1:])):
            timeline._cycles, timeline._values = cycles, values
        else:
            for cycle, footprint in zip(cycles, values):
                timeline.record(cycle, footprint)
        return timeline

    @property
    def peak(self) -> int:
        """Largest footprint ever recorded."""
        return max(self._values, default=0)

    def average(self, end_cycle: Optional[int] = None) -> float:
        """Time-weighted average footprint up to ``end_cycle``."""
        cycles = self._cycles
        values = self._values
        if not cycles:
            return 0.0
        start = cycles[0]
        if end_cycle is None:
            end_cycle = cycles[-1]
        if end_cycle <= start:
            return float(values[0])
        # Each step's footprint times its cycles before ``end_cycle``.
        cut = bisect_left(cycles, end_cycle)
        terms = list(map(
            mul, values[:cut], map(sub, cycles[1:cut] + [end_cycle], cycles)
        ))
        span = end_cycle - start
        total = sum(terms)
        if total < _EXACT_FLOAT and span < _EXACT_FLOAT and min(values) >= 0:
            # No partial sum reaches 2**53, so a float sum is exact too.
            return total / span
        total = 0.0
        for term in terms:
            total += term
        return total / span


@dataclass
class Counters:
    """Raw event counters maintained by the simulator."""

    blocks_executed: int = 0
    instructions: int = 0
    faults: int = 0
    decompressions: int = 0
    recompressions: int = 0
    stall_cycles: int = 0
    stalls: int = 0
    patches: int = 0
    evictions: int = 0
    predictions: int = 0
    correct_predictions: int = 0
    background_decompress_cycles: int = 0
    background_compress_cycles: int = 0
    wasted_decompressions: int = 0  # pre-decompressed, recompressed unused
    dropped_prefetches: int = 0  # shed when the thread backlog was full
    #: Bytes read from the target code memory (Section 2's traffic claim):
    #: block bytes per entry when uncompressed, compressed payload bytes
    #: per materialisation when compressed.  Bytes are rounded to the
    #: hierarchy target level's burst granularity.
    target_memory_bytes: int = 0
    #: Read transactions against the target memory — one per block read
    #: (materialisation in compressed mode, every entry in uncompressed
    #: mode).  Drives the hierarchy's per-access latency and energy.
    target_memory_accesses: int = 0

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of pre-decompress-single predictions that were used."""
        if self.predictions == 0:
            return 0.0
        return self.correct_predictions / self.predictions

    def to_dict(self) -> Dict[str, int]:
        """All counter fields as a flat name -> value dict."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)
        }

    @classmethod
    def from_dict(cls, data: Dict[str, int]) -> "Counters":
        """Rebuild counters from :meth:`to_dict` output.

        Strict: unknown or missing fields raise (the experiment store
        treats that as a cache miss — a record written by a different
        schema must never be half-read).
        """
        names = {f.name for f in dataclasses.fields(cls)}
        if set(data) != names:
            raise ValueError(
                f"counter fields {sorted(set(data) ^ names)} do not "
                f"round-trip"
            )
        return cls(**{name: int(data[name]) for name in names})


@dataclass
class SimulationResult:
    """Everything one simulation run produced.

    ``total_cycles`` includes decompression stalls; ``execution_cycles`` is
    pure compute.  Overhead versus an uncompressed baseline is
    ``total_cycles / execution_cycles - 1`` because the baseline executes
    the same instruction stream with no stalls.

    ``engine`` says how the run got its block trace: "machine" when it
    interpreted the program (``registers`` holds the final machine
    registers), "trace" when it replayed a recorded trace, whose
    ``registers`` is ``None`` (replay does not model register state) —
    consumers must never compare registers across the two.  A sweep
    replays every cell whose recording completed.
    ``replay_path`` says which kernel path ran.
    ``trace_truncated`` is True when ``block_trace`` hit the recording
    cap and is therefore incomplete; truncated traces must not be
    replayed (:class:`~repro.runtime.trace_sim.PreparedTrace` refuses
    them).
    """

    program: str
    strategy: str
    codec: str
    k_compress: Optional[int]
    k_decompress: Optional[int]
    total_cycles: int
    execution_cycles: int
    counters: Counters
    footprint: FootprintTimeline
    uncompressed_size: int
    compressed_size: int
    registers: Optional[List[int]] = field(default_factory=list)
    block_trace: List[int] = field(default_factory=list)
    trace_truncated: bool = False
    engine: str = "machine"
    #: Per-run phase breakdown (execute + per-kind stall cycles) filled
    #: in only when the run was traced (see :mod:`repro.obs`).  Live
    #: diagnostics only: excluded from :meth:`summary` and from every
    #: serialised form, so traced and untraced runs stay byte-identical.
    phases: Optional[Dict[str, int]] = None
    #: Which replay-kernel path computed the run — ``"batched"`` (may
    #: share decision passes) or ``"stepped"`` — and the condition that
    #: declined the batched path (see :mod:`repro.core.replay`).
    #: ``replay_shared`` is True when a batched run charged its clock
    #: from a decision pass another run made on the same plan.
    #: Provenance only, like ``phases``: never serialised or compared.
    replay_path: Optional[str] = field(default=None, compare=False)
    replay_declined: Optional[str] = field(default=None, compare=False)
    replay_shared: bool = field(default=False, compare=False)

    # ----------------------------------------------------------------
    # The paper's headline metrics
    # ----------------------------------------------------------------

    @property
    def cycle_overhead(self) -> float:
        """Fractional slowdown vs. running fully decompressed."""
        if self.execution_cycles == 0:
            return 0.0
        return self.total_cycles / self.execution_cycles - 1.0

    @property
    def peak_footprint(self) -> int:
        """Peak memory holding code during the run (bytes)."""
        return self.footprint.peak

    @property
    def average_footprint(self) -> float:
        """Time-weighted average code memory (bytes)."""
        return self.footprint.average(self.total_cycles)

    @property
    def peak_saving(self) -> float:
        """Peak-memory saving vs. the uncompressed image (fraction)."""
        return self._saving(self.peak_footprint)

    @property
    def average_saving(self) -> float:
        """Average-memory saving vs. the uncompressed image (fraction)."""
        return self._saving(self.average_footprint)

    def _saving(self, footprint: float) -> float:
        if self.uncompressed_size == 0:
            return 0.0
        return 1.0 - footprint / self.uncompressed_size

    def summary(self) -> Dict[str, float]:
        """Flat dict of headline numbers (table-friendly).  Each
        footprint statistic scans the timeline once."""
        peak = self.peak_footprint
        average = self.average_footprint
        return {
            "total_cycles": float(self.total_cycles),
            "execution_cycles": float(self.execution_cycles),
            "cycle_overhead": self.cycle_overhead,
            "peak_footprint": float(peak),
            "average_footprint": average,
            "peak_saving": self._saving(peak),
            "average_saving": self._saving(average),
            "faults": float(self.counters.faults),
            "decompressions": float(self.counters.decompressions),
            "recompressions": float(self.counters.recompressions),
            "stall_cycles": float(self.counters.stall_cycles),
            "patches": float(self.counters.patches),
            "evictions": float(self.counters.evictions),
            "prediction_accuracy": self.counters.prediction_accuracy,
        }

    def render(self) -> str:
        """Human-readable one-block summary."""
        lines = [
            f"{self.program} [{self.strategy}, codec={self.codec}"
            + (f", kc={self.k_compress}" if self.k_compress is not None
               else "")
            + (f", kd={self.k_decompress}" if self.k_decompress is not None
               else "")
            + "]",
            f"  cycles: {self.total_cycles} "
            f"(exec {self.execution_cycles}, "
            f"overhead {self.cycle_overhead:.1%})",
            f"  memory: peak {self.peak_footprint}B "
            f"(saving {self.peak_saving:.1%}), "
            f"avg {self.average_footprint:.0f}B "
            f"(saving {self.average_saving:.1%})",
            f"  image: {self.compressed_size}B compressed / "
            f"{self.uncompressed_size}B uncompressed",
            f"  events: {self.counters.faults} faults, "
            f"{self.counters.decompressions} decompressions, "
            f"{self.counters.recompressions} recompressions, "
            f"{self.counters.stall_cycles} stall cycles, "
            f"{self.counters.patches} patches",
        ]
        return "\n".join(lines)
