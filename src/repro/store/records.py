"""Cell result records: SweepRun <-> JSON-safe dict round-trip.

A record carries everything :class:`~repro.runtime.metrics.SimulationResult`
holds — counters, footprint timeline steps, sizes, registers, the block
trace — so a cache hit reconstructs a *live* result object whose derived
metrics (summaries, savings, overheads) are byte-identical to a fresh
simulation.  The configuration itself is NOT stored: the executor always
has the live :class:`SimulationConfig` in hand (it computed the
fingerprint from it), and re-attaching it guarantees record/config can
never drift apart.

The footprint timeline (one step per fill and release, most of a
record's bytes) is stored as two flat int lists, ``[cycles,
footprints]``: the columns :class:`~repro.runtime.metrics.FootprintTimeline`
keeps in memory.  So a write builds no per-step list, and a read checks
each decoded list in one pass over its entries' types and adopts it,
instead of converting every step.  The block trace and registers are
checked and adopted the same way.

Error runs are never recorded (a raising cell must re-raise on the next
attempt, not be replayed from cache), and runs whose trace or timeline
would bloat the store past :data:`MAX_CACHEABLE_ENTRIES` are skipped —
the sweep still works, those cells just recompute.
"""

from __future__ import annotations

from typing import Any, Dict

from ..analysis.sweep import SweepRun
from ..core.config import SimulationConfig
from ..runtime.metrics import (
    Counters,
    FootprintTimeline,
    SimulationResult,
    int_list,
)
from .cas import StoreError

#: Bumped on any change to the record shape.  v2: ``registers`` may be
#: null (trace replays do not model register state), plus the ``engine``
#: tag and the ``trace_truncated`` flag.  v3: ``footprint`` is the
#: column pair ``[cycles, footprints]``, not one ``[cycle, footprint]``
#: row per step.
RECORD_VERSION = 3

#: Schema identifier embedded in every stored cell record.
RECORD_SCHEMA = "repro.store.cell"

#: Cells whose block trace plus footprint timeline exceed this many
#: entries are not cached (a multi-megabyte JSON per cell would turn the
#: store into the bottleneck it exists to remove).
MAX_CACHEABLE_ENTRIES = 200_000


def is_cacheable(run: SweepRun) -> bool:
    """True when ``run`` may be written to the store."""
    if run.error is not None:
        return False
    result = run.result
    entries = len(result.block_trace) + len(result.footprint)
    return entries <= MAX_CACHEABLE_ENTRIES


def run_to_record(run: SweepRun, fingerprint: str) -> Dict[str, Any]:
    """Serialise one completed cell into its JSON-safe record."""
    result = run.result
    return {
        "schema": RECORD_SCHEMA,
        "version": RECORD_VERSION,
        "fingerprint": fingerprint,
        "workload": run.workload,
        "validation": list(run.validation),
        "result": {
            "program": result.program,
            "strategy": result.strategy,
            "codec": result.codec,
            "k_compress": result.k_compress,
            "k_decompress": result.k_decompress,
            "total_cycles": result.total_cycles,
            "execution_cycles": result.execution_cycles,
            "counters": result.counters.to_dict(),
            "footprint": result.footprint.columns(),
            "uncompressed_size": result.uncompressed_size,
            "compressed_size": result.compressed_size,
            "registers": (
                None if result.registers is None
                else list(result.registers)
            ),
            "block_trace": list(result.block_trace),
            "trace_truncated": result.trace_truncated,
            "engine": result.engine,
        },
    }


def record_to_run(
    record: Dict[str, Any], config: SimulationConfig
) -> SweepRun:
    """Rebuild a live :class:`SweepRun` from a stored record.

    Raises :class:`StoreError` on any shape mismatch; callers treat
    that as a cache miss and recompute.
    """
    try:
        if record.get("schema") != RECORD_SCHEMA:
            raise ValueError(f"schema {record.get('schema')!r}")
        if record.get("version") != RECORD_VERSION:
            raise ValueError(f"version {record.get('version')!r}")
        data = record["result"]
        cycles, footprints = data["footprint"]
        result = SimulationResult(
            program=data["program"],
            strategy=data["strategy"],
            codec=data["codec"],
            k_compress=data["k_compress"],
            k_decompress=data["k_decompress"],
            total_cycles=int(data["total_cycles"]),
            execution_cycles=int(data["execution_cycles"]),
            counters=Counters.from_dict(data["counters"]),
            footprint=FootprintTimeline.from_columns(cycles, footprints),
            uncompressed_size=int(data["uncompressed_size"]),
            compressed_size=int(data["compressed_size"]),
            registers=(
                None if data["registers"] is None
                else int_list(data["registers"])
            ),
            block_trace=int_list(data["block_trace"]),
            trace_truncated=bool(data["trace_truncated"]),
            engine=str(data["engine"]),
        )
        return SweepRun(
            workload=record["workload"],
            config=config,
            result=result,
            validation=[str(v) for v in record["validation"]],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed cell record: {exc}") from exc
