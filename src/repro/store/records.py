"""Cell result records: SweepRun <-> JSON-safe dict round-trip.

A record carries everything :class:`~repro.runtime.metrics.SimulationResult`
holds — counters, footprint timeline steps, sizes, registers, the block
trace — so a cache hit reconstructs a *live* result object whose derived
metrics (summaries, savings, overheads) are byte-identical to a fresh
simulation.  The configuration itself is NOT stored: the executor always
has the live :class:`SimulationConfig` in hand (it computed the
fingerprint from it), and re-attaching it guarantees record/config can
never drift apart.

The field tables below give every stored value its exact type, and both
directions follow them: :func:`run_to_record` writes their fields, and
:func:`record_to_run` adopts a record only when each dict has exactly
their keys and each value exactly one of their types (``type`` is
compared, so a ``bool`` is not an ``int`` and nothing is coerced).

The footprint timeline (one step per fill and release, most of a
record's bytes) is stored as ``{"cycles", "values", "peak",
"average"}``: each column as the hex text of its little-endian int64s,
so ``json`` reads one string instead of a few hundred ints, plus the
run's peak and its time-weighted average up to ``total_cycles``, which
the decoder hands to the result (:attr:`SimulationResult.footprint_stats`)
so that its summary re-derives neither.  The columns are adopted only
when both texts decode strictly (hex digits only, an even count) to
whole int64s, equal in number, with strictly increasing cycles.

Any other record version is a miss: the cell is recomputed and its
record rewritten, once.  v3 stored the footprint columns as JSON int
lists, with no peak or average, so a v3 store pays one cold sweep.

Error runs are never recorded (a raising cell must re-raise on the next
attempt, not be replayed from cache), and runs whose trace or timeline
would bloat the store past :data:`MAX_CACHEABLE_ENTRIES` are skipped —
the sweep still works, those cells just recompute.
"""

from __future__ import annotations

from binascii import unhexlify
from operator import lt
from struct import pack, unpack
from typing import Any, Dict, List, Tuple

from ..analysis.sweep import SweepRun
from ..core.config import SimulationConfig
from ..runtime.metrics import (
    COUNTER_NAMES,
    Counters,
    FootprintTimeline,
    SimulationResult,
)
from .cas import StoreError

#: Bumped on any change to the record shape.  v2: ``registers`` may be
#: null (trace replays do not model register state), plus the ``engine``
#: tag and the ``trace_truncated`` flag.  v3: ``footprint`` is the
#: column pair ``[cycles, footprints]``, not one ``[cycle, footprint]``
#: row per step.  v4: ``footprint`` holds each column as int64 hex text,
#: plus the run's peak and average footprint.
RECORD_VERSION = 4

#: Schema identifier embedded in every stored cell record.
RECORD_SCHEMA = "repro.store.cell"

#: Cells whose block trace plus footprint timeline exceed this many
#: entries are not cached (a multi-megabyte JSON per cell would turn the
#: store into the bottleneck it exists to remove).
MAX_CACHEABLE_ENTRIES = 200_000

_Types = Dict[str, Tuple[type, ...]]

#: Each field of a record, and the exact types its value may have.
_RECORD: _Types = {
    "schema": (str,),
    "version": (int,),
    "fingerprint": (str,),
    "workload": (str,),
    "validation": (list,),
    "result": (dict,),
}

#: The result fields a record stores as they are.
_SCALARS: _Types = {
    "program": (str,),
    "strategy": (str,),
    "codec": (str,),
    "k_compress": (int, type(None)),
    "k_decompress": (int, type(None)),
    "total_cycles": (int,),
    "execution_cycles": (int,),
    "uncompressed_size": (int,),
    "compressed_size": (int,),
    "trace_truncated": (bool,),
    "engine": (str,),
}

_RESULT: _Types = {
    **_SCALARS,
    "counters": (dict,),
    "footprint": (dict,),
    "registers": (list, type(None)),
    "block_trace": (list,),
}

_COUNTERS: _Types = dict.fromkeys(COUNTER_NAMES, (int,))

_FOOTPRINT: _Types = {
    "cycles": (str,),
    "values": (str,),
    "peak": (int,),
    "average": (float,),
}


def is_cacheable(run: SweepRun) -> bool:
    """True when ``run`` may be written to the store."""
    if run.error is not None:
        return False
    result = run.result
    entries = len(result.block_trace) + len(result.footprint)
    return entries <= MAX_CACHEABLE_ENTRIES


def _pack(column: List[int]) -> str:
    """``column`` as the hex text of its little-endian int64s."""
    return pack(f"<{len(column)}q", *column).hex()


def _unpack(text: str) -> List[int]:
    """The ints :func:`_pack` wrote; :class:`ValueError` unless ``text``
    is hex digits only, of a whole number of int64s."""
    raw = unhexlify(text)  # binascii.Error is a ValueError
    count, partial = divmod(len(raw), 8)
    if partial:
        raise ValueError("a footprint column is not whole int64s")
    return list(unpack(f"<{count}q", raw))


def _typed(data: Dict[str, Any], types: _Types) -> Dict[str, Any]:
    """``data`` itself when it has exactly ``types``' keys, each value of
    one of its exact types; else :class:`ValueError`."""
    if data.keys() != types.keys():
        raise ValueError(f"fields {sorted(data.keys() ^ types.keys())}")
    for name, allowed in types.items():
        if type(data[name]) not in allowed:
            raise ValueError(f"{name} is a {type(data[name]).__name__}")
    return data


def _list_of(kind: type, items: List[Any]) -> List[Any]:
    """``items`` itself when every item's type is exactly ``kind``."""
    if not set(map(type, items)) <= {kind}:
        raise ValueError(f"expected a list of {kind.__name__}")
    return items


def run_to_record(run: SweepRun, fingerprint: str) -> Dict[str, Any]:
    """Serialise one completed cell into its JSON-safe record."""
    result = run.result
    counters = result.counters
    return {
        "schema": RECORD_SCHEMA,
        "version": RECORD_VERSION,
        "fingerprint": fingerprint,
        "workload": run.workload,
        "validation": list(run.validation),
        "result": {
            **{name: getattr(result, name) for name in _SCALARS},
            "counters": {name: getattr(counters, name)
                         for name in _COUNTERS},
            "footprint": {
                "cycles": _pack(result.footprint.cycles),
                "values": _pack(result.footprint.values),
                "peak": result.peak_footprint,
                "average": result.average_footprint,
            },
            "registers": (
                None if result.registers is None
                else list(result.registers)
            ),
            "block_trace": list(result.block_trace),
        },
    }


def record_to_run(
    record: Dict[str, Any], config: SimulationConfig
) -> SweepRun:
    """Rebuild a live :class:`SweepRun` from a stored record.

    Raises :class:`StoreError` on any shape or type mismatch; callers
    treat that as a cache miss and recompute.
    """
    try:
        _typed(record, _RECORD)
        if record["schema"] != RECORD_SCHEMA:
            raise ValueError(f"schema {record['schema']!r}")
        if record["version"] != RECORD_VERSION:
            raise ValueError(f"version {record['version']!r}")
        data = _typed(record["result"], _RESULT)
        footprint = _typed(data["footprint"], _FOOTPRINT)
        cycles = _unpack(footprint["cycles"])
        values = _unpack(footprint["values"])
        if len(cycles) != len(values):
            raise ValueError("footprint columns differ in length")
        if not all(map(lt, cycles, cycles[1:])):
            raise ValueError("footprint cycles do not strictly increase")
        registers = data["registers"]
        result = SimulationResult(
            **{name: data[name] for name in _SCALARS},
            counters=Counters(**_typed(data["counters"], _COUNTERS)),
            footprint=FootprintTimeline(cycles, values),
            registers=(
                None if registers is None else _list_of(int, registers)
            ),
            block_trace=_list_of(int, data["block_trace"]),
        )
        result.footprint_stats = (footprint["peak"], footprint["average"])
        return SweepRun(
            workload=record["workload"],
            config=config,
            result=result,
            validation=_list_of(str, record["validation"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise StoreError(f"malformed cell record: {exc}") from exc
