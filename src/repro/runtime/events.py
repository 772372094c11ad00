"""Event trace of a simulation run.

The Figure 5 walk-through of the paper is an *event sequence* (faults,
decompressions, branch patches, deletions).  The simulator emits these
events so tests and the E9 benchmark can replay and check the exact
scenario, and so users can debug strategy behaviour.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, NamedTuple, Optional


class EventKind(enum.Enum):
    """Kinds of trace events emitted by the simulator."""

    BLOCK_ENTER = "block_enter"
    FAULT = "fault"                    # fetch hit a compressed block
    DECOMPRESS_START = "decompress_start"
    DECOMPRESS_DONE = "decompress_done"
    STALL = "stall"                    # execution waited on decompression
    RECOMPRESS = "recompress"          # decompressed copy deleted (k-edge)
    PATCH = "patch"                    # branch target updated
    EVICT = "evict"                    # budget policy evicted a block
    PREDICT = "predict"                # pre-decompress-single chose a block


class Event(NamedTuple):
    """One trace event.

    ``cycle`` is the execution-thread clock when the event was emitted;
    ``block_id`` the subject block; ``detail`` a small free-form payload
    (stall length, patch count, predicted id...).  A named tuple: logged
    runs build one per executed block, and tuple construction costs a
    fraction of a frozen dataclass's.
    """

    cycle: int
    kind: EventKind
    block_id: int
    detail: int = 0

    def __str__(self) -> str:
        return (
            f"@{self.cycle:>8} {self.kind.value:<16} B{self.block_id}"
            + (f" ({self.detail})" if self.detail else "")
        )


class EventLog:
    """Append-only event trace with query helpers.

    Tracing costs time on big runs, so the log can be disabled (events are
    then dropped); counters in the metrics module are always maintained
    independently of the log.
    """

    def __init__(self, enabled: bool = True, capacity: int = 1_000_000) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.events: List[Event] = []
        self.dropped = 0

    def emit(
        self, cycle: int, kind: EventKind, block_id: int, detail: int = 0
    ) -> None:
        """Record an event (no-op when disabled or over capacity)."""
        if not self.enabled:
            return
        if len(self.events) >= self.capacity:
            self.dropped += 1
            return
        self.events.append(Event(cycle, kind, block_id, detail))

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def of_kind(self, kind: EventKind) -> List[Event]:
        """All events of ``kind`` in order."""
        return [event for event in self.events if event.kind is kind]

    def for_block(self, block_id: int) -> List[Event]:
        """All events touching ``block_id`` in order."""
        return [event for event in self.events if event.block_id == block_id]

    def block_sequence(self) -> List[int]:
        """The executed block-id sequence (BLOCK_ENTER events)."""
        return [
            event.block_id
            for event in self.events
            if event.kind is EventKind.BLOCK_ENTER
        ]

    def render(self, limit: Optional[int] = None) -> str:
        """Printable trace (first ``limit`` events)."""
        shown = self.events if limit is None else self.events[:limit]
        lines = [str(event) for event in shown]
        if limit is not None and len(self.events) > limit:
            lines.append(f"... ({len(self.events) - limit} more)")
        return "\n".join(lines)
