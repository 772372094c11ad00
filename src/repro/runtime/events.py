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
    (stall length, patch count, predicted id...).  The log stores these
    fields flat and builds the tuples only when it is read.
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

    Storage is one flat list holding four fields per event (cycle,
    kind, block id, detail) in emission order: a logged run emits
    several events per executed block, and extending a list by four
    fields costs a fraction of building a tuple per event.  Reading the
    log (:attr:`events`, iteration and the queries) builds the
    :class:`Event` tuples.

    Tracing costs time on big runs, so the log can be disabled (events are
    then dropped); counters in the metrics module are always maintained
    independently of the log.  Past ``capacity`` events, further events
    are counted in ``dropped`` instead of stored.
    """

    def __init__(self, enabled: bool = True, capacity: int = 1_000_000) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.dropped = 0
        self._flat: list = []

    def emit(
        self, cycle: int, kind: EventKind, block_id: int, detail: int = 0
    ) -> None:
        """Record an event (no-op when disabled or over capacity)."""
        if not self.enabled:
            return
        if len(self._flat) >= 4 * self.capacity:
            self.dropped += 1
            return
        self._flat.extend((cycle, kind, block_id, detail))

    def trim(self) -> None:
        """Drop the events stored past ``capacity``, counting them in
        ``dropped``: the replay kernel appends to the flat list
        unchecked and trims it as it goes."""
        excess = len(self._flat) - 4 * self.capacity
        if excess > 0:
            del self._flat[-excess:]
            self.dropped += excess // 4

    @property
    def events(self) -> List[Event]:
        """Every stored event, in emission order."""
        fields = iter(self._flat)
        return list(map(Event, fields, fields, fields, fields))

    def __len__(self) -> int:
        return len(self._flat) // 4

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
        if limit is not None and len(self) > limit:
            lines.append(f"... ({len(self) - limit} more)")
        return "\n".join(lines)
