"""Edge and block execution profiles.

The pre-decompress-single strategy needs to "predict the block (among
these...) that is to be the most likely one to be reached" (Section 4).
Likelihood comes from an *edge profile*: counts of traversals per CFG edge,
gathered either offline (a profiling run — see
:func:`repro.api.profile_workload`) or online (updated while the
program runs).  This module provides the profile container and helpers to
derive branch probabilities from it.

Two consumers drive the design: the "static-profile" *predictor*
(:mod:`repro.strategies.predictor`) reads successor probabilities, and
the profile-guided *codec-assignment* policies (:mod:`repro.selection`)
rank compression units by their block entry counts.  Profiles serialise
into store fingerprints by content
(:func:`repro.store.fingerprint.config_signature`), so a profiled
configuration caches as stably as an unprofiled one.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

from .graph import ControlFlowGraph


@dataclass
class EdgeProfile:
    """Traversal counts per (src, dst) edge plus per-block entry counts.

    ``block_counts`` is maintained *by* the recording methods, not
    independently: :meth:`record_edge` counts the destination block's
    entry and :meth:`record_entry` counts a sourceless entry (program
    start), so a block's count is always the number of times execution
    entered it.  Consumers that only need hotness (the codec-assignment
    policies) read ``block_counts``; consumers that need branch
    likelihood (the predictors) read the edge counts.
    """

    edge_counts: Dict[Tuple[int, int], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    block_counts: Dict[int, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_edge(self, src: int, dst: int, count: int = 1) -> None:
        """Record ``count`` traversals of edge ``src -> dst``."""
        self.edge_counts[(src, dst)] += count
        self.block_counts[dst] += count

    def record_entry(self, block_id: int, count: int = 1) -> None:
        """Record ``count`` entries into ``block_id`` with no known source
        (program entry)."""
        self.block_counts[block_id] += count

    def record_trace(self, trace: Sequence[int]) -> None:
        """Record a whole block-id trace (consecutive pairs are edges)."""
        if not trace:
            return
        self.record_entry(trace[0])
        for src, dst in zip(trace, trace[1:]):
            self.record_edge(src, dst)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def edge_count(self, src: int, dst: int) -> int:
        """Traversal count of edge ``src -> dst``."""
        return self.edge_counts.get((src, dst), 0)

    def block_count(self, block_id: int) -> int:
        """Entry count of ``block_id``."""
        return self.block_counts.get(block_id, 0)

    @property
    def total_transitions(self) -> int:
        """Total number of recorded edge traversals."""
        return sum(self.edge_counts.values())

    def most_likely_successor(
        self, cfg: ControlFlowGraph, block_id: int
    ) -> Optional[int]:
        """The successor with the highest traversal count (ties: lowest id)."""
        return self.most_likely_among(
            block_id, sorted(cfg.successors(block_id))
        )

    def most_likely_among(
        self, block_id: int, successors: Sequence[int]
    ) -> Optional[int]:
        """The most traversed of ``successors`` (sorted ids) leaving
        ``block_id``, ties to the first; None when there are none."""
        if len(successors) < 2:
            return successors[0] if successors else None
        counts = self.edge_counts
        return max(
            successors, key=lambda succ: counts.get((block_id, succ), 0)
        )

    def merge(self, other: "EdgeProfile") -> "EdgeProfile":
        """Return a new profile with counts of ``self`` and ``other``
        summed."""
        merged = EdgeProfile()
        for (src, dst), count in self.edge_counts.items():
            merged.edge_counts[(src, dst)] += count
        for (src, dst), count in other.edge_counts.items():
            merged.edge_counts[(src, dst)] += count
        for block, count in self.block_counts.items():
            merged.block_counts[block] += count
        for block, count in other.block_counts.items():
            merged.block_counts[block] += count
        return merged


def profile_from_trace(trace: Sequence[int]) -> EdgeProfile:
    """Build an :class:`EdgeProfile` from a recorded block trace."""
    profile = EdgeProfile()
    profile.record_trace(trace)
    return profile
