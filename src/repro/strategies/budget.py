"""Memory-budget enforcement with victim selection (Section 2).

"All that needs to be done is to check before each basic block
decompression whether this decompression could result in exceeding the
maximum allowable memory space consumption, and if so, compress one of the
decompressed basic blocks... One could use LRU or a similar strategy to
select the victim."

The budget counts the *total* code footprint (compressed area + resident
decompressed copies), matching the paper's memory-space metric.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set


class BudgetError(RuntimeError):
    """Raised when the budget cannot be met even after evicting
    everything evictable (budget smaller than the compressed image plus
    the running block)."""


class MemoryBudget:
    """Cap on the code footprint, with pluggable victim selection.

    ``policy`` is one of:

    * ``"lru"``   — evict the least recently *used* (entered) unit;
    * ``"fifo"``  — evict the longest-resident unit;
    * ``"largest"`` — evict the biggest resident unit first (frees the
      most memory per patch cost).
    """

    POLICIES = ("lru", "fifo", "largest")

    def __init__(self, limit_bytes: int, policy: str = "lru") -> None:
        if limit_bytes <= 0:
            raise ValueError(
                f"budget must be positive, got {limit_bytes}"
            )
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown eviction policy '{policy}'; "
                f"available: {self.POLICIES}"
            )
        self.limit_bytes = limit_bytes
        self.policy = policy
        # Recency state, kept by the replay kernel (repro.core.replay):
        # one clock tick per unit entry and per decompression; a unit's
        # last entry and its residency start, in clock ticks.
        self._last_use: Dict[int, int] = {}
        self._resident_since: Dict[int, int] = {}
        self._clock = 0

    # ------------------------------------------------------------------
    # Victim selection
    # ------------------------------------------------------------------

    def select_victims(
        self,
        needed_bytes: int,
        current_footprint: int,
        resident: Set[int],
        protected: Set[int],
        size_of: Callable[[int], int],
    ) -> List[int]:
        """Pick units to evict so ``current_footprint + needed_bytes``
        fits under the limit.

        ``protected`` units (the currently executing one and the immediate
        destination) are never chosen.  Raises :class:`BudgetError` when
        the goal is unreachable.
        """
        overshoot = current_footprint + needed_bytes - self.limit_bytes
        if overshoot <= 0:
            return []
        candidates = sorted(u for u in resident if u not in protected)
        if self.policy == "largest":
            candidates.sort(key=lambda unit: -size_of(unit))
        else:
            candidates.sort(key=self._rank)
        victims: List[int] = []
        freed = 0
        for unit in candidates:
            victims.append(unit)
            freed += size_of(unit)
            if freed >= overshoot:
                return victims
        raise BudgetError(
            f"cannot fit {needed_bytes} bytes under budget "
            f"{self.limit_bytes}: footprint {current_footprint}, "
            f"only {freed} evictable"
        )

    def _rank(self, unit_id: int) -> int:
        if self.policy == "lru":
            return self._last_use.get(unit_id, 0)
        return self._resident_since.get(unit_id, 0)  # fifo
