"""Strategy interfaces.

The paper separates *when to compress* (the k-edge compression algorithm,
Section 3) from *when/what to decompress* (on-demand vs. the
pre-decompression family, Section 4).  The two policy interfaces here map
one-to-one onto that split; the simulator invokes them at block entry, at
every edge traversal, and at block exit.

Policies see the simulator through :class:`ManagerView` — enough to inspect
the CFG, residency, and the access pattern, without owning any mechanism.
"""

from __future__ import annotations

import abc
from typing import List, Protocol, Set

from ..cfg.builder import ProgramCFG
from ..cfg.profile import EdgeProfile
from ..registry import Registry

#: The decompression-strategy family, in the unified component catalog.
#: Policy classes register themselves in their defining modules; the
#: "none" baseline (no image, no policy) is added by the package init.
STRATEGIES = Registry("strategies", item="decompression strategy")


class ManagerView(Protocol):
    """What a policy may observe of the running simulation."""

    cfg: ProgramCFG
    profile: EdgeProfile

    def unit_of(self, block_id: int) -> int:
        """Compression-unit id owning ``block_id`` (units are single blocks
        at the paper's granularity, whole functions for the E6 baseline)."""
        ...

    def unit_blocks(self, unit_id: int) -> Set[int]:
        """Block ids belonging to ``unit_id``."""
        ...

    def resident_units(self) -> Set[int]:
        """Units that currently have a decompressed copy."""
        ...

    def is_unit_resident(self, unit_id: int) -> bool:
        """True when ``unit_id`` is decompressed (or being decompressed)."""
        ...


class CompressionPolicy(abc.ABC):
    """Decides when a decompressed unit's copy is deleted (recompressed)."""

    name: str = "abstract"

    def bind(self, view: ManagerView) -> None:
        """Attach the policy to a running simulation."""
        self.view = view

    @abc.abstractmethod
    def on_unit_enter(self, unit_id: int) -> None:
        """The execution thread entered a block of ``unit_id``."""

    @abc.abstractmethod
    def on_edge(self, src_unit: int, dst_unit: int) -> List[int]:
        """An edge was traversed; return unit ids to recompress now.

        The destination unit must never be returned (it is about to
        execute); the simulator enforces this with an assertion.
        """

    def on_unit_released(self, unit_id: int) -> None:
        """``unit_id`` lost its decompressed copy (recompress or evict)."""

    def on_unit_decompressed(self, unit_id: int) -> None:
        """``unit_id`` gained a decompressed copy."""


class DecompressionPolicy(abc.ABC):
    """Decides which units to decompress ahead of (or at) need."""

    name: str = "abstract"

    #: True when the policy needs the background decompression thread
    #: (pre-decompression); on-demand runs in the fault handler instead.
    uses_thread: bool = True

    def bind(self, view: ManagerView) -> None:
        """Attach the policy to a running simulation."""
        self.view = view

    def on_program_start(self, entry_block: int) -> List[int]:
        """Blocks to pre-decompress before execution starts."""
        return []

    @abc.abstractmethod
    def on_block_exit(self, block_id: int) -> List[int]:
        """The execution thread is leaving ``block_id``; return block ids to
        pre-decompress (the simulator maps them to units, skips resident
        ones, and schedules the background thread)."""

    def on_edge(self, src_block: int, dst_block: int) -> None:
        """Observe the actually-taken edge (for online predictors)."""
