"""Memory-traffic and energy model (paper Section 2's secondary claims).

"If there is another level of memory in front of the memory where our
approach targets..., the proposed approach also brings reductions in
memory access latency (as we need to read less amount of data from the
target memory) as well as in the energy consumed in bus/memory accesses."

The model: the level in front of the target memory holds the currently
decompressed copies, so the *target memory* is read only when a block is
(re)materialised:

* uncompressed system — every block entry streams the block's full bytes
  from the target memory (there is no smaller representation to hold);
* compressed system — each decompression reads the block's *compressed*
  bytes; re-entering a resident block hits the front memory for free.

Energy combines bus/memory traffic with the decompressor's work:
``E = traffic_bytes * bus_energy + accesses * access_energy
+ decompress_cycles * cpu_energy``.  The constants are no longer
hard-coded here: they derive from the configured
:class:`~repro.memory.hierarchy.MemoryHierarchy` preset through
:meth:`EnergyModel.for_hierarchy` (the zero-argument default equals the
``flat`` preset, i.e. the seed model).  Only ratios between
configurations are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..memory.hierarchy import MemoryHierarchy, get_hierarchy
from ..runtime.metrics import SimulationResult


@dataclass(frozen=True)
class EnergyModel:
    """Per-unit energy constants (nanojoules).

    ``access_nj`` is the fixed per-materialisation transaction energy of
    the target level (0 for the ``flat`` preset, so the default model
    reproduces the seed numbers exactly).
    """

    bus_nj_per_byte: float = 1.0
    cpu_nj_per_cycle: float = 0.1
    access_nj: float = 0.0

    @classmethod
    def for_hierarchy(
        cls, hierarchy: Union[str, MemoryHierarchy]
    ) -> "EnergyModel":
        """Derive the run energy model from a hierarchy preset.

        The bus energy is the target level's per-byte cost (the front
        memory's traffic is not separately metered), the per-access
        energy is the target's transaction cost, and the CPU energy is
        the hierarchy's decompressor constant.
        """
        h = get_hierarchy(hierarchy)
        return cls(
            bus_nj_per_byte=h.target.nj_per_byte,
            cpu_nj_per_cycle=h.cpu_nj_per_cycle,
            access_nj=h.target.nj_per_access,
        )

    def traffic_energy(self, bytes_read: int) -> float:
        """Energy of moving ``bytes_read`` over the memory bus."""
        return bytes_read * self.bus_nj_per_byte

    def decompress_energy(self, cycles: int) -> float:
        """Energy of ``cycles`` of decompressor work."""
        return cycles * self.cpu_nj_per_cycle

    def access_energy(self, accesses: int) -> float:
        """Fixed transaction energy of ``accesses`` target reads."""
        return accesses * self.access_nj

    def total_energy(self, result: SimulationResult) -> float:
        """Total modelled energy of a run (nJ).

        The per-access term uses ``target_memory_accesses`` — the same
        per-block-read transaction count the traffic and latency models
        charge — so all three hierarchy cost dimensions agree on what
        an access is.
        """
        decompress_cycles = (
            result.counters.background_decompress_cycles
            + result.counters.stall_cycles
        )
        return (
            self.traffic_energy(result.counters.target_memory_bytes)
            + self.access_energy(
                result.counters.target_memory_accesses
            )
            + self.decompress_energy(decompress_cycles)
        )

