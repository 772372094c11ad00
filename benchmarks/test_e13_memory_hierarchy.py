"""E13 (extension) — memory-hierarchy geometries x codecs.

The paper's Section 2 sketches a two-level memory picture (front memory
with the decompressed copies, target memory with the compressed image)
but never varies its geometry.  With the hierarchy now a first-class,
configurable layer (:mod:`repro.memory.hierarchy`), this experiment
sweeps the registered presets against two codecs and measures what the
geometry does to target-memory traffic, run time, and modelled energy:

* ``flat``          — the seed cost model: un-timed exact-byte reads;
* ``spm-front``     — scratchpad front over word-wide flash (burst 4 B,
  8-cycle access, 2 nJ/B);
* ``two-level-dram`` — cache front over burst-oriented DRAM (burst
  32 B, 40-cycle access): small compressed payloads over-fetch badly.

Shape checks: burst rounding strictly inflates target traffic with
burst size; non-flat targets add stall cycles; per-preset energy
numbers all differ.
"""

from __future__ import annotations

from conftest import record_experiment

from repro import api
from repro.analysis import EnergyModel, Table
from repro.core import SimulationConfig

_HIERARCHIES = ("flat", "spm-front", "two-level-dram")
_CODECS = ("shared-dict", "lzw")


def _config(hierarchy, codec):
    return SimulationConfig(
        codec=codec, decompression="ondemand", k_compress=16,
        hierarchy=hierarchy, trace_events=False, record_trace=False,
    )


_CONFIGS = [
    _config(hierarchy, codec)
    for hierarchy in _HIERARCHIES
    for codec in _CODECS
]


def run_experiment(workloads):
    grid = api.run_grid(workloads, _CONFIGS)
    assert not grid.failures()
    table = Table(
        "E13: memory-hierarchy presets x codecs (ondemand, kc=16)",
        ["workload", "hierarchy", "codec", "traffic_B", "total_cycles",
         "energy_nJ"],
    )
    shapes = []
    for name in grid.workloads():
        per_preset = {}
        for run in grid.by_workload(name):
            result = run.result
            hierarchy = run.config.hierarchy
            energy = EnergyModel.for_hierarchy(hierarchy)
            table.add_row(
                name, hierarchy, run.config.codec,
                int(result.counters.target_memory_bytes),
                int(result.total_cycles),
                round(energy.total_energy(result), 1),
            )
            per_preset.setdefault(hierarchy, []).append(
                (result.counters.target_memory_bytes,
                 result.total_cycles,
                 energy.total_energy(result))
            )
        shapes.append((name, per_preset))
    return table, shapes


def test_e13_memory_hierarchy(small_suite, benchmark):
    table, shapes = run_experiment(small_suite)
    for name, per_preset in shapes:
        for i, _codec in enumerate(_CODECS):
            flat_traffic, flat_cycles, flat_energy = \
                per_preset["flat"][i]
            spm_traffic, spm_cycles, spm_energy = \
                per_preset["spm-front"][i]
            dram_traffic, dram_cycles, dram_energy = \
                per_preset["two-level-dram"][i]
            # burst rounding strictly inflates target traffic...
            assert flat_traffic < spm_traffic < dram_traffic, name
            # ...slow targets stall the execution thread...
            assert flat_cycles < spm_cycles, name
            assert flat_cycles < dram_cycles, name
            # ...and every preset prices the same run differently.
            assert len({flat_energy, spm_energy, dram_energy}) == 3, \
                name
    record_experiment("e13_memory_hierarchy", table.render())

    benchmark.pedantic(
        lambda: api.run_grid(
            [small_suite[0]], [_config("spm-front", "shared-dict")]
        ),
        rounds=1, iterations=1,
    )
