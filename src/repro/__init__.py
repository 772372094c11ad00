"""repro — access pattern-based code compression for memory-constrained
embedded systems.

A full reproduction of Ozturk, Saputra, Kandemir & Kolcu (DATE 2005): a
CFG-guided scheme that keeps basic blocks compressed in memory, decompresses
them as the instruction access pattern approaches (on demand or with
pre-decompression), and recompresses them with the k-edge algorithm once
their executions are over.

Quickstart::

    from repro import assemble, simulate, SimulationConfig

    program = assemble(open("app.asm").read(), "app")
    result = simulate(program, SimulationConfig(
        codec="lzw", decompression="pre-single",
        k_compress=4, k_decompress=2,
    ))
    print(result.render())

For anything grid-shaped — parameter sweeps, design-space studies,
parallel execution — use the declarative facade::

    from repro import api

    spec = api.ExperimentSpec(
        workloads=["composite", "fsm"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=api.grid(k_compress=[1, 2, 4, 8, "inf"]),
    )
    print(api.run_experiment(spec, jobs=4)
          .pivot(value="average_saving", cols="k_compress").render())

Package map:

* :mod:`repro.api` — the public experiment facade: declarative specs,
  pluggable serial/parallel executors, versioned result sets;
* :mod:`repro.registry` — the one generic component registry behind
  codecs, strategies, predictors, workloads, executors,
  memory hierarchies, and codec-assignment policies;
* :mod:`repro.isa` — the embedded target ISA, assembler, binary encoding;
* :mod:`repro.cfg` — basic blocks, control flow graph, loops, profiles;
* :mod:`repro.compress` — codecs (Huffman, LZW, LZ77, dictionary, ...);
* :mod:`repro.memory` — compressed/decompressed memory image, allocator,
  remember sets, memory-hierarchy presets;
* :mod:`repro.selection` — profile-guided per-unit codec assignment
  (selective compression policies);
* :mod:`repro.runtime` — the cycle-accounted machine, background-thread
  timelines, metrics;
* :mod:`repro.strategies` — k-edge compression, on-demand and
  pre-decompression policies, predictors, memory budgets;
* :mod:`repro.core` — the manager tying it all together;
* :mod:`repro.workloads` — embedded benchmark kernels and generators;
* :mod:`repro.analysis` — the internal sweep layer (record each
  program once, replay every cell) and reporting helpers underneath
  :mod:`repro.api`.
"""

from .cfg import BasicBlock, ControlFlowGraph, EdgeProfile, ProgramCFG, build_cfg
from .core import (
    CodeCompressionManager,
    ConfigError,
    SimulationConfig,
    SimulationResult,
    simulate,
)
from .isa import Program, ProgramBuilder, assemble
from .compress import available_codecs, get_codec

__version__ = "0.1.0"

__all__ = [
    "BasicBlock",
    "CodeCompressionManager",
    "ConfigError",
    "ControlFlowGraph",
    "EdgeProfile",
    "Program",
    "ProgramBuilder",
    "ProgramCFG",
    "SimulationConfig",
    "SimulationResult",
    "__version__",
    "assemble",
    "available_codecs",
    "build_cfg",
    "get_codec",
    "simulate",
]
