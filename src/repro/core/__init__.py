"""Core orchestration: configuration, manager, and the one-call helper."""

from typing import Optional, Union

from ..cfg.builder import ProgramCFG, build_cfg
from ..isa.program import Program
from .config import (
    ConfigError,
    DECOMPRESSION_STRATEGIES,
    EVICTION_POLICIES,
    GRANULARITIES,
    IMAGE_SCHEMES,
    SimulationConfig,
)
from .manager import CodeCompressionManager
from .residency import ResidencySubsystem
from ..runtime.metrics import SimulationResult


def simulate(
    program: Union[Program, ProgramCFG],
    config: Optional[SimulationConfig] = None,
    max_blocks: Optional[int] = None,
) -> SimulationResult:
    """Run one simulation: the one-call public entry point.

    ``program`` may be a linked :class:`~repro.isa.program.Program` (the
    CFG is built automatically) or an already-built
    :class:`~repro.cfg.builder.ProgramCFG`.
    """
    cfg = program if isinstance(program, ProgramCFG) else build_cfg(program)
    manager = CodeCompressionManager(cfg, config)
    return manager.run(max_blocks=max_blocks)


__all__ = [
    "CodeCompressionManager",
    "ConfigError",
    "DECOMPRESSION_STRATEGIES",
    "EVICTION_POLICIES",
    "GRANULARITIES",
    "IMAGE_SCHEMES",
    "ResidencySubsystem",
    "SimulationConfig",
    "SimulationResult",
    "simulate",
]
