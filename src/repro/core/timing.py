"""The simulation's clock: one cycle counter, two background workers.

:class:`TimingModel` owns the global cycle clock (``now``), the
execution-cycle tally and the two background workers of Figure 4.  The
replay kernel (:mod:`repro.core.replay`) is the one place that charges
them: it advances the clock, charges every fault and stall, runs both
workers' FIFOs and the end-of-run contention charge, and leaves the
totals here.

The model stays purely arithmetic — no real threads, no wall clock — so
simulations reproduce exactly on any machine.
"""

from __future__ import annotations

from ..runtime.threads import BackgroundWorker
from .config import SimulationConfig


class TimingModel:
    """Cycle clock + background-worker tallies."""

    def __init__(self, config: SimulationConfig) -> None:
        self.now = 0
        self.execution_cycles = 0
        self.decompress_worker = BackgroundWorker(
            "decompression", contention=config.contention
        )
        self.compress_worker = BackgroundWorker(
            "compression", contention=config.contention
        )
