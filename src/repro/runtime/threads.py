"""Deterministic background-thread tallies (Figure 4 of the paper).

The paper employs three threads: execution, decompression, compression.
The two background threads are single-server FIFO work queues on the
same cycle clock as the execution thread:

* a job scheduled at cycle ``t`` starts when the worker is free and
  completes ``latency`` cycles later;
* the execution thread stalls only when it *reaches* a block whose
  decompression has not completed (it waits for the remainder);
* cancelling a job (e.g. the k-edge policy recompresses a block whose
  pre-decompression never started) refunds the un-performed work and
  re-chains the queue — the worker only "spends" cycles it actually
  worked;
* "the compression thread utilizes the idle cycles of the execution
  thread" (Section 3) — by default background work is free for the
  execution thread (separate core / DMA engine); an optional
  ``contention`` factor charges the execution thread a fraction of every
  busy background cycle to model a shared single-issue core.

The queue arithmetic itself runs inside the replay kernel
(:mod:`repro.core.replay`); :class:`BackgroundWorker` holds the tallies
a run leaves behind.  Determinism: no real threads, just arithmetic on
completion times, so all experiments reproduce exactly.
"""

from __future__ import annotations


class BackgroundWorker:
    """One background thread's end-of-run tallies.

    ``contention`` in [0, 1] is the fraction of each busy background cycle
    that the execution thread must additionally pay (0 = perfectly
    parallel, 1 = fully serialised on the main core).
    """

    def __init__(self, name: str, contention: float = 0.0) -> None:
        if not 0.0 <= contention <= 1.0:
            raise ValueError(
                f"contention must be in [0, 1], got {contention}"
            )
        self.name = name
        self.contention = contention
        self.free_at = 0
        self.busy_cycles = 0  # work actually performed (refunds applied)
        self.jobs_completed = 0
        self.jobs_cancelled = 0

    def contention_cycles(self) -> int:
        """Execution-thread cycles charged for sharing the core."""
        return int(round(self.busy_cycles * self.contention))
