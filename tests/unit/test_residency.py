"""Unit tests for residency: unit geometry, and the release mechanics.

Focus: budget eviction racing an in-flight pre-decompression.  An
evicted unit whose background decompression job is still pending must be
cancelled cleanly (unperformed work refunded, queue re-chained) and must
settle ``wasted_decompressions`` exactly once — never twice, however the
release happens.  The per-call mechanics are pinned on the frozen
layered oracle (``tests/oracle``); the replay kernel is held to that
oracle cell by cell in ``tests/integration/test_trace_sweep_equivalence.py``.
"""

import pytest

from oracle.layered import ResidencySubsystem, TimingModel
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core import residency as production
from repro.isa import assemble
from repro.runtime import EventKind
from repro.runtime.events import EventLog
from repro.runtime.metrics import Counters

_FAST = dict(trace_events=False, record_trace=False)


@pytest.fixture
def straight_cfg():
    return build_cfg(
        assemble(
            """
main:
    li   r1, 1
    jmp  b
b:
    addi r1, r1, 1
    jmp  c
c:
    addi r1, r1, 1
    halt
""",
            "straight",
        )
    )


def _subsystem(cfg, **config_kwargs):
    config = SimulationConfig(
        decompression="pre-all", k_compress=None, k_decompress=2,
        **config_kwargs, **_FAST,
    )
    counters = Counters()
    timing = TimingModel(config, counters)
    residency = ResidencySubsystem(
        cfg, config, timing, counters, EventLog(enabled=False)
    )
    return residency, timing, counters


class TestEvictionVsInFlightPredecompression:
    def test_eviction_cancels_pending_job(self, straight_cfg):
        residency, timing, counters = _subsystem(straight_cfg)
        residency.schedule_predecompression(0, protected=set())
        assert residency.is_unit_resident(0)
        assert timing.decompress_worker.backlog() == 1

        residency.release_unit(0, EventKind.EVICT)
        assert not residency.is_unit_resident(0)
        assert timing.decompress_worker.backlog() == 0
        assert timing.decompress_worker.jobs_cancelled == 1
        # The job never started (now is still 0): full refund.
        assert timing.decompress_worker.busy_cycles == 0

    def test_unused_eviction_counts_wasted_exactly_once(
        self, straight_cfg
    ):
        residency, timing, counters = _subsystem(straight_cfg)
        residency.schedule_predecompression(0, protected=set())
        residency.release_unit(0, EventKind.EVICT)
        assert counters.wasted_decompressions == 1

        # A second (buggy/duplicate) release of the same unit must not
        # double-count: the used-flag was popped on the first release.
        residency.release_unit(0, EventKind.EVICT)
        assert counters.wasted_decompressions == 1

    def test_used_unit_is_never_wasted(self, straight_cfg):
        residency, timing, counters = _subsystem(straight_cfg)
        residency.schedule_predecompression(0, protected=set())
        residency.mark_used(0)
        residency.release_unit(0, EventKind.EVICT)
        assert counters.wasted_decompressions == 0

    def test_mid_flight_cancellation_refunds_remainder_only(
        self, straight_cfg
    ):
        residency, timing, counters = _subsystem(straight_cfg)
        residency.schedule_predecompression(0, protected=set())
        job = timing.decompress_worker.pending_jobs()[0]
        assert job.latency > 1

        # Let the job run for one cycle, then evict: the worker keeps
        # only the elapsed service time.
        timing.now = job.started_at + 1
        residency.release_unit(0, EventKind.EVICT)
        assert timing.decompress_worker.busy_cycles == 1

    def test_budget_eviction_of_inflight_unit(self, straight_cfg):
        size = max(
            sum(
                straight_cfg.block(b).size_bytes
                for b in (unit_blocks)
            )
            for unit_blocks in ([0], [1], [2])
        )
        compressed = ResidencySubsystem(
            straight_cfg,
            SimulationConfig(decompression="pre-all", k_compress=None,
                             **_FAST),
            TimingModel(SimulationConfig(**_FAST), Counters()),
            Counters(),
            EventLog(enabled=False),
        ).image.compressed_image_size
        # Room for exactly one decompressed unit above the image.
        residency, timing, counters = _subsystem(
            straight_cfg, memory_budget=compressed + size,
        )
        residency.schedule_predecompression(0, protected=set())
        assert timing.decompress_worker.backlog() == 1

        # Scheduling the next unit must evict unit 0 — whose job is
        # still in flight — cleanly, then admit unit 1.
        residency.schedule_predecompression(1, protected=set())
        assert not residency.is_unit_resident(0)
        assert residency.is_unit_resident(1)
        assert counters.evictions == 1
        assert counters.wasted_decompressions == 1
        assert timing.decompress_worker.jobs_cancelled == 1
        assert timing.decompress_worker.backlog() == 1

    def test_evicted_unit_can_be_rescheduled(self, straight_cfg):
        residency, timing, counters = _subsystem(straight_cfg)
        residency.schedule_predecompression(0, protected=set())
        residency.release_unit(0, EventKind.EVICT)
        residency.schedule_predecompression(0, protected=set())
        assert residency.is_unit_resident(0)
        assert counters.decompressions == 2
        assert timing.decompress_worker.backlog() == 1


def _geometry(cfg, **config_kwargs):
    return production.ResidencySubsystem(cfg, SimulationConfig(
        decompression="ondemand", **config_kwargs, **_FAST,
    ))


class TestResidencyGeometry:
    def test_fill_cycles_equal_decompress_latency_under_flat(
        self, straight_cfg
    ):
        residency = _geometry(straight_cfg)
        for unit in (0, 1, 2):
            assert residency.unit_fill_cycles(unit) == \
                residency.unit_decompress_latency(unit)

    def test_fill_cycles_add_bus_cost_under_spm_front(
        self, straight_cfg
    ):
        residency = _geometry(straight_cfg, hierarchy="spm-front")
        for unit in (0, 1, 2):
            assert residency.unit_fill_cycles(unit) > \
                residency.unit_decompress_latency(unit)

    def test_site_cache_returns_same_object(self, straight_cfg):
        residency, _, _ = _subsystem(straight_cfg)
        assert residency.site_for(0) is residency.site_for(0)
