"""Unit tests for events, metrics, and background-thread timelines.

The FIFO queue arithmetic is pinned on the frozen layered oracle's
worker (``tests/oracle``); the production worker only keeps the tallies
the replay kernel leaves behind.
"""

import gc
import random

import pytest

from oracle.layered import BackgroundWorker
from repro.analysis.sweep import run_one
from repro.core.config import SimulationConfig
from repro.runtime import (
    Counters,
    EventKind,
    EventLog,
    FootprintTimeline,
)
from repro.runtime.metrics import SimulationResult
from repro.workloads import get_workload


class TestEventLog:
    def test_emit_and_query(self):
        log = EventLog()
        log.emit(0, EventKind.BLOCK_ENTER, 1)
        log.emit(5, EventKind.FAULT, 2)
        log.emit(9, EventKind.BLOCK_ENTER, 2)
        assert len(log) == 3
        assert log.block_sequence() == [1, 2]
        assert [e.block_id for e in log.of_kind(EventKind.FAULT)] == [2]
        assert len(log.for_block(2)) == 2

    def test_disabled_log_drops_events(self):
        log = EventLog(enabled=False)
        log.emit(0, EventKind.FAULT, 1)
        assert len(log) == 0

    def test_capacity_cap(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.emit(i, EventKind.BLOCK_ENTER, i)
        assert len(log) == 2
        assert log.dropped == 3

    def test_render(self):
        log = EventLog()
        log.emit(3, EventKind.STALL, 7, detail=12)
        text = log.render()
        assert "stall" in text and "B7" in text and "12" in text

    def test_render_limit(self):
        log = EventLog()
        for i in range(10):
            log.emit(i, EventKind.BLOCK_ENTER, i)
        text = log.render(limit=3)
        assert "7 more" in text


class TestFootprintTimeline:
    def test_peak(self):
        timeline = FootprintTimeline()
        timeline.record(0, 100)
        timeline.record(10, 300)
        timeline.record(20, 150)
        assert timeline.peak == 300

    def test_time_weighted_average(self):
        timeline = FootprintTimeline()
        timeline.record(0, 100)
        timeline.record(10, 200)
        # [0,10) at 100, [10,20) at 200 -> avg 150
        assert timeline.average(20) == pytest.approx(150.0)

    def test_same_cycle_overwrites(self):
        timeline = FootprintTimeline()
        timeline.record(5, 10)
        timeline.record(5, 30)
        assert timeline.samples == [(5, 30)]

    def test_out_of_order_rejected(self):
        timeline = FootprintTimeline()
        timeline.record(10, 1)
        with pytest.raises(ValueError, match="out of order"):
            timeline.record(5, 2)

    def test_empty_timeline(self):
        timeline = FootprintTimeline()
        assert timeline.peak == 0
        assert timeline.average() == 0.0

    def test_average_at_start_cycle(self):
        timeline = FootprintTimeline()
        timeline.record(10, 44)
        assert timeline.average(10) == 44.0


def _loop_average(samples, end_cycle=None):
    """The per-step float loop the bulk integer sum stands in for."""
    if not samples:
        return 0.0
    if end_cycle is None:
        end_cycle = samples[-1][0]
    start = samples[0][0]
    if end_cycle <= start:
        return float(samples[0][1])
    total = 0.0
    for (cycle, value), (next_cycle, _) in zip(samples, samples[1:]):
        span = min(next_cycle, end_cycle) - cycle
        if span > 0:
            total += value * span
    last_cycle, last_value = samples[-1]
    if end_cycle > last_cycle:
        total += last_value * (end_cycle - last_cycle)
    return total / (end_cycle - start)


def _random_samples(rng, steps, cycle_bits, value_bits):
    cycles = sorted(rng.sample(range(1 << cycle_bits), steps))
    return [(cycle, rng.randrange(1 << value_bits)) for cycle in cycles]


class TestFootprintStatistics:
    """``peak`` and ``average`` are bit-identical to the per-step loop,
    and ``from_columns`` keeps :meth:`FootprintTimeline.record`'s
    checks."""

    @staticmethod
    def _check(samples, end_cycles):
        timeline = FootprintTimeline.from_columns(
            [cycle for cycle, _ in samples],
            [value for _, value in samples],
        )
        assert timeline.samples == samples
        assert timeline.peak == max(
            (value for _, value in samples), default=0
        )
        for end_cycle in end_cycles:
            expected = _loop_average(samples, end_cycle)
            assert timeline.average(end_cycle).hex() == expected.hex(), \
                (samples, end_cycle)

    def test_random_timelines_match_the_loop(self):
        rng = random.Random(2005)
        for _ in range(400):
            samples = _random_samples(
                rng, rng.randint(1, 30), rng.randint(5, 40),
                rng.randint(1, 24),
            )
            first, last = samples[0][0], samples[-1][0]
            self._check(samples, [
                None, first, last, last + rng.randint(1, 1 << 20),
                # Before the last sample: the truncating loop.
                rng.randint(first, last),
            ])

    def test_totals_at_or_above_two_to_the_53(self):
        rng = random.Random(53)
        for _ in range(100):
            # Each product may pass 2**53, so the float sum rounds.
            samples = _random_samples(rng, rng.randint(2, 20), 30, 40)
            self._check(samples, [None, samples[-1][0] + (1 << 30)])
        # Totals right at the bound.
        for value in ((1 << 53) - 1, 1 << 53, (1 << 53) + 1):
            self._check([(0, value), (1, 1)], [None, 2, 3])

    def test_one_sample_and_empty(self):
        self._check([(7, 44)], [None, 3, 7, 8, 1 << 60])
        self._check([], [None, 5])

    def test_from_columns_rejects_out_of_order_cycles(self):
        with pytest.raises(ValueError, match="out of order"):
            FootprintTimeline.from_columns([0, 10, 5], [1, 1, 2])

    def test_from_columns_merges_equal_cycles(self):
        timeline = FootprintTimeline.from_columns(
            [0, 5, 5, 9], [1, 1, 3, 2]
        )
        assert timeline.samples == [(0, 1), (5, 3), (9, 2)]

    @pytest.mark.parametrize("cycles, values", [
        ([0, 3], [7]),  # unequal lengths
        (["0", 3], [7, 1]),  # a string is not coerced
        ([0, 3], [7, True]),  # nor is a bool
        ([0, 3.0], [7, 1]),  # nor a float
        ((0, 3), [7, 1]),  # columns are lists
        ({0: 7}, [7]),  # nor a dict
        ([[0, 7]], [[3, 1]]),  # rows are not columns
    ])
    def test_from_columns_rejects_bad_shapes_and_non_ints(self, cycles,
                                                          values):
        with pytest.raises(ValueError):
            FootprintTimeline.from_columns(cycles, values)

    def test_columns_round_trip(self):
        timeline = FootprintTimeline()
        for cycle, value in ((0, 4), (3, 9), (3, 5), (8, 0)):
            timeline.record(cycle, value)
        columns = timeline.columns()
        assert columns == [[0, 3, 8], [4, 5, 0]]
        rebuilt = FootprintTimeline.from_columns(*columns)
        assert rebuilt.samples == timeline.samples
        # The stored form is a copy: editing it leaves the run alone.
        columns[0][0] = 99
        assert timeline.samples[0] == (0, 4)

    def test_a_run_keeps_no_gc_tracked_step(self):
        # One step per fill and release: none may be an object the
        # collector tracks (a run of a long sweep keeps thousands).
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = run_one(
                get_workload("composite"),
                SimulationConfig(k_compress=1, trace_events=False),
            ).result
            footprint = result.footprint
            assert len(footprint.samples) > 100
            for store in vars(footprint).values():
                assert not any(map(gc.is_tracked, store))
        finally:
            if enabled:
                gc.enable()


class TestBackgroundWorker:
    def test_idle_worker_starts_immediately(self):
        worker = BackgroundWorker("dec")
        job = worker.schedule(now=100, block_id=1, latency=50)
        assert job.started_at == 100
        assert job.completes_at == 150

    def test_busy_worker_queues_fifo(self):
        worker = BackgroundWorker("dec")
        worker.schedule(0, 1, 100)
        second = worker.schedule(10, 2, 50)
        assert second.started_at == 100
        assert second.completes_at == 150
        assert second.queue_delay == 90

    def test_one_job_per_block(self):
        worker = BackgroundWorker("dec")
        first = worker.schedule(0, 1, 100)
        duplicate = worker.schedule(5, 1, 100)
        assert duplicate is first

    def test_retire_completed(self):
        worker = BackgroundWorker("dec")
        worker.schedule(0, 1, 10)
        worker.schedule(0, 2, 10)
        done = worker.retire_completed(now=15)
        assert [job.block_id for job in done] == [1]
        assert worker.backlog() == 1

    def test_cancel_unstarted_job_refunds_fully(self):
        worker = BackgroundWorker("dec")
        worker.schedule(0, 1, 100)
        worker.schedule(0, 2, 100)  # queued behind, starts at 100
        worker.cancel(2, now=10)
        assert worker.busy_cycles == 100  # only job 1's work remains
        assert worker.free_at == 100

    def test_cancel_rechains_queue(self):
        worker = BackgroundWorker("dec")
        worker.schedule(0, 1, 100)
        worker.schedule(0, 2, 50)
        third = worker.schedule(0, 3, 50)
        assert third.completes_at == 200
        worker.cancel(2, now=10)
        # job 3 now starts right after job 1
        assert worker.completion_time(3) == 150

    def test_cancel_inflight_keeps_elapsed(self):
        worker = BackgroundWorker("dec")
        worker.schedule(0, 1, 100)
        worker.cancel(1, now=40)
        # 40 cycles were actually worked
        assert worker.busy_cycles == 40

    def test_cancel_unknown_block_is_noop(self):
        worker = BackgroundWorker("dec")
        assert worker.cancel(9, now=0) is None

    def test_is_pending(self):
        worker = BackgroundWorker("dec")
        worker.schedule(0, 1, 100)
        assert worker.is_pending(1, now=50)
        assert not worker.is_pending(1, now=100)

    def test_contention_charges_fraction(self):
        worker = BackgroundWorker("dec", contention=0.5)
        worker.schedule(0, 1, 100)
        assert worker.contention_cycles() == 50

    def test_invalid_contention_rejected(self):
        with pytest.raises(ValueError):
            BackgroundWorker("dec", contention=1.5)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            BackgroundWorker("dec").schedule(0, 1, -1)


class TestCounters:
    def test_prediction_accuracy(self):
        counters = Counters()
        assert counters.prediction_accuracy == 0.0
        counters.predictions = 4
        counters.correct_predictions = 3
        assert counters.prediction_accuracy == 0.75


class TestSummary:
    """``summary()`` computes each footprint statistic once; its values
    must equal the properties bit for bit."""

    def _result(self, samples, total_cycles, uncompressed_size):
        timeline = FootprintTimeline()
        for cycle, footprint in samples:
            timeline.record(cycle, footprint)
        return SimulationResult(
            program="p", strategy="s", codec="c", k_compress=1,
            k_decompress=None, total_cycles=total_cycles,
            execution_cycles=max(total_cycles // 3, 1),
            counters=Counters(), footprint=timeline,
            uncompressed_size=uncompressed_size, compressed_size=7,
        )

    @pytest.mark.parametrize("samples, total, size", [
        # Same-cycle samples merge: the last one stands.
        ([(0, 120), (0, 90), (7, 333), (7, 101), (19, 64), (19, 250),
          (40, 77)], 61, 997),
        ([(0, 10), (3, 17), (11, 13)], 11, 3),
        ([(5, 44)], 5, 0),
        ([], 0, 12),
    ])
    def test_summary_equals_the_properties(self, samples, total, size):
        result = self._result(samples, total, size)
        summary = result.summary()
        for name in ("peak_footprint", "average_footprint",
                     "peak_saving", "average_saving"):
            expected = float(getattr(result, name))
            assert summary[name].hex() == expected.hex(), name

