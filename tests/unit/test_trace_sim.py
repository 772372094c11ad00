"""Unit tests for trace-driven simulation."""

import pytest

from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.runtime import PreparedTrace, simulate_trace
from repro.workloads import get_workload

_FAST = dict(trace_events=False, record_trace=False)


@pytest.fixture(scope="module")
def traced_workload():
    workload = get_workload("dijkstra")
    cfg = build_cfg(workload.program)
    base = CodeCompressionManager(
        cfg,
        SimulationConfig(decompression="none", trace_events=False,
                         record_trace=True),
    ).run()
    return cfg, base.block_trace


class TestPreparedTrace:
    def test_replays_trace(self, loop_cfg):
        trace = [loop_cfg.entry_id]
        trace.append(loop_cfg.successors(trace[-1])[0])
        prepared = PreparedTrace(loop_cfg, trace)
        assert prepared.trace == trace
        result = simulate_trace(loop_cfg, prepared,
                                SimulationConfig(**_FAST))
        assert result.counters.blocks_executed == 2
        assert result.engine == "trace"

    def test_rejects_empty_trace(self, loop_cfg):
        with pytest.raises(ValueError, match="at least one"):
            PreparedTrace(loop_cfg, [])

    def test_rejects_wrong_entry(self, loop_cfg):
        exit_id = loop_cfg.exit_ids[0]
        with pytest.raises(ValueError, match="entry"):
            PreparedTrace(loop_cfg, [exit_id])

    def test_rejects_impossible_transition(self, loop_cfg):
        exit_id = loop_cfg.exit_ids[0]
        with pytest.raises(ValueError, match="impossible"):
            PreparedTrace(loop_cfg, [loop_cfg.entry_id, exit_id])
        # simulate_trace prepares (and so validates) a raw sequence.
        with pytest.raises(ValueError, match="impossible"):
            simulate_trace(loop_cfg, [loop_cfg.entry_id, exit_id],
                           SimulationConfig(**_FAST))

    def test_cycle_costs_match_static_block_costs(self, loop_cfg):
        trace = [loop_cfg.entry_id]
        trace.append(loop_cfg.successors(trace[-1])[0])
        prepared = PreparedTrace(loop_cfg, trace)
        assert prepared.cycles == [
            loop_cfg.block(block_id).cycle_cost for block_id in trace
        ]

    def test_plans_share_the_prepared_lists(self, loop_cfg):
        # A list is adopted, not copied, and every plan reuses the
        # prepared per-step lists: one copy of each per trace.
        trace = [loop_cfg.entry_id]
        trace.append(loop_cfg.successors(trace[-1])[0])
        prepared = PreparedTrace(loop_cfg, trace)
        plan = prepared.plan("block", {b.block_id: b.block_id
                                       for b in loop_cfg.blocks})
        assert prepared.trace is trace
        assert (plan.trace, plan.cycles) == (trace, prepared.cycles)
        assert plan.trace is trace and plan.cycles is prepared.cycles

    def test_prefix_shares_the_costs(self, loop_cfg):
        trace = [loop_cfg.entry_id]
        trace.append(loop_cfg.successors(trace[-1])[0])
        prepared = PreparedTrace(loop_cfg, trace)
        assert prepared.prefix(5) is prepared
        head = prepared.prefix(1)
        assert (head.trace, head.cycles) == (trace[:1], prepared.cycles[:1])


class TestManagerTrace:
    """A manager given ``trace=`` replays it and builds no machine."""

    def test_only_interpreting_runs_build_a_machine(self, loop_cfg):
        interpreting = CodeCompressionManager(loop_cfg,
                                              SimulationConfig(**_FAST))
        assert interpreting.engine == "machine"
        assert interpreting.machine is not None
        trace = [loop_cfg.entry_id]
        trace.append(loop_cfg.successors(trace[-1])[0])
        manager = CodeCompressionManager(
            loop_cfg, SimulationConfig(**_FAST),
            trace=PreparedTrace(loop_cfg, trace),
        )
        assert (manager.machine, manager.engine) == (None, "trace")
        result = manager.run()
        assert (result.engine, result.registers) == ("trace", None)
        assert result.counters.blocks_executed == 2

    def test_rejects_another_cfgs_trace(self, loop_cfg, traced_workload):
        cfg, trace = traced_workload
        with pytest.raises(ValueError, match="different CFG"):
            CodeCompressionManager(loop_cfg, SimulationConfig(**_FAST),
                                   trace=PreparedTrace(cfg, trace))


class TestEquivalence:
    @pytest.mark.parametrize("config", [
        SimulationConfig(decompression="ondemand", k_compress=2, **_FAST),
        SimulationConfig(decompression="ondemand", k_compress=None,
                         **_FAST),
        SimulationConfig(decompression="pre-all", k_compress=8,
                         k_decompress=2, **_FAST),
        SimulationConfig(decompression="pre-single", k_compress=8,
                         k_decompress=2, **_FAST),
    ])
    def test_trace_metrics_match_full_simulation(self, traced_workload,
                                                 config):
        cfg, trace = traced_workload
        full = CodeCompressionManager(cfg, config).run()
        traced = simulate_trace(cfg, trace, config)
        assert traced.total_cycles == full.total_cycles
        assert traced.counters.faults == full.counters.faults
        assert traced.counters.decompressions == \
            full.counters.decompressions
        assert traced.counters.stall_cycles == \
            full.counters.stall_cycles
        assert traced.peak_footprint == full.peak_footprint
        assert traced.average_footprint == \
            pytest.approx(full.average_footprint)

    def test_trace_sweep_is_usable_for_k_exploration(self,
                                                     traced_workload):
        cfg, trace = traced_workload
        footprints = []
        for k in (1, 8, 64):
            result = simulate_trace(
                cfg, trace,
                SimulationConfig(decompression="ondemand", k_compress=k,
                                 **_FAST),
            )
            footprints.append(result.average_footprint)
        assert footprints == sorted(footprints)


class TestEngineTagging:
    def test_trace_runs_report_no_registers(self, traced_workload):
        cfg, trace = traced_workload
        result = simulate_trace(
            cfg, trace,
            SimulationConfig(decompression="ondemand", k_compress=2,
                             **_FAST),
        )
        assert result.engine == "trace"
        assert result.registers is None

    def test_machine_runs_report_registers(self, traced_workload):
        cfg, _ = traced_workload
        result = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="ondemand", k_compress=2,
                             **_FAST),
        ).run()
        assert result.engine == "machine"
        assert isinstance(result.registers, list)
        assert result.registers


class TestTraceTruncation:
    @pytest.fixture
    def tiny_cap(self, monkeypatch):
        import repro.core.manager as manager_mod

        monkeypatch.setattr(manager_mod, "_TRACE_CAP", 8)

    def _truncated_result(self, tiny_cap_cfg):
        return CodeCompressionManager(
            tiny_cap_cfg,
            SimulationConfig(decompression="none", trace_events=False,
                             record_trace=True),
        ).run()

    def test_truncation_is_flagged(self, tiny_cap, loop_cfg):
        result = self._truncated_result(loop_cfg)
        assert result.trace_truncated
        assert len(result.block_trace) == 8
        assert result.counters.blocks_executed > 8

    def test_untruncated_runs_are_not_flagged(self, traced_workload):
        cfg, trace = traced_workload
        result = CodeCompressionManager(
            cfg,
            SimulationConfig(decompression="none", trace_events=False,
                             record_trace=True),
        ).run()
        assert not result.trace_truncated
        assert len(result.block_trace) == \
            result.counters.blocks_executed

    def test_sweep_prepares_no_truncated_recording(self, tiny_cap):
        # A truncated trace would replay a shorter run than the one
        # that produced the metrics: the sweep keeps no prepared trace.
        from repro.analysis.sweep import _recorded_trace

        workload = get_workload("fib")
        graph = build_cfg(workload.program)
        prepared, validation, reason = _recorded_trace(
            workload, graph, SimulationConfig(), None
        )
        assert (prepared, reason) == (None, "truncated")
        assert validation == []  # the run itself completed

    def test_sweep_prepares_a_complete_recording(self):
        from repro.analysis.sweep import _recorded_trace

        workload = get_workload("fib")
        graph = build_cfg(workload.program)
        prepared, validation, reason = _recorded_trace(
            workload, graph, SimulationConfig(), None
        )
        assert (reason, validation) == (None, [])
        alone = CodeCompressionManager(
            graph,
            SimulationConfig(decompression="none", trace_events=False,
                             record_trace=True),
        ).run()
        assert prepared.cfg is graph
        assert prepared.trace == alone.block_trace

    def test_sweep_falls_back_on_truncated_recording(self, tiny_cap):
        from repro.analysis.sweep import run_one, sweep

        workload = get_workload("fib")
        configs = [
            SimulationConfig(decompression="ondemand", k_compress=k,
                             **_FAST)
            for k in (1, 4)
        ]
        swept = sweep([workload], configs)
        # The recording hit the cap, so every cell must have been
        # interpreted — metrics equal to the cell run alone, registers
        # present.
        for config, run in zip(configs, swept.runs):
            alone = run_one(workload, config).result
            assert run.result.total_cycles == alone.total_cycles
            assert run.result.counters == alone.counters
            assert run.result.engine == "machine"
            assert run.result.registers == alone.registers

    def test_fallback_emits_parseable_kv_event(self, tiny_cap, caplog):
        import logging

        from repro.analysis.sweep import sweep
        from repro.log import parse_kv

        workload = get_workload("fib")
        configs = [SimulationConfig(decompression="ondemand",
                                    k_compress=1, **_FAST)]
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            sweep([workload], configs)
        events = [
            parse_kv(record.getMessage())
            for record in caplog.records
            if "sweep.trace_fallback" in record.getMessage()
        ]
        assert len(events) == 1, "fallback must be announced exactly once"
        event = events[0]
        assert event["event"] == "sweep.trace_fallback"
        assert event["workload"] == "fib"
        assert event["cap"] == "8"  # the monkeypatched recording cap
        assert event["reason"] == "truncated"

    def test_complete_recording_emits_no_fallback_event(self, caplog):
        import logging

        from repro.analysis.sweep import sweep

        workload = get_workload("fib")
        configs = [SimulationConfig(decompression="ondemand",
                                    k_compress=1, **_FAST)]
        with caplog.at_level(logging.WARNING, logger="repro.sweep"):
            result = sweep([workload], configs)
        assert result.runs[0].result.engine == "trace"
        assert not any(
            "sweep.trace_fallback" in record.getMessage()
            for record in caplog.records
        )
