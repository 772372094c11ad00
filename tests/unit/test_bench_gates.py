"""Unit tests for ``benchmarks/perf/run_bench.py``: how ``--repeat``
samples merge, how failing gates are named, and its command line."""

import json

import run_bench
from run_bench import bench_selection_search, failed_gates, merge_section


def _chaos(overhead):
    return {"cells": 3, "plain_s": 1.0, "armed_s": 1.0 + overhead,
            "overhead": overhead}


def _bitio(speedup, identical=True):
    return {"fields": 10, "width": 11, "bulk_s": 1.0,
            "scalar_s": speedup, "speedup": speedup,
            "write_speedup": speedup, "read_speedup": speedup,
            "identical": identical}


class TestMergeSection:
    def test_budget_is_judged_on_the_median(self):
        # One noisy run over the 2% budget must not fail a median that
        # is within it (ANDing per-run verdicts did exactly that).
        section = merge_section(
            "chaos_overhead", [_chaos(0.03), _chaos(0.01), _chaos(0.015)]
        )
        assert section["overhead"] == 0.015
        assert section["within_budget"] is True
        assert failed_gates("chaos_overhead", section) == []

    def test_budget_fails_when_the_median_is_over(self):
        section = merge_section(
            "chaos_overhead", [_chaos(0.03), _chaos(0.01), _chaos(0.025)]
        )
        assert section["within_budget"] is False
        assert failed_gates("chaos_overhead", section) == [
            "chaos_overhead.overhead = 0.025 (gate < 0.02)"
        ]

    def test_exactness_ands_across_repeats(self):
        section = merge_section(
            "bitio_bulk",
            [_bitio(3.0), _bitio(3.0, identical=False), _bitio(3.0)],
        )
        assert section["identical"] is False
        assert section["within_budget"] is True
        assert failed_gates("bitio_bulk", section) == [
            "bitio_bulk.identical = False"
        ]

    @staticmethod
    def _replay(pre_all=1.8e5, member=2.8e6, shared_ok=True):
        return {
            "ref_blocks_per_s": 7e5, "speedup": 5.0,
            "metrics_equal": True, "path_ok": True, "shared_ok": shared_ok,
            "member": {"ref_blocks_per_s": member, "speedup": 20.0,
                       "metrics_equal": True, "path_ok": True},
            "pre_all": {"ref_blocks_per_s": pre_all, "speedup": 2.0,
                        "metrics_equal": True, "path_ok": True},
            "budget": {"ref_blocks_per_s": 1.5e6, "speedup": 3.0,
                       "metrics_equal": True, "path_ok": True},
        }

    def test_nested_cells_have_their_own_floors(self):
        section = merge_section(
            "trace_replay_batched", [self._replay(pre_all=9e4),
                                     self._replay(pre_all=1.8e5),
                                     self._replay(pre_all=8e4)]
        )
        assert section["within_budget"] is False
        assert failed_gates("trace_replay_batched", section) == [
            "trace_replay_batched.pre_all.ref_blocks_per_s = 9e+04 "
            "(gate >= 125000)"
        ]

    def test_member_replay_has_its_own_floor_and_must_share(self):
        # A replay that reuses the decisions is gated on its own rate,
        # and on having reused them at all.
        section = merge_section(
            "trace_replay_batched",
            [self._replay(member=1.4e6, shared_ok=False)],
        )
        assert failed_gates("trace_replay_batched", section) == [
            "trace_replay_batched.shared_ok = False",
            "trace_replay_batched.member.ref_blocks_per_s = 1.4e+06 "
            "(gate >= 2e+06)",
        ]

    def test_speedups_are_reported_not_gated(self):
        # The speedup over an interpreting run moves with the
        # interpreter; only the reference-host replay rate is gated.
        cell = {"ref_blocks_per_s": 2e6, "speedup": 1.0,
                "metrics_equal": True, "path_ok": True}
        section = merge_section("trace_replay_batched", [
            {**cell, "shared_ok": True, "member": dict(cell),
             "pre_all": dict(cell), "budget": dict(cell)}
        ])
        assert section["within_budget"] is True

    def test_sections_without_gates_pass(self):
        section = merge_section("manager_loop", [{"seconds": 1.0}])
        assert "within_budget" not in section
        assert failed_gates("manager_loop", section) == []


class TestSelectionSearch:
    def test_lookups_gate_is_named(self):
        section = merge_section(
            "selection_search",
            [{"assign_s": 0.01, "codec_lookups": 8,
              "lookups_bounded": True},
             {"assign_s": 0.01, "codec_lookups": 2654,
              "lookups_bounded": False}],
        )
        assert failed_gates("selection_search", section) == [
            "selection_search.lookups_bounded = False"
        ]

    def test_warm_search_resolves_each_option_once(self):
        section = bench_selection_search(smoke=True)
        assert section["lookups_bounded"] is True
        for name in ("cold_paths", "generated"):
            assert 0 < section[name]["codec_lookups"] <= section["options"]
        assert failed_gates("selection_search", section) == []


class TestBenchCLI:
    def test_only_runs_a_single_benchmark(self, capsys, tmp_path,
                                          monkeypatch):
        report = tmp_path / "BENCH_core.json"
        monkeypatch.setattr(run_bench, "DEFAULT_REPORT", report)
        assert run_bench.main(["--smoke", "--only", "bitio_bulk"]) == 0
        out = capsys.readouterr().out
        assert "bitio bulk" in out
        assert "codec round-trips" not in out
        assert "ok: True" in out
        # A filtered run is partial: the default report file must not
        # be clobbered with it.
        assert not report.exists()

    def test_only_with_explicit_output_writes_partial_report(
            self, capsys, tmp_path):
        path = tmp_path / "partial.json"
        assert run_bench.main(["--smoke", "--only", "bitio_bulk",
                               "--output", str(path)]) == 0
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert "bitio_bulk" in report
        assert "e1_sweep" not in report
        assert report["ok"] is True

    def test_repeat_reports_the_median(self, capsys):
        assert run_bench.main(["--smoke", "--only", "bitio_bulk",
                               "--repeat", "3", "--no-write"]) == 0
        assert "bitio bulk" in capsys.readouterr().out

    def test_unknown_benchmark_name_rejected(self, capsys):
        assert run_bench.main(["--only", "nope", "--no-write"]) == 2
        err = capsys.readouterr().err
        assert "unknown benchmark 'nope'" in err
        assert "bitio_bulk" in err

    def test_zero_repeat_rejected(self, capsys):
        assert run_bench.main(["--only", "bitio_bulk", "--repeat", "0",
                               "--no-write"]) == 2
        assert "repeat" in capsys.readouterr().err

    def test_failure_names_each_gate_and_value(self, capsys, monkeypatch):
        monkeypatch.setitem(run_bench.BENCHMARKS, "bitio_bulk",
                            lambda smoke: {
                                **_bitio(1.5, identical=False),
                                "write_speedup": 3.0,
                            })
        assert run_bench.main(["--only", "bitio_bulk", "--no-write"]) == 1
        err = capsys.readouterr().err
        assert "bitio_bulk.identical = False" in err
        assert "bitio_bulk.speedup = 1.5 (gate >= 2)" in err
        assert "bitio_bulk.read_speedup = 1.5 (gate >= 2)" in err
        assert "write_speedup" not in err
        assert "diverged from the seed" not in err
