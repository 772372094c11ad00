"""Tests for the sweep benchmark: tiny-scale runs of every workload, the
seeded synthetic programs, and the BENCHMARK.json definition."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import run as bench_run
from perfbench import workloads as bench_workloads
from perfbench.layers import LayerTrace

ROOT = Path(__file__).resolve().parents[2]
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _tiny_run(capsys, workload, trace):
    code = bench_run.main(
        ["--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--scale", "tiny"],
        started=time.perf_counter(),
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_tiny_run_emits_every_metric(capsys, workload, trace):
    result, printed = _tiny_run(capsys, workload, trace)
    declared = DEFINITION["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        assert any(line.startswith(f"{metric['name']}: ")
                   and line.endswith(f" {metric['unit']}")
                   for line in printed)
    if trace:
        assert result["metrics"]["attributed_frac"]["value"] > 0.5


def _program_bytes(programs):
    return [program.encode() for program, _ in programs]


def test_seed_changes_synthetic_programs_deterministically():
    size = bench_workloads.SYNTH_BYTES // 8
    first = bench_workloads.synthetic_programs(5, size, shaped=False)
    again = bench_workloads.synthetic_programs(5, size, shaped=False)
    other = bench_workloads.synthetic_programs(6, size, shaped=False)
    assert _program_bytes(first) == _program_bytes(again)
    assert [regs for _, regs in first] == [regs for _, regs in again]
    assert _program_bytes(first) != _program_bytes(other)


def test_shaped_synthetic_programs_are_near_the_target_shape():
    size, _ = bench_workloads.SYNTH_SHAPE
    for program, _ in bench_workloads.synthetic_programs(
            1, bench_workloads.SYNTH_BYTES):
        assert abs(program.size_bytes / size - 1) < 0.1


def test_codec_search_unregisters_its_programs(tmp_path):
    from repro.workloads.suite import WORKLOADS

    before = WORKLOADS.names()
    scenario = bench_workloads.prepare("codec_search", 2, str(tmp_path),
                                       tiny=True)
    assert len(WORKLOADS.names()) == len(before) + 2
    scenario.close()
    assert WORKLOADS.names() == before


def test_layer_trace_restores_every_wrapped_function():
    from repro.core import manager
    from repro.store import cas
    from repro.workloads.suite import WORKLOADS

    originals = (manager.try_batched_replay,
                 manager.CodeCompressionManager.run,
                 cas.ExperimentStore.get_cell)
    with LayerTrace().armed():
        assert manager.try_batched_replay is not originals[0]
        assert "create" in vars(WORKLOADS)
    assert (manager.try_batched_replay,
            manager.CodeCompressionManager.run,
            cas.ExperimentStore.get_cell) == originals
    assert "create" not in vars(WORKLOADS)


def test_fails_without_the_simulator_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kedge_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_definition_follows_the_benchmark_contract():
    assert set(DEFINITION) == {"command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"}
    assert DEFINITION["paths"] == ["perfbench"]
    assert [w["name"] for w in DEFINITION["workloads"]] == \
        list(bench_run.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in DEFINITION["workloads"])
    metrics = DEFINITION["end_to_end"] + DEFINITION["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for metric in metrics:
        assert NAME.match(metric["name"]), metric
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in DEFINITION["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
