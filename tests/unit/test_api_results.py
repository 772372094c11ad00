"""Unit tests for the versioned ResultSet layer."""

import dataclasses
import json

import pytest

from repro import api
from repro.core import SimulationConfig


@pytest.fixture(scope="module")
def small_resultset():
    """A tiny 2x2 grid, computed once for the module."""
    configs = [
        SimulationConfig(decompression="ondemand", k_compress=1,
                         trace_events=False, record_trace=False),
        SimulationConfig(decompression="ondemand", k_compress=None,
                         trace_events=False, record_trace=False),
    ]
    return api.run_grid(["fib", "gcd"], configs)


class TestLookupHelpers:
    def test_deterministic_cell_order(self, small_resultset):
        assert [run.workload for run in small_resultset.runs] == \
            ["fib", "fib", "gcd", "gcd"]
        assert small_resultset.workloads() == ["fib", "gcd"]

    def test_by_workload_and_label(self, small_resultset):
        assert len(small_resultset.by_workload("fib")) == 2
        assert len(small_resultset.by_label("ondemand/kc=1")) == 2

    def test_no_failures(self, small_resultset):
        assert small_resultset.failures() == []

    def test_filter_by_fields(self, small_resultset):
        only = small_resultset.filter(workload="gcd", k_compress=None)
        assert len(only) == 1
        assert only.runs[0].workload == "gcd"

    def test_filter_by_predicate(self, small_resultset):
        fast = small_resultset.filter(
            lambda run: run.result.cycle_overhead < 10.0
        )
        assert all(r.result.cycle_overhead < 10.0 for r in fast.runs)

    def test_filter_unknown_field_raises(self, small_resultset):
        with pytest.raises(KeyError, match="unknown field"):
            small_resultset.filter(compression_level=3)


class TestPivotAndSeries:
    def test_pivot_shape(self, small_resultset):
        table = small_resultset.pivot(
            value="faults", cols="k_compress"
        )
        assert table.columns == ["workload", "1", "None"]
        assert [row[0] for row in table.rows] == ["fib", "gcd"]

    def test_pivot_formatter(self, small_resultset):
        table = small_resultset.pivot(
            value="average_saving", cols="k_compress",
            fmt=lambda v: f"{v:.0%}",
        )
        assert all("%" in str(cell) for row in table.rows
                   for cell in row[1:])

    def test_pivot_unknown_metric(self, small_resultset):
        with pytest.raises(KeyError, match="unknown metric"):
            small_resultset.pivot(value="speediness")

    def test_series_grouped_by_workload(self, small_resultset):
        series = small_resultset.series(
            x="k_compress", y="cycle_overhead",
            x_transform=lambda k: 64 if k is None else k,
        )
        assert set(series) == {"fib", "gcd"}
        assert [x for x, _ in series["fib"].points] == [1, 64]


class TestSchema:
    def test_versioned_envelope(self, small_resultset):
        data = small_resultset.to_dict()
        assert data["schema"] == api.SCHEMA_ID
        assert data["version"] == api.SCHEMA_VERSION == 2
        assert "engine" not in data["meta"]
        assert len(data["cells"]) == 4
        assert "execution" in data
        assert "elapsed_s" in data["execution"]["timing"]

    def test_cells_carry_config_metrics_validation(self, small_resultset):
        cell = small_resultset.to_dict()["cells"][0]
        assert cell["workload"] == "fib"
        assert cell["ok"] is True
        assert cell["validation"] == []
        assert cell["config"]["decompression"] == "ondemand"
        assert cell["config"]["strategy_name"] == "ondemand/kc=1"
        assert "cycle_overhead" in cell["metrics"]
        assert "faults" in cell["metrics"]

    def test_each_cell_serialises_its_own_config(self, small_resultset):
        from repro.api import config_to_dict
        from repro.cfg import EdgeProfile

        # Two configs that share a label, and one that is unhashable
        # (it carries an edge profile), each shared by two runs.
        configs = [
            SimulationConfig(codec=codec, trace_events=False)
            for codec in ("shared-dict", "huffman")
        ] + [SimulationConfig(profile=EdgeProfile(), trace_events=False)]
        runs = [
            dataclasses.replace(run, config=config)
            for config in configs for run in small_resultset.runs[:2]
        ]
        cells = api.ResultSet(runs).to_dict()["cells"]
        assert [(cell["label"], cell["config"]) for cell in cells] == [
            (run.config.strategy_name, config_to_dict(run.config))
            for run in runs
        ]
        cells[0]["config"]["codec"] = "edited"
        assert cells[1]["config"]["codec"] == "shared-dict"

    def test_execution_block_excludable(self, small_resultset):
        data = small_resultset.to_dict(include_execution=False)
        assert "execution" not in data
        # and the remainder is pure JSON
        assert json.loads(json.dumps(data)) == data

    def test_to_json_writes_file(self, small_resultset, tmp_path):
        path = tmp_path / "rs.json"
        text = small_resultset.to_json(str(path))
        assert json.loads(path.read_text()) == json.loads(text)

    def test_load_checks_schema(self, small_resultset, tmp_path):
        path = tmp_path / "rs.json"
        small_resultset.to_json(str(path))
        data = api.ResultSet.load(str(path))
        assert len(data["cells"]) == 4

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "other", "version": 1}))
        with pytest.raises(ValueError, match="not a"):
            api.ResultSet.load(str(bad))

        stale = tmp_path / "stale.json"
        stale.write_text(json.dumps(
            {"schema": api.SCHEMA_ID, "version": 999}
        ))
        with pytest.raises(ValueError, match="schema version"):
            api.ResultSet.load(str(stale))

    def test_load_refuses_a_version_1_document(self, tmp_path):
        # Version 1 carried meta["engine"]; a reader of version 2 must
        # refuse it rather than read it as the current shape.
        old = tmp_path / "v1.json"
        old.write_text(json.dumps({
            "schema": api.SCHEMA_ID, "version": 1,
            "meta": {"name": "old", "engine": "trace"}, "cells": [],
        }))
        with pytest.raises(ValueError, match="schema version 1"):
            api.ResultSet.load(str(old))

    def test_to_csv_flat_rows(self, small_resultset):
        lines = small_resultset.to_csv().strip().splitlines()
        assert len(lines) == 5  # header + 4 cells
        header = lines[0].split(",")
        assert header[:2] == ["workload", "label"]
        assert "cycle_overhead" in header
        assert lines[1].startswith("fib,")

    def test_config_profile_serialised_as_marker(self):
        from repro.api import config_to_dict
        from repro.cfg import EdgeProfile

        with_profile = SimulationConfig(profile=EdgeProfile())
        assert config_to_dict(with_profile)["profile"] == \
            "<edge-profile>"
        assert config_to_dict(SimulationConfig())["profile"] is None


class TestPathProvenance:
    """``execution.paths`` counts how each cell was computed; it is
    execution detail, so the canonical form never carries it."""

    _CONFIGS = [
        SimulationConfig(codec=codec, k_compress=k, trace_events=False,
                         record_trace=False)
        for codec in ("shared-dict", "huffman")
        for k in (2, None)
    ] + [
        SimulationConfig(decompression="pre-all", k_compress=2,
                         trace_events=False, record_trace=False),
    ]

    def test_two_codec_grid_counts_each_path(self):
        rs = api.run_grid(["fsm", "gcd"], self._CONFIGS)
        assert rs.meta["paths"] == {
            "batched": 4, "shared": 4, "stepped": 2, "stored": 0,
            "error": 0, "declined": {"predecompress": 2},
        }
        assert rs.to_dict()["execution"]["paths"] == rs.meta["paths"]
        assert "paths" not in rs.to_dict()["meta"]

    def test_warm_rerun_is_all_stored(self, tmp_path):
        store = str(tmp_path / "store")
        cold = api.run_grid(["fsm"], self._CONFIGS, store=store)
        warm = api.run_grid(["fsm"], self._CONFIGS, store=store)
        assert cold.meta["paths"]["stored"] == 0
        assert warm.meta["paths"] == {
            "batched": 0, "shared": 0, "stepped": 0, "stored": 5,
            "error": 0, "declined": {},
        }
        assert warm.canonical_json() == cold.canonical_json()

    def test_canonical_json_ignores_paths(self, small_resultset):
        assert "paths" in small_resultset.meta
        bare = api.ResultSet(
            small_resultset.runs,
            meta={key: value for key, value in small_resultset.meta.items()
                  if key != "paths"},
        )
        assert bare.canonical_json() == small_resultset.canonical_json()

