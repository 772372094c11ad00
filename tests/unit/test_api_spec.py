"""Unit tests for the declarative experiment spec layer."""

import dataclasses
import json

import pytest

from repro.api import (
    ExperimentSpec,
    SpecError,
    cases,
    grid,
    parse_k,
    zip_axes,
)


class TestParseK:
    def test_positive_ints_pass_through(self):
        assert parse_k(1) == 1
        assert parse_k(16) == 16
        assert parse_k("8") == 8

    def test_infinity_spellings(self):
        assert parse_k(None) is None
        assert parse_k("inf") is None
        assert parse_k("none") is None
        assert parse_k(" INF ") is None

    def test_zero_and_negatives_rejected(self):
        for bad in (0, -1, "0", "-3"):
            with pytest.raises(SpecError, match="k must be >= 1"):
                parse_k(bad)

    def test_garbage_rejected(self):
        for bad in ("infinity", "", "1.5", 2.5, True):
            with pytest.raises(SpecError):
                parse_k(bad)


class TestAxes:
    def test_grid_cartesian_product_in_order(self):
        overrides = grid(k_compress=[1, 2], codec=["lzw", "rle"])
        assert overrides == [
            {"k_compress": 1, "codec": "lzw"},
            {"k_compress": 1, "codec": "rle"},
            {"k_compress": 2, "codec": "lzw"},
            {"k_compress": 2, "codec": "rle"},
        ]

    def test_zip_parallel_axes(self):
        overrides = zip_axes(k_compress=[1, 2], k_decompress=[3, 4])
        assert overrides == [
            {"k_compress": 1, "k_decompress": 3},
            {"k_compress": 2, "k_decompress": 4},
        ]

    def test_zip_length_mismatch_rejected(self):
        with pytest.raises(SpecError, match="equal-length"):
            zip_axes(k_compress=[1, 2], k_decompress=[3])

    def test_cases_literal_points(self):
        overrides = cases({"codec": "lzw"}, {"codec": "rle"})
        assert overrides == [{"codec": "lzw"}, {"codec": "rle"}]

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown config field"):
            grid(compression_level=[1])

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="no values"):
            grid(k_compress=[])

    def test_axes_compose_by_concatenation(self):
        overrides = grid(k_compress=[1]) + cases({"codec": "rle"})
        assert overrides == [{"k_compress": 1}, {"codec": "rle"}]


class TestExperimentSpec:
    def test_cells_workload_major_deterministic(self):
        spec = ExperimentSpec(
            workloads=["fib", "gcd"],
            axes=grid(k_compress=[1, 2]),
        )
        cells = spec.cells()
        assert [(c.workload, c.config.k_compress) for c in cells] == [
            ("fib", 1), ("fib", 2), ("gcd", 1), ("gcd", 2),
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]

    def test_hierarchy_is_a_sweepable_axis(self):
        spec = ExperimentSpec(
            workloads=["fib"],
            axes=grid(hierarchy=["flat", "spm-front"]),
        )
        configs = spec.configs()
        assert [c.hierarchy for c in configs] == ["flat", "spm-front"]

    def test_unknown_hierarchy_rejected_at_spec_time(self):
        with pytest.raises(SpecError, match="hierarchy"):
            ExperimentSpec(
                workloads=["fib"],
                base={"hierarchy": "warp"},
            )

    def test_base_merged_under_overrides(self):
        spec = ExperimentSpec(
            workloads=["fib"],
            base={"codec": "rle", "k_compress": 4},
            axes=cases({}, {"k_compress": "inf"}),
        )
        configs = spec.configs()
        assert [c.codec for c in configs] == ["rle", "rle"]
        assert [c.k_compress for c in configs] == [4, None]

    def test_all_expands_registry(self):
        from repro.workloads import available_workloads

        spec = ExperimentSpec(workloads="all")
        assert spec.workload_names() == available_workloads()

    def test_unknown_workload_rejected(self):
        with pytest.raises(SpecError, match="unknown workload"):
            ExperimentSpec(workloads=["nope"])

    def test_unknown_engine_rejected(self):
        with pytest.raises(SpecError, match="unknown sweep engine"):
            ExperimentSpec(workloads=["fib"], engine="warp")

    def test_unknown_executor_rejected(self):
        with pytest.raises(SpecError, match="unknown executor"):
            ExperimentSpec(workloads=["fib"], executor="gpu")

    def test_jobs_implies_parallel_executor(self):
        assert ExperimentSpec(workloads=["fib"]).executor == "serial"
        assert ExperimentSpec(workloads=["fib"], jobs=4).executor == \
            "parallel"
        # an explicit executor always wins
        assert ExperimentSpec(
            workloads=["fib"], jobs=4, executor="serial"
        ).executor == "serial"

    def test_spec_jobs_flow_through_run_experiment(self):
        from repro import api

        spec = ExperimentSpec(
            workloads=["fib"], jobs=2,
            axes=grid(k_compress=[1, 2]),
        )
        result = api.run_experiment(spec)
        assert result.meta["executor"] == "parallel"
        assert result.meta["jobs"] == 2

    def test_invalid_config_rejected_at_build_time(self):
        with pytest.raises(SpecError, match="invalid config"):
            ExperimentSpec(
                workloads=["fib"], axes=cases({"codec": "nope"})
            )

    def test_partitions_group_by_workload(self):
        spec = ExperimentSpec(
            workloads=["fib", "gcd"], axes=grid(k_compress=[1, 2])
        )
        partitions = spec.partitions()
        assert [name for name, _ in partitions] == ["fib", "gcd"]
        assert all(len(configs) == 2 for _, configs in partitions)


class TestSpecJson:
    def test_from_dict_grid(self):
        spec = ExperimentSpec.from_dict({
            "workloads": ["fib"],
            "base": {"codec": "rle"},
            "axes": {"grid": {"k_compress": [1, "inf"]}},
            "engine": "trace",
            "jobs": 2,
        })
        assert spec.engine == "trace"
        assert [c.k_compress for c in spec.configs()] == [1, None]

    def test_legacy_engine_name_loads_and_is_not_written(self):
        # Spec files and service journals written before the sweep had
        # one computation still name an engine: both names load (and
        # survive dataclasses.replace), neither is written back, and
        # any other name is still an error.
        for name in ("machine", "trace"):
            spec = ExperimentSpec.from_dict(
                {"workloads": ["fib"], "engine": name}
            )
            assert spec.engine == name
            assert dataclasses.replace(spec, workloads=["gcd"]).engine \
                == name
            assert "engine" not in spec.to_dict()
        with pytest.raises(SpecError, match="unknown sweep engine"):
            ExperimentSpec.from_dict({"workloads": ["fib"],
                                      "engine": "warp"})

    def test_from_dict_axis_block_list(self):
        spec = ExperimentSpec.from_dict({
            "workloads": ["fib"],
            "axes": [
                {"grid": {"k_compress": [1]}},
                {"cases": [{"codec": "rle"}]},
                {"zip": {"k_compress": [2], "k_decompress": [3]}},
            ],
        })
        assert len(spec.configs()) == 3

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SpecError, match="unknown spec key"):
            ExperimentSpec.from_dict({"workloads": ["fib"], "cpus": 4})

    def test_from_dict_rejects_bad_axes_operator(self):
        with pytest.raises(SpecError, match="unknown axes operator"):
            ExperimentSpec.from_dict({
                "workloads": ["fib"], "axes": {"product": {}},
            })

    def test_from_file_round_trip(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "round-trip",
            "workloads": ["fib", "gcd"],
            "base": {"decompression": "ondemand"},
            "axes": {"grid": {"k_compress": [1, 2]}},
            "engine": "trace",
        }))
        spec = ExperimentSpec.from_file(str(path))
        assert spec.name == "round-trip"
        assert len(spec.cells()) == 4
        assert "engine" not in spec.to_dict()
        # to_dict -> from_dict preserves the expansion
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert [c.workload for c in again.cells()] == \
            [c.workload for c in spec.cells()]

    def test_from_file_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SpecError, match="cannot parse"):
            ExperimentSpec.from_file(str(path))

    def test_example_spec_file_is_valid(self):
        import pathlib

        repo = pathlib.Path(__file__).resolve().parents[2]
        spec = ExperimentSpec.from_file(
            str(repo / "examples" / "specs" / "kedge_grid.json")
        )
        assert len(spec.cells()) == 18
