"""Unit tests for the CLI."""

import pytest

from repro.cli import main


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "matmul" in out
        assert "shared-dict" in out
        assert "online-profile" in out
        assert "pre-single" in out

    def test_lists_every_registry_family(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for kind in ("codecs", "strategies", "predictors",
                     "executors", "hierarchies", "assignments"):
            assert f"{kind}:" in out, kind
        assert "engines:" not in out
        assert "parallel, serial" in out

    def test_lists_at_least_three_hierarchy_presets(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        line = next(
            l for l in out.splitlines() if l.startswith("hierarchies:")
        )
        presets = [p.strip() for p in line.split(":", 1)[1].split(",")]
        assert len(presets) >= 3
        assert {"flat", "spm-front", "two-level-dram"} <= set(presets)


class TestInspect:
    def test_inspect_shows_cfg_and_ratios(self, capsys):
        assert main(["inspect", "fib"]) == 0
        out = capsys.readouterr().out
        assert "basic blocks" in out
        assert "CFG" in out
        assert "static compression" in out

    def test_inspect_disasm(self, capsys):
        assert main(["inspect", "fib", "--disasm"]) == 0
        out = capsys.readouterr().out
        assert "fib_loop:" in out

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["inspect", "nope"])


class TestRun:
    def test_run_default(self, capsys):
        assert main(["run", "fib"]) == 0
        out = capsys.readouterr().out
        assert "validation: OK" in out
        assert "cycles:" in out

    def test_run_with_options(self, capsys):
        assert main([
            "run", "gcd", "--codec", "shared-fields",
            "--strategy", "pre-single", "--k-compress", "4",
            "--k-decompress", "3", "--predictor", "markov",
        ]) == 0
        assert "validation: OK" in capsys.readouterr().out

    def test_run_never_recompress(self, capsys):
        assert main(["run", "fib", "--k-compress", "0"]) == 0
        assert "kc" in capsys.readouterr().out

    def test_run_with_budget(self, capsys):
        assert main(["run", "crc32", "--budget", "4096"]) == 0


class TestPipelineCodecOption:
    def test_run_accepts_compact_pipeline_spec(self, capsys):
        assert main(
            ["run", "fib", "--codec", "delta|huffman"]
        ) == 0
        assert "validation: OK" in capsys.readouterr().out

    def test_run_accepts_json_pipeline_spec(self, capsys):
        assert main([
            "run", "fib", "--codec",
            '{"layers": ["stride:4"], "entropy": "shared-dict"}',
        ]) == 0
        assert "validation: OK" in capsys.readouterr().out

    def test_unknown_layer_rejected_with_message(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fib", "--codec", "bogus|huffman"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "unknown transform 'bogus'" in err
        assert "delta" in err  # names what *is* available

    def test_empty_segment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "fib", "--codec", "|huffman"])
        assert excinfo.value.code != 0
        assert "empty segment" in capsys.readouterr().err

    def test_pipeline_entropy_stage_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fib", "--codec", "delta|"])
        assert excinfo.value.code != 0
        assert "empty segment" in capsys.readouterr().err

    def test_unknown_flat_codec_suggests_pipelines(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fib", "--codec", "nope"])
        assert excinfo.value.code != 0
        err = capsys.readouterr().err
        assert "unknown codec 'nope'" in err
        assert "pipeline spec" in err

    def test_list_shows_pipelines_and_transforms(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pipelines:" in out
        assert "transforms:" in out
        assert "stride:4|shared-dict" in out
        assert "pipeline spec grammar" in out


class TestSweep:
    def test_sweep_table(self, capsys):
        assert main(["sweep", "gcd", "--k-values", "1,4,inf"]) == 0
        out = capsys.readouterr().out
        assert "k-edge sweep" in out
        assert "inf" in out

    def test_sweep_row_count(self, capsys):
        main(["sweep", "fib", "--k-values", "1,2"])
        out = capsys.readouterr().out
        data_rows = [
            line for line in out.splitlines()
            if line and line[0].isdigit()
        ]
        assert len(data_rows) == 2

    def test_sweep_accepts_none_for_infinity(self, capsys):
        assert main(["sweep", "fib", "--k-values", "1,none"]) == 0
        assert "inf" in capsys.readouterr().out

    def test_sweep_hierarchy_changes_traffic_and_energy(self, capsys):
        def table_numbers(hierarchy):
            assert main([
                "sweep", "dijkstra", "--k-values", "1,4",
                "--hierarchy", hierarchy,
            ]) == 0
            out = capsys.readouterr().out
            assert hierarchy in out
            rows = [
                line.split() for line in out.splitlines()
                if line and line[0].isdigit()
            ]
            # (traffic_B, energy_nJ) are the last two columns.
            return [(row[-2], row[-1]) for row in rows]

        flat = table_numbers("flat")
        spm = table_numbers("spm-front")
        assert len(flat) == len(spm) == 2
        assert flat != spm

    def test_sweep_rejects_unknown_hierarchy(self):
        with pytest.raises(SystemExit):
            main(["sweep", "fib", "--hierarchy", "warp"])

    def test_sweep_rejects_zero_k(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "gcd", "--k-values", "0"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "k must be >= 1" in err
        assert "'inf'" in err

    def test_sweep_rejects_negative_and_garbage_k(self):
        for bad in ("-4", "1,fast", ""):
            with pytest.raises(SystemExit):
                main(["sweep", "gcd", "--k-values", bad])

    def test_sweep_trace_engine_matches_machine(self, capsys):
        # Every sweep runs one computation: no flag picks an engine.
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "gcd", "--k-values", "1,4",
                  "--engine", "trace"])
        assert excinfo.value.code == 2
        assert "--engine" in capsys.readouterr().err

    def test_sweep_jobs_flag(self, capsys):
        assert main(["sweep", "fib", "--k-values", "1,2",
                     "--jobs", "2"]) == 0
        assert "k-edge sweep" in capsys.readouterr().out


class TestAssignmentCLI:
    def test_run_with_assignment(self, capsys):
        assert main(["run", "composite",
                     "--assignment", "knapsack"]) == 0
        out = capsys.readouterr().out
        assert "knapsack" in out
        assert "validation: OK" in out

    def test_sweep_assignment_changes_results(self, capsys):
        def sweep(policy):
            assert main([
                "sweep", "composite", "--k-values", "2",
                "--assignment", policy,
            ]) == 0
            return capsys.readouterr().out

        uniform = sweep("uniform")
        hot = sweep("hotness-threshold")
        assert uniform != hot

    def test_compare_with_parameterised_assignment(self, capsys):
        assert main(["compare", "gcd",
                     "--assignment", "knapsack:0.9"]) == 0
        assert "design space" in capsys.readouterr().out

    def test_unknown_assignment_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fib", "--assignment", "warp"])
        assert excinfo.value.code == 2
        assert "unknown assignment" in capsys.readouterr().err

    def test_bad_assignment_parameter_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "fib", "--assignment", "knapsack:0"])
        assert "invalid parameters" in capsys.readouterr().err

    def test_uncompressed_strategy_skips_profiling_run(
        self, capsys, monkeypatch
    ):
        # strategy=none builds no image, so the assignment is inert —
        # the CLI must not pay for (or pretend to use) a profile.
        import repro.api as api_mod

        def boom(*_args, **_kwargs):
            raise AssertionError("profiled an uncompressed run")

        monkeypatch.setattr(api_mod, "profile_workload", boom)
        assert main(["run", "fib", "--strategy", "none",
                     "--assignment", "knapsack"]) == 0
        assert "validation: OK" in capsys.readouterr().out


class TestCompare:
    def test_compare_strategies(self, capsys):
        assert main(["compare", "gcd"]) == 0
        out = capsys.readouterr().out
        for label in ("uncompressed", "ondemand", "pre-all",
                      "pre-single"):
            assert label in out

    def test_compare_trace_engine(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["compare", "gcd", "--engine", "trace"])
        assert excinfo.value.code == 2


class TestExp:
    SPEC = {
        "name": "cli-test",
        "workloads": ["fib", "gcd"],
        "base": {"codec": "shared-dict", "decompression": "ondemand"},
        "axes": {"grid": {"k_compress": [1, "inf"]}},
    }

    def _write_spec(self, tmp_path, spec=None):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec or self.SPEC))
        return str(path)

    def test_exp_runs_spec(self, capsys, tmp_path):
        assert main(["exp", "--spec",
                     self._write_spec(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "experiment 'cli-test'" in out
        assert "4 cells over 2 workloads" in out
        assert "schema v2" in out

    def test_exp_writes_versioned_json_and_csv(self, capsys, tmp_path):
        import json

        out_json = tmp_path / "rs.json"
        out_csv = tmp_path / "rs.csv"
        assert main([
            "exp", "--spec", self._write_spec(tmp_path),
            "--jobs", "2",
            "--output", str(out_json), "--csv", str(out_csv),
        ]) == 0
        data = json.loads(out_json.read_text())
        assert data["schema"] == "repro.api.resultset"
        assert data["version"] == 2
        assert "engine" not in data["meta"]
        assert len(data["cells"]) == 4
        assert data["execution"]["executor"] == "parallel"
        assert out_csv.read_text().startswith("workload,label,")

    def test_exp_jobs_keeps_the_spec_cache(self, capsys, tmp_path,
                                           monkeypatch):
        # `exp --spec F --jobs 2` on a spec asking for the caching
        # executor computes its misses in parallel and still reads and
        # fills the default store.
        import repro.store.cas as cas

        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.setattr(cas, "DEFAULT_STORE_DIR",
                            str(tmp_path / "default"))
        path = self._write_spec(
            tmp_path, {**self.SPEC, "executor": "caching"}
        )
        assert main(["exp", "--spec", path, "--jobs", "2"]) == 0
        first = capsys.readouterr().out
        assert "(caching executor, jobs=2)" in first
        assert "cache 0 hit(s) / 4 miss(es)" in first
        assert main(["exp", "--spec", path, "--jobs", "2"]) == 0
        assert "cache 4 hit(s) / 0 miss(es)" in capsys.readouterr().out

    def test_exp_engine_override(self, capsys, tmp_path):
        # A spec file may still carry a legacy engine name; there is
        # no flag to override it, and the table does not name it.
        path = self._write_spec(
            tmp_path, {**self.SPEC, "engine": "machine"}
        )
        with pytest.raises(SystemExit) as excinfo:
            main(["exp", "--spec", path, "--engine", "trace"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        assert main(["exp", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "experiment 'cli-test' (serial executor, jobs=1)" in out
        assert "engine" not in out

    def test_exp_missing_spec_file(self, capsys, tmp_path):
        assert main(["exp", "--spec",
                     str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_exp_bad_spec(self, capsys, tmp_path):
        path = self._write_spec(
            tmp_path, {"workloads": ["fib"], "axes": {"warp": {}}}
        )
        assert main(["exp", "--spec", path]) == 2
        assert "axes operator" in capsys.readouterr().err

    def test_exp_raising_cells_exit_nonzero_and_are_named(
        self, capsys, tmp_path
    ):
        spec = dict(self.SPEC)
        spec["base"] = {**spec["base"], "max_steps": 5}
        assert main(["exp", "--spec",
                     self._write_spec(tmp_path, spec)]) == 1
        captured = capsys.readouterr()
        assert "4 cell(s) failed" in captured.err
        from repro.log import parse_kv

        rows = [
            parse_kv(line) for line in captured.err.splitlines()
            if "event=cell.failed" in line
        ]
        assert len(rows) == 4
        assert {"fib", "gcd"} == {row["workload"] for row in rows}
        assert any(row["label"] == "ondemand/kc=1" for row in rows)
        assert all("MachineError" in row["error"] for row in rows)
        # The table still lists every cell (nothing silently dropped).
        assert captured.out.count(" NO") == 4


class TestExpAssignmentOverride:
    def test_exp_assignment_override(self, capsys, tmp_path):
        import json

        spec = dict(TestExp.SPEC)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out_csv = tmp_path / "rs.csv"
        assert main([
            "exp", "--spec", str(path),
            "--assignment", "hotness-threshold",
            "--csv", str(out_csv),
        ]) == 0
        header, *rows = out_csv.read_text().splitlines()
        column = header.split(",").index("assignment")
        assert all(
            row.split(",")[column] == "hotness-threshold"
            for row in rows
        )

    def test_exp_rejects_bad_assignment_override(self, capsys, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TestExp.SPEC))
        with pytest.raises(SystemExit):
            main(["exp", "--spec", str(path),
                  "--assignment", "warp"])

    def test_exp_override_beats_assignment_axis(self, capsys, tmp_path):
        # Axis overrides win over base during expansion; --assignment
        # must still force every cell, including axis-swept ones.
        import json

        spec = {
            "workloads": ["fib"],
            "base": {"codec": "shared-dict",
                     "decompression": "ondemand"},
            "axes": {"grid": {"assignment": ["uniform", "knapsack"]}},
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        out_csv = tmp_path / "rs.csv"
        assert main([
            "exp", "--spec", str(path),
            "--assignment", "hotness-threshold",
            "--csv", str(out_csv),
        ]) == 0
        header, *rows = out_csv.read_text().splitlines()
        column = header.split(",").index("assignment")
        assert rows and all(
            row.split(",")[column] == "hotness-threshold"
            for row in rows
        )


class TestStoreCLI:
    def _sweep(self, store):
        return ["sweep", "gcd", "--k-values", "1,4",
                "--store", str(store)]

    def test_sweep_store_flag_caches_and_output_identical(
        self, capsys, tmp_path
    ):
        store = tmp_path / "store"
        assert main(self._sweep(store)) == 0
        first_out = capsys.readouterr().out
        assert main(self._sweep(store)) == 0
        assert capsys.readouterr().out == first_out
        assert main(["store", "stats", "--store", str(store)]) == 0
        stats_out = capsys.readouterr().out
        assert "cells:     2" in stats_out
        assert "2 hits" in stats_out

    def test_no_cache_ignores_store_env(self, capsys, tmp_path,
                                        monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        assert main(["sweep", "gcd", "--k-values", "1",
                     "--no-cache"]) == 0
        capsys.readouterr()
        # --no-cache means the env store is never even created.
        assert not (tmp_path / "env").exists()

    def test_stats_refuses_nonexistent_store(self, capsys, tmp_path):
        assert main(["store", "stats", "--store",
                     str(tmp_path / "typo")]) == 2
        assert "no experiment store" in capsys.readouterr().err
        assert not (tmp_path / "typo").exists()

    def test_store_env_opt_in(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DIR", str(tmp_path / "env"))
        assert main(["sweep", "gcd", "--k-values", "1"]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store",
                     str(tmp_path / "env")]) == 0
        assert "cells:     1" in capsys.readouterr().out

    def test_exp_store_flag(self, capsys, tmp_path):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TestExp.SPEC))
        store = tmp_path / "store"
        args = ["exp", "--spec", str(path), "--store", str(store)]
        assert main(args) == 0
        assert "cache 0 hit(s) / 4 miss(es)" in \
            capsys.readouterr().out
        assert main(args) == 0
        assert "cache 4 hit(s) / 0 miss(es)" in \
            capsys.readouterr().out

    def test_store_gc_and_clear(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(self._sweep(store)) == 0
        capsys.readouterr()
        assert main(["store", "gc", "--store", str(store)]) == 0
        assert "removed 0 blob(s)" in capsys.readouterr().out
        assert main(["store", "clear", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(store)]) == 0
        assert "cells:     0" in capsys.readouterr().out


class TestRetryFlags:
    def test_sweep_accepts_retry_flags(self, capsys):
        assert main(["sweep", "gcd", "--k-values", "1",
                     "--retries", "2", "--cell-timeout", "30"]) == 0
        assert "k-edge sweep" in capsys.readouterr().out

    def test_retries_recover_an_injected_fault(self, capsys,
                                               monkeypatch):
        from repro.faults import FAULTS_ENV, FaultPlan, FaultRule

        plan = FaultPlan(rules=(
            FaultRule(kind="transient", site="cell", match="gcd",
                      times=1),
        ))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        # Without retries the injected fault fails the cell ...
        assert main(["sweep", "gcd", "--k-values", "1"]) == 1
        capsys.readouterr()
        # ... with --retries the same command succeeds.
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert main(["sweep", "gcd", "--k-values", "1",
                     "--retries", "1"]) == 0
        capsys.readouterr()

    def test_negative_retries_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "gcd", "--k-values", "1",
                  "--retries", "-1"])
        capsys.readouterr()


class TestStoreVerifyCLI:
    def _corrupt_one(self, store):
        import os

        base = os.path.join(str(store), "objects")
        for fan in sorted(os.listdir(base)):
            fan_dir = os.path.join(base, fan)
            for name in sorted(os.listdir(fan_dir)):
                with open(os.path.join(fan_dir, name), "ab") as handle:
                    handle.write(b"rot")
                return
        raise AssertionError("no objects to corrupt")

    def test_verify_clean_store(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["sweep", "gcd", "--k-values", "1",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["store", "verify", "--store", str(store)]) == 0
        assert "store verify OK" in capsys.readouterr().out

    def test_verify_reports_damage_then_repairs(self, capsys,
                                                tmp_path):
        store = tmp_path / "store"
        assert main(["sweep", "gcd", "--k-values", "1,4",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        self._corrupt_one(store)
        assert main(["store", "verify", "--store", str(store)]) == 1
        captured = capsys.readouterr()
        assert "1 corrupt" in captured.out
        assert "--repair" in captured.err
        assert main(["store", "verify", "--repair",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "1 quarantined" in out
        assert (store / "quarantine").is_dir()
        assert main(["store", "verify", "--store", str(store)]) == 0
        assert "store verify OK" in capsys.readouterr().out

    def test_stats_prints_corrupt_misses(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert main(["sweep", "gcd", "--k-values", "1",
                     "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["store", "stats", "--store", str(store)]) == 0
        assert "corrupt miss(es)" in capsys.readouterr().out


class TestGateHarnessesAreScripts:
    """The bench and the smoke gates run from ``benchmarks/perf/``: the
    product CLI keeps no command, flag or alias for them."""

    @pytest.mark.parametrize("argv, message", [
        (["bench", "--smoke"], "invalid choice: 'bench'"),
        (["obs", "smoke"], "invalid choice: 'obs'"),
        (["store", "smoke"], "invalid choice: 'smoke'"),
        (["serve", "--smoke"], "unrecognized arguments: --smoke"),
    ], ids=["bench", "obs-smoke", "store-smoke", "serve-smoke"])
    def test_gate_is_not_a_cli_command(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
