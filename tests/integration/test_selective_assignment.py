"""Integration: per-unit codec assignment through the whole stack.

Mixed-codec images must decode correctly on the executed path (the
workload oracles check final machine state), charge each unit its own
codec's latency, replay identically in a sweep, keep the
uniform default on the exact pre-selection code path, and fingerprint
distinctly in the experiment store.
"""

import json

import pytest

from repro import api
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.memory.image import compression_artifacts
from repro.selection import UNCOMPRESSED, build_assignment
from repro.store.fingerprint import cell_fingerprint
from repro.workloads import get_workload

_POLICIES = ("uniform", "hotness-threshold", "knapsack",
             "hotness-threshold:0.2:rle")


@pytest.fixture(scope="module")
def profiles():
    return {
        name: api.profile_workload(name)
        for name in ("composite", "cold_paths", "fsm")
    }


def _configs(profile, **overrides):
    fields = dict(
        codec="shared-dict", decompression="ondemand", k_compress=2,
        profile=profile, trace_events=False, record_trace=False,
    )
    fields.update(overrides)
    return [
        SimulationConfig(assignment=policy, **fields)
        for policy in _POLICIES
    ]


class TestOracleValidation:
    def test_mixed_codec_runs_pass_oracles(self, profiles):
        for name, profile in profiles.items():
            grid = api.run_grid([name], _configs(profile), store=False)
            assert not grid.failures(), (name, grid.failures())

    def test_function_granularity_and_predecompression(self, profiles):
        grid = api.run_grid(
            ["composite"],
            _configs(
                profiles["composite"],
                decompression="pre-all", granularity="function",
            ),
            store=False,
        )
        assert not grid.failures()


class TestEngineEquivalence:
    def test_sweep_metrics_match_cells_alone(self, profiles):
        configs = _configs(profiles["composite"])
        swept = api.run_grid(["composite"], configs, store=False)
        alone = api.ResultSet(
            [api.run_cell("composite", config) for config in configs]
        )
        swept_cells = swept.to_dict(include_execution=False)["cells"]
        alone_cells = alone.to_dict(include_execution=False)["cells"]
        assert json.dumps(swept_cells, sort_keys=True) == \
            json.dumps(alone_cells, sort_keys=True)


class TestUniformIdentity:
    def test_uniform_uses_shared_artifact_path(self):
        cfg = build_cfg(get_workload("composite").program)
        _, result = api.run_instrumented(
            cfg, SimulationConfig(codec="shared-dict")
        )
        manager, _ = api.run_instrumented(
            cfg, SimulationConfig(codec="shared-dict")
        )
        # The uniform default must ride the exact single-codec memo:
        # same shared artifacts object, no assignment built.
        assert manager.residency.assignment is None
        assert manager.residency.artifacts is compression_artifacts(
            cfg, "shared-dict"
        )

    def test_uniform_metrics_unchanged_by_assignment_field(self):
        # Constructing via an explicit assignment="uniform" must be
        # indistinguishable from the default.
        base = SimulationConfig()
        explicit = SimulationConfig(assignment="uniform")
        assert base == explicit


class TestPerUnitLatency:
    def test_uncompressed_units_charge_zero_codec_latency(self):
        profile = api.profile_workload("composite")
        cfg = build_cfg(get_workload("composite").program)
        config = SimulationConfig(
            codec="shared-dict", assignment="hotness-threshold",
            profile=profile,
        )
        manager, _ = api.run_instrumented(cfg, config)
        residency = manager.residency
        assignment = residency.assignment
        assert assignment is not None
        null_units = [
            unit for unit, codec_name in assignment.unit_codecs.items()
            if codec_name == UNCOMPRESSED
        ]
        assert null_units
        for unit in null_units:
            assert residency.unit_codec(unit).name == "null"
            assert residency.unit_decompress_latency(unit) == 0
        base_units = [
            unit for unit, codec_name in assignment.unit_codecs.items()
            if codec_name == "shared-dict"
        ]
        for unit in base_units[:3]:
            assert residency.unit_decompress_latency(unit) > 0

    def test_mixed_image_size_matches_assignment(self):
        profile = api.profile_workload("cold_paths")
        cfg = build_cfg(get_workload("cold_paths").program)
        config = SimulationConfig(
            codec="shared-dict", assignment="knapsack",
            profile=profile,
        )
        assignment = build_assignment(cfg, config)
        manager, result = api.run_instrumented(cfg, config)
        image = manager.residency.image
        per_codec = {
            name: compression_artifacts(cfg, name)
            for name in assignment.codec_names()
        }
        expected = sum(
            len(per_codec[assignment.block_codecs[b.block_id]]
                .payloads[b.block_id])
            for b in cfg.blocks
        ) + image.model_overhead
        assert result.compressed_size == expected
        # Model overhead charged once per distinct codec in use.
        distinct = {
            id(image.codec_for(b.block_id)) for b in cfg.blocks
        }
        assert image.model_overhead == sum(
            int(getattr(c, "model_overhead_bytes", 0))
            for c in {
                id(image.codec_for(b.block_id)):
                image.codec_for(b.block_id)
                for b in cfg.blocks
            }.values()
        )
        assert len(distinct) >= 2

    def test_every_mixed_block_verifies(self):
        profile = api.profile_workload("fsm")
        cfg = build_cfg(get_workload("fsm").program)
        manager, _ = api.run_instrumented(
            cfg,
            SimulationConfig(
                codec="shared-dict", assignment="hotness-threshold",
                profile=profile,
            ),
        )
        image = manager.residency.image
        assert all(
            image.verify_block(b.block_id) for b in cfg.blocks
        )


class TestArtifactProvider:
    def test_mixed_cell_never_poisons_a_uniform_cells_bundle(
        self, tmp_path, monkeypatch
    ):
        # A mixed cell's payload list interleaves codecs; stored under
        # the base codec's key it would poison the bundle a later
        # uniform cell loads.  Through the store's artifact provider, a
        # mixed cell and then a uniform cell against one store must
        # leave the uniform cell with a store-less run's payloads.
        from repro.memory.image import artifact_cache
        from repro.store import ExperimentStore
        from repro.store.executor import artifact_scope

        cfg = build_cfg(get_workload("composite").program)
        mixed_config = SimulationConfig(
            codec="shared-dict", assignment="hotness-threshold",
            profile=api.profile_workload("composite"),
        )
        uniform_config = SimulationConfig(codec="shared-dict")
        artifact_cache().clear()
        storeless, _ = api.run_instrumented(cfg, uniform_config)
        store = ExperimentStore(tmp_path / "store")
        loaded = []
        get_bundle = store.get_artifact_bundle

        def recording_get(codec_name, block_data):
            payloads = get_bundle(codec_name, block_data)
            loaded.append((codec_name, payloads is not None))
            return payloads

        monkeypatch.setattr(store, "get_artifact_bundle", recording_get)
        try:
            with artifact_scope(store):
                artifact_cache().clear()
                mixed, _ = api.run_instrumented(cfg, mixed_config)
                assert mixed.residency.artifacts.codec_map is not None
                # A cold memo, as in a fresh process: the uniform cell
                # loads its payloads from the store.
                artifact_cache().clear()
                del loaded[:]
                uniform, _ = api.run_instrumented(cfg, uniform_config)
        finally:
            artifact_cache().clear()
        assert loaded == [("shared-dict", True)]
        assert uniform.residency.artifacts.payloads == \
            storeless.residency.artifacts.payloads


class TestProfileWorkload:
    def test_profile_counts_match_block_entries(self):
        profile = api.profile_workload("fib")
        run = api.run_cell(
            "fib",
            SimulationConfig(
                decompression="none", codec="null",
                trace_events=False, record_trace=True,
            ),
        )
        assert sum(profile.block_counts.values()) == \
            len(run.result.block_trace)

    def test_refuses_truncated_profiling_trace(self, monkeypatch):
        import repro.core.manager as manager_mod

        monkeypatch.setattr(manager_mod, "_TRACE_CAP", 4)
        with pytest.raises(ValueError, match="recording cap"):
            api.profile_workload("fib")

    def test_profile_then_sweep_interprets_once(self, monkeypatch):
        # The profile comes from the recording the sweep of the same
        # workload object replays: one Machine for both.
        import repro.core.manager as manager_mod

        built = []
        machine_class = manager_mod.Machine

        def counting_machine(cfg, *args, **kwargs):
            built.append(cfg.name)
            return machine_class(cfg, *args, **kwargs)

        monkeypatch.setattr(manager_mod, "Machine", counting_machine)
        workload = get_workload("composite")
        profile = api.profile_workload(workload)
        grid = api.run_grid([workload], _configs(profile)[:2],
                            store=False)
        assert not grid.failures()
        assert built == ["composite"]


class TestStoreFingerprints:
    def test_assignments_fingerprint_distinctly(self):
        workload = get_workload("composite")
        profile = api.profile_workload(workload)
        prints = {
            policy: cell_fingerprint(
                workload,
                SimulationConfig(
                    codec="shared-dict", assignment=policy,
                    profile=profile,
                ),
            )
            for policy in ("uniform", "knapsack", "knapsack:0.9")
        }
        assert len(set(prints.values())) == len(prints)
