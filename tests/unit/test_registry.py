"""Unit tests for the unified component registry."""

import pytest

from repro.registry import REGISTRIES, Registry, all_registries


class TestRegistry:
    def test_decorator_registration_and_lookup(self):
        reg = Registry("widgets-test", catalog=False)

        @reg.register("alpha")
        class Alpha:
            name = "placeholder"

        assert reg.get("alpha") is Alpha
        # The decorator stamps the registry key onto the class.
        assert Alpha.name == "alpha"
        assert isinstance(reg.create("alpha"), Alpha)

    def test_add_and_contains(self):
        reg = Registry("things-test", catalog=False)
        reg.add("x", 42)
        assert "x" in reg
        assert "y" not in reg
        assert reg.get("x") == 42
        assert len(reg) == 1

    def test_unknown_name_error_lists_available(self):
        reg = Registry("gadgets-test", item="gadget", catalog=False)
        reg.add("a", 1)
        with pytest.raises(KeyError, match="unknown gadget 'b'"):
            reg.get("b")
        with pytest.raises(KeyError, match=r"\['a'\]"):
            reg.get("b")

    def test_create_rejects_non_callable(self):
        reg = Registry("consts-test", catalog=False)
        reg.add("pi", 3.14)
        with pytest.raises(TypeError, match="not constructible"):
            reg.create("pi")

    def test_names_sorted_and_registration_order(self):
        reg = Registry("ordered-test", catalog=False)
        reg.add("b", 2)
        reg.add("a", 1)
        assert reg.names() == ["a", "b"]
        assert reg.names(sort=False) == ["b", "a"]

    def test_reregistration_replaces_without_duplicating(self):
        reg = Registry("redo-test", catalog=False)
        reg.add("k", 1)
        reg.add("k", 2)
        assert reg.get("k") == 2
        assert reg.names() == ["k"]

    def test_singular_item_name(self):
        assert Registry("testcodecs", catalog=False).item == "testcodec"
        # explicit item overrides the naive singulariser
        reg = Registry("strategies-test", item="strategy", catalog=False)
        with pytest.raises(KeyError, match="unknown strategy"):
            reg.get("nope")


class TestCatalog:
    def test_private_registries_stay_out_of_catalog(self):
        Registry("ephemeral-test", catalog=False)
        assert "ephemeral-test" not in all_registries()

    def test_duplicate_catalogued_kind_rejected(self):
        import repro.api  # noqa: F401  (catalogues "codecs")

        with pytest.raises(ValueError, match="already exists"):
            Registry("codecs")

    def test_core_families_present(self):
        # Importing the api facade pulls in every defining module.
        import repro.api  # noqa: F401

        catalog = all_registries()
        for kind in ("codecs", "strategies", "predictors", "workloads",
                     "executors"):
            assert kind in catalog, kind
            assert len(catalog[kind]) > 0, kind
        assert "engines" not in catalog

    def test_known_members(self):
        import repro.api  # noqa: F401

        assert "shared-dict" in REGISTRIES["codecs"]
        assert "ondemand" in REGISTRIES["strategies"]
        assert "none" in REGISTRIES["strategies"]
        assert "online-profile" in REGISTRIES["predictors"]
        assert "fib" in REGISTRIES["workloads"]
        assert set(REGISTRIES["executors"].names()) == \
            {"caching", "parallel", "serial"}

    def test_externally_registered_strategy_is_simulated(self):
        # The advertised extension point: registering a decompression
        # strategy must make the simulator actually *use* it, not just
        # accept its name.
        from repro.core import SimulationConfig
        from repro.core.manager import CodeCompressionManager
        from repro.cfg import build_cfg
        from repro.strategies import STRATEGIES, OnDemandDecompression
        from repro.workloads import get_workload

        @STRATEGIES.register("test-eager")
        class EagerOnDemand(OnDemandDecompression):
            """On-demand plus: pre-fetch every successor at block exit."""

            uses_thread = True
            instances = []

            def __init__(self):
                EagerOnDemand.instances.append(self)

            def on_block_exit(self, block_id):
                return sorted(self.view.cfg.successors(block_id))

        try:
            workload = get_workload("fib")
            manager = CodeCompressionManager(
                build_cfg(workload.program),
                SimulationConfig(decompression="test-eager",
                                 trace_events=False, record_trace=False),
            )
            assert isinstance(manager.decompression, EagerOnDemand)
            manager.run()
            assert workload.validate(manager.machine) == []
        finally:
            STRATEGIES.remove("test-eager")

    def test_legacy_helpers_ride_the_registry(self):
        from repro.compress import available_codecs, get_codec
        from repro.workloads import available_workloads, get_workload
        from repro.strategies import available_predictors

        assert available_codecs() == REGISTRIES["codecs"].names()
        assert available_workloads() == REGISTRIES["workloads"].names()
        assert available_predictors() == REGISTRIES["predictors"].names()
        assert get_codec("null").name == "null"
        assert get_workload("fib").name == "fib"
