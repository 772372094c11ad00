"""Golden-result pin for the default memory hierarchy.

The manager decomposition (timing/residency subsystems + the explicit
memory-hierarchy layer) must not change a single byte of what the
simulator computes under the default ``flat`` preset.  This test runs an
E1-style k-edge grid and compares :meth:`ResultSet.canonical_json`
against a committed golden file, so any future drift in metrics,
counters, or serialisation shape fails loudly.

Regenerate (only after deliberately changing simulation semantics or
the result schema) by calling :func:`_run_grid` and writing its
``canonical_json()`` to :data:`GOLDEN`.
"""

import json
import pathlib

from repro import api
from repro.core import SimulationConfig

GOLDEN = (
    pathlib.Path(__file__).parent.parent
    / "golden" / "e1_kedge_default.json"
)

_WORKLOADS = ("composite", "cold_paths", "fib")
_K_VALUES = (1, 2, 4, 8, None)


def _run_grid() -> api.ResultSet:
    configs = [
        SimulationConfig(
            codec="shared-dict", decompression="ondemand",
            k_compress=k, trace_events=False, record_trace=False,
        )
        for k in _K_VALUES
    ]
    return api.run_grid(list(_WORKLOADS), configs, store=False)


class TestGoldenResults:
    def test_default_hierarchy_grid_matches_golden(self):
        result = _run_grid()
        assert not result.failures()
        got = result.canonical_json()
        want = GOLDEN.read_text().strip()
        if got != want:
            # Pinpoint the first divergence for a readable failure.
            got_data = json.loads(got)
            want_data = json.loads(want)
            assert got_data == want_data, (
                "canonical result drifted from the golden file; if the "
                "change is deliberate, regenerate tests/golden/"
            )
            raise AssertionError(
                "canonical JSON text differs (same data, different "
                "serialisation) — the canonical form must be stable"
            )

    def test_golden_cells_are_default_hierarchy(self):
        data = json.loads(GOLDEN.read_text())
        assert data["cells"], "golden file has no cells"
        for cell in data["cells"]:
            assert cell["config"]["hierarchy"] == "flat"

    def test_golden_config_keys_match_live_schema(self):
        # A new SimulationConfig field changes every cell's config
        # signature: the golden file must then be deliberately
        # regenerated, never silently left stale.  (Pipeline codecs
        # deliberately added no field — a pipeline spec is a value of
        # the existing ``codec`` axis.)
        import dataclasses

        from repro.core import SimulationConfig as Config

        live = {f.name for f in dataclasses.fields(Config)}
        live |= {"strategy_name", "label"}
        data = json.loads(GOLDEN.read_text())
        for cell in data["cells"]:
            assert set(cell["config"]) == live
