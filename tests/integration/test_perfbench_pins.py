"""The benchmark's outputs, pinned.

Each ``perfbench`` workload runs one seed-1 sweep at full scale through
the benchmark's own ``prepare`` and ``run_sweep``, and the SHA-256 of
its ``canonical_json`` must equal the pin below.  A change that means to
alter results regenerates these pins and says so; any other change
leaves them as they are.

``warm_store`` serves the ``kedge_sweep`` grid from records its set-up
stored, so its pin is ``kedge_sweep``'s: a cold and a warm sweep agree
byte for byte.
"""

import hashlib
import os

import pytest

from perfbench import workloads
from repro.core.config import SimulationConfig
from repro.runtime.metrics import FootprintTimeline
from repro.store import ExperimentStore
from repro.store.records import record_to_run

PINS = {
    "kedge_sweep":
        "9d014c407eb7520b6d0821893c704e3d23572b484761f19c8302b6810f556475",
    "warm_store":
        "9d014c407eb7520b6d0821893c704e3d23572b484761f19c8302b6810f556475",
    "predecomp_budget":
        "92ba6e5b6677462435cca84cc7a0797822e7eacbee6685700ce0c0869340f984",
    "codec_search":
        "45c0f82d517b20a82103ae3ae78efcc6c0300a2f78b3c22b1ae65a31c7538054",
}


def _digest(scenario):
    store = scenario.sweep_store()
    try:
        result, text = workloads.run_sweep(scenario, store)
    finally:
        scenario.release_store(store)
    assert [run.workload for run in result if not run.ok] == []
    assert workloads.store_problems(scenario, result) == []
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    scenario = workloads.prepare(
        "warm_store", 1, str(tmp_path_factory.mktemp("warm_store"))
    )
    try:
        yield scenario
    finally:
        scenario.close()


@pytest.mark.parametrize(
    "name", ["kedge_sweep", "predecomp_budget", "codec_search"]
)
def test_seed_one_sweep_matches_its_pin(name, tmp_path):
    scenario = workloads.prepare(name, 1, str(tmp_path))
    try:
        digest = _digest(scenario)
    finally:
        scenario.close()
    assert digest == PINS[name]


def test_warm_store_sweep_matches_its_pin(warm_store):
    assert _digest(warm_store) == PINS["warm_store"]


def test_stored_statistics_match_their_columns(warm_store):
    store = ExperimentStore(warm_store.store_dir)
    results = [
        record_to_run(store.get_cell(os.path.basename(path)),
                      SimulationConfig()).result
        for path in store._walk_refs("cells")
    ]
    assert len(results) == len(warm_store.spec.configs()) * 15 == 315
    for result in results:
        cycles, values = result.footprint.cycles, result.footprint.values
        recomputed = FootprintTimeline(list(cycles), list(values))
        assert result.footprint_stats == (
            max(values), recomputed.average(result.total_cycles)
        )
