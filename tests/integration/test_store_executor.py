"""Integration tests for the caching executor and the store layer.

The acceptance contract: running the same ExperimentSpec twice through
the CachingExecutor produces a byte-identical ResultSet to an uncached
run, with the second run executing zero simulator cells; a partial
(interrupted) sweep resumes by computing only the missing cells; and
two processes can write the same store concurrently without corrupting
it.
"""

import copy
import multiprocessing
import os
import struct
import sys
import threading

import pytest

import repro.core.manager as manager_module
from repro import api
from repro.analysis.sweep import effective_config
from repro.api.executor import SerialExecutor
from repro.core.config import SimulationConfig
from repro.runtime.metrics import COUNTER_NAMES, FootprintTimeline
from repro.store import ExperimentStore
from repro.store import executor as store_executor
from repro.store import fingerprint as fingerprint_module
from repro.store.executor import CachingExecutor
from repro.store.fingerprint import cell_fingerprint
from repro.store.records import RECORD_VERSION, run_to_record
from repro.workloads import get_workload


def _spec(**overrides):
    fields = dict(
        name="store-int",
        workloads=["fib", "gcd"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=api.grid(k_compress=[1, "inf"]),
    )
    fields.update(overrides)
    return api.ExperimentSpec(**fields)


def _base(**fields):
    return {"codec": "shared-dict", "decompression": "ondemand",
            **fields}


#: ``_spec`` overrides for each strategy family the E1-E15 drivers
#: sweep, and the ``_TRACE_CAP`` that truncates the recording (None:
#: the default cap, which every suite workload fits).
_FAMILIES = [
    pytest.param({}, None, id="ondemand"),
    pytest.param(dict(base=_base(decompression="pre-single")), None,
                 id="pre-single"),
    pytest.param(dict(base=_base(decompression="pre-all")), None,
                 id="pre-all"),
    pytest.param(dict(base=_base(memory_budget=256)), None,
                 id="memory-budget"),
    pytest.param(dict(workloads=["modular"],
                      base=_base(granularity="function")), None,
                 id="function-granularity"),
    pytest.param(dict(base=_base(image_scheme="inplace")), None,
                 id="inplace-image"),
    pytest.param(dict(base=_base(hierarchy="spm-front")), None,
                 id="hierarchy"),
    pytest.param(dict(base=_base(assignment="knapsack")), None,
                 id="selective-assignment"),
    pytest.param(dict(base=_base(assignment="pipeline-search")), None,
                 id="pipeline-search"),
    pytest.param(dict(fast=False), None, id="event-logging"),
    pytest.param(dict(axes=api.grid(k_compress=[1, "inf"],
                                    max_steps=[30, 50_000_000])),
                 None, id="raising-recording"),
    pytest.param({}, 8, id="truncated-recording"),
]


class CountingSerial(SerialExecutor):
    """A serial executor that counts the cells it actually computes."""

    def __init__(self, jobs=None):
        super().__init__(jobs)
        self.cells_computed = 0

    def run(self, partitions, fast=True, max_blocks=None):
        self.cells_computed += sum(
            len(p.configs) for p in partitions
        )
        return super().run(partitions, fast=fast, max_blocks=max_blocks)


class TestCacheEquivalence:
    def test_second_run_is_byte_identical_and_computes_nothing(
        self, tmp_path
    ):
        spec = _spec()
        uncached = api.run_experiment(spec)

        counting = CountingSerial()
        executor = CachingExecutor(
            store=str(tmp_path / "store"), inner=counting
        )
        first = api.run_experiment(spec, executor=executor)
        assert executor.misses == len(uncached.runs)
        assert counting.cells_computed == len(uncached.runs)

        second = api.run_experiment(spec, executor=executor)
        assert counting.cells_computed == len(uncached.runs), \
            "second run must execute zero simulator cells"
        assert executor.hits == len(uncached.runs)
        assert second.canonical_json() == uncached.canonical_json()
        assert first.canonical_json() == uncached.canonical_json()
        # The persistent hit counter agrees with the session counters.
        stats = executor.store.stats()
        assert stats["hits"] == len(uncached.runs)
        assert stats["misses"] == len(uncached.runs)

    @pytest.mark.parametrize("overrides, trace_cap", _FAMILIES)
    def test_every_strategy_family_shares_one_store(
        self, overrides, trace_cap, tmp_path, monkeypatch
    ):
        # Both legacy engine names run one computation under one
        # fingerprint, on every strategy path and on the interpreter a
        # raising or truncated recording falls back to: the store
        # serves every cell a "machine" run computed to a "trace" run,
        # labels included.
        if trace_cap is not None:
            monkeypatch.setattr(manager_module, "_TRACE_CAP", trace_cap)
        store = str(tmp_path / "store")
        machine = api.run_experiment(
            _spec(engine="machine", **overrides), store=store
        )
        trace = api.run_experiment(
            _spec(engine="trace", **overrides), store=store
        )
        uncached = api.run_experiment(_spec(**overrides))
        ok = sum(run.ok for run in machine.runs)
        assert machine.meta["cache"]["misses"] == len(machine.runs)
        # Error rows are never cached, so only they are computed again.
        assert 0 < ok and trace.meta["cache"] == {
            "hits": ok, "misses": len(trace.runs) - ok, "store": store,
        }
        assert machine.canonical_json() == trace.canonical_json() == \
            uncached.canonical_json()
        assert [(run.result.engine, run.result.registers)
                for run in trace.runs] == \
            [(run.result.engine, run.result.registers)
             for run in uncached.runs]
        # Which path computed the completed cells: replays, unless the
        # recording was truncated.
        assert {run.result.engine for run in uncached.runs if run.ok} \
            == {"trace" if trace_cap is None else "machine"}

    def test_parallel_inner_executor_matches(self, tmp_path):
        spec = _spec(jobs=2)
        store = str(tmp_path / "store")
        uncached = api.run_experiment(spec)
        first = api.run_experiment(spec, store=store)
        second = api.run_experiment(spec, store=store)
        assert second.meta["cache"]["hits"] == len(uncached.runs)
        assert first.canonical_json() == uncached.canonical_json()
        assert second.canonical_json() == uncached.canonical_json()


def _fill_store(tmp_path, spec):
    """Run ``spec`` uncached, then through a caching executor into a
    fresh store; returns the uncached result, the store, the counting
    inner executor, the caching executor and the stored fingerprints."""
    uncached = api.run_experiment(spec)
    counting = CountingSerial()
    executor = CachingExecutor(
        store=str(tmp_path / "store"), inner=counting
    )
    api.run_experiment(spec, executor=executor)
    store = executor.store
    fingerprints = [
        os.path.basename(path) for path in store._walk_refs("cells")
    ]
    assert len(fingerprints) == len(uncached.runs)
    return uncached, store, counting, executor, fingerprints


def _hex(column):
    """A column as v4 stores it: the hex text of its little-endian
    int64s."""
    return struct.pack(f"<{len(column)}q", *column).hex()


def _ints(text):
    return list(struct.unpack(f"<{len(text) // 16}q", bytes.fromhex(text)))


class TestUndecodableRecords:
    def test_out_of_order_footprint_is_a_miss(self, tmp_path):
        spec = _spec()
        uncached, store, counting, executor, fingerprints = \
            _fill_store(tmp_path, spec)
        for fingerprint in fingerprints:
            record = store.get_cell(fingerprint)
            footprint = record["result"]["footprint"]
            cycles = _ints(footprint["cycles"])
            cycles[0], cycles[1] = cycles[1], cycles[0]
            footprint["cycles"] = _hex(cycles)
            store.put_cell(fingerprint, record)

        rerun = api.run_experiment(spec, executor=executor)
        assert counting.cells_computed == 2 * len(uncached.runs)
        assert executor.hits == 0
        assert rerun.canonical_json() == uncached.canonical_json()

    def test_a_v3_column_record_is_recomputed_and_rewritten_as_v4(
        self, tmp_path
    ):
        spec = _spec()
        uncached, store, counting, executor, fingerprints = \
            _fill_store(tmp_path, spec)
        footprints = {}
        for fingerprint in fingerprints:
            record = store.get_cell(fingerprint)
            assert record["version"] == RECORD_VERSION == 4
            footprint = footprints[fingerprint] = \
                record["result"]["footprint"]
            # The v3 shape: the two columns as JSON int lists.
            record["version"] = 3
            record["result"]["footprint"] = [
                _ints(footprint["cycles"]), _ints(footprint["values"])
            ]
            store.put_cell(fingerprint, record)

        rerun = api.run_experiment(spec, executor=executor)
        assert counting.cells_computed == 2 * len(uncached.runs)
        assert rerun.canonical_json() == uncached.canonical_json()
        for fingerprint in fingerprints:
            record = store.get_cell(fingerprint)
            assert record["version"] == RECORD_VERSION
            assert record["result"]["footprint"] == footprints[fingerprint]
        served = api.run_experiment(spec, executor=executor)
        assert counting.cells_computed == 2 * len(uncached.runs)
        assert served.canonical_json() == uncached.canonical_json()

    @pytest.mark.parametrize("field, edit", [
        # The text decodes strictly.
        pytest.param("cycles", lambda text: text[:-1] + "g",
                     id="non-hex-digit"),
        pytest.param("values", lambda text: text[:16] + "  " + text[16:],
                     id="whitespace"),
        pytest.param("values", lambda text: text[:-1] + "\u00e9",
                     id="non-ascii"),
        pytest.param("cycles", lambda text: text[:-1], id="odd-length"),
        # Whole int64s, as many cycles as values.
        pytest.param("values", lambda text: text[:-2],
                     id="partial-int64"),
        pytest.param("cycles", lambda text: text[:-16],
                     id="shorter-cycles"),
        pytest.param("values", lambda text: text + text[-16:],
                     id="longer-values"),
        # Cycles strictly increase.
        pytest.param("cycles", lambda text: text[:16] + text[:-16],
                     id="equal-cycles"),
        # Each column is a string.
        pytest.param("cycles", _ints, id="int-list-column"),
        pytest.param("values", lambda text: None, id="null-column"),
        # The peak is an int and the average a float.
        pytest.param("peak", lambda peak: True, id="bool-peak"),
        pytest.param("peak", float, id="float-peak"),
        pytest.param("peak", str, id="string-peak"),
        pytest.param("average", int, id="int-average"),
        pytest.param("average", str, id="string-average"),
    ])
    def test_malformed_footprints_are_misses(self, tmp_path, field, edit):
        spec = _spec()
        uncached, store, counting, executor, fingerprints = \
            _fill_store(tmp_path, spec)
        stored = {}
        for fingerprint in fingerprints:
            record = stored[fingerprint] = store.get_cell(fingerprint)
            record = copy.deepcopy(record)
            footprint = record["result"]["footprint"]
            footprint[field] = edit(footprint[field])
            store.put_cell(fingerprint, record)

        rerun = api.run_experiment(spec, executor=executor)
        assert counting.cells_computed == 2 * len(uncached.runs)
        assert executor.hits == 0
        assert rerun.canonical_json() == uncached.canonical_json()
        for fingerprint in fingerprints:
            assert store.get_cell(fingerprint) == stored[fingerprint]


#: Every field of a v4 record by path, with the exact types its value
#: may have: the decoder's contract, written out here on its own.
_FIELD_TYPES = {
    ("schema",): {str},
    ("version",): {int},
    ("fingerprint",): {str},
    ("workload",): {str},
    ("validation",): {list},
    ("result",): {dict},
    **{("result", name): kinds for name, kinds in {
        "program": {str},
        "strategy": {str},
        "codec": {str},
        "k_compress": {int, type(None)},
        "k_decompress": {int, type(None)},
        "total_cycles": {int},
        "execution_cycles": {int},
        "uncompressed_size": {int},
        "compressed_size": {int},
        "trace_truncated": {bool},
        "engine": {str},
        "counters": {dict},
        "footprint": {dict},
        "registers": {list, type(None)},
        "block_trace": {list},
    }.items()},
    **{("result", "counters", name): {int} for name in COUNTER_NAMES},
    ("result", "footprint", "cycles"): {str},
    ("result", "footprint", "values"): {str},
    ("result", "footprint", "peak"): {int},
    ("result", "footprint", "average"): {float},
}

#: The lists a record holds, with the exact type of their items.
_LIST_ITEMS = {
    ("validation",): str,
    ("result", "registers"): int,
    ("result", "block_trace"): int,
}

#: How each case rewrites a stored value as another JSON type: where it
#: converts, to the same value (445 as 445.0 or "445", False as 0), so
#: that only an exact type check tells the two apart.
_RETYPED = {
    "list": lambda value: [],
    "dict": lambda value: {},
    "bool": lambda value: True,
    "int": lambda value: int(value) if type(value) in (bool, float) else 3,
    "float": lambda value: float(value) if type(value) is int else 12.9,
    "string": lambda value: str(value),
    "null": lambda value: None,
}
_KINDS = {"list": list, "dict": dict, "bool": bool, "int": int,
          "float": float, "string": str, "null": type(None)}


def _retyped_fields():
    for path, kinds in _FIELD_TYPES.items():
        name = ".".join(path)
        for kind, retype in _RETYPED.items():
            if _KINDS[kind] not in kinds:
                yield pytest.param(path, retype, id=f"{name}-{kind}")
        yield pytest.param(path, None, id=f"{name}-missing")
    for path in ((), ("result",), ("result", "counters"),
                 ("result", "footprint")):
        yield pytest.param(path + ("extra",), lambda value: 0,
                           id=f"{'.'.join(path) or 'record'}-extra-key")
    for path, item in _LIST_ITEMS.items():
        name = ".".join(path)
        for kind, retype in _RETYPED.items():
            if _KINDS[kind] is not item:
                yield pytest.param(
                    path, lambda value, retype=retype, item=item:
                    [item(), retype(item())],
                    id=f"{name}-{kind}-item",
                )


class TestTypedRecords:
    """A record is adopted whole or is a miss: every field has one exact
    type (an ``int`` is never a ``bool``), and no key is missing or
    extra."""

    SPEC = _spec(workloads=["gcd"], axes=api.grid(k_compress=["inf"]))

    @pytest.fixture(scope="class")
    def one_cell(self, tmp_path_factory):
        """A store holding one gcd cell; its record; the cell's
        canonical JSON."""
        executor = CachingExecutor(
            store=str(tmp_path_factory.mktemp("typed") / "store"),
            inner=CountingSerial(),
        )
        cold = api.run_experiment(self.SPEC, executor=executor)
        [path] = executor.store._walk_refs("cells")
        fingerprint = os.path.basename(path)
        return (executor, fingerprint, executor.store.get_cell(fingerprint),
                cold.canonical_json())

    def test_every_field_is_typed(self, one_cell):
        def paths(data, path=()):
            for name, value in data.items():
                yield path + (name,)
                if type(value) is dict:
                    yield from paths(value, path + (name,))

        assert set(paths(one_cell[2])) == set(_FIELD_TYPES)

    def _served(self, one_cell, record):
        executor, fingerprint, _, _ = one_cell
        computed = executor.inner.cells_computed
        hits = executor.hits
        executor.store.put_cell(fingerprint, record)
        rerun = api.run_experiment(self.SPEC, executor=executor)
        return (rerun, executor.inner.cells_computed - computed,
                executor.hits - hits)

    def test_an_untouched_record_is_a_hit(self, one_cell):
        _, _, record, cold = one_cell
        rerun, computed, hits = self._served(one_cell, record)
        assert (computed, hits) == (0, 1)
        assert rerun.canonical_json() == cold

    @pytest.mark.parametrize("path, retype", _retyped_fields())
    def test_a_mistyped_field_is_a_miss_that_is_recomputed(
        self, one_cell, path, retype
    ):
        executor, fingerprint, record, cold = one_cell
        edited = copy.deepcopy(record)
        *parents, name = path
        data = edited
        for parent in parents:
            data = data[parent]
        if retype is None:
            del data[name]
        else:
            data[name] = retype(data.get(name))
        rerun, computed, hits = self._served(one_cell, edited)
        assert (computed, hits) == (1, 0)
        assert rerun.canonical_json() == cold
        assert executor.store.get_cell(fingerprint) == record

    def test_a_coerced_gcd_record_is_recomputed(self, one_cell):
        # Served as a hit with 3 faults, 1 stall and 12 total cycles
        # when the decoder applied int() and bool() to what it read.
        executor, fingerprint, record, cold = one_cell
        edited = copy.deepcopy(record)
        edited["result"]["counters"]["faults"] = "3"
        edited["result"]["counters"]["stalls"] = True
        edited["result"]["total_cycles"] = 12.9
        rerun, computed, hits = self._served(one_cell, edited)
        assert (computed, hits) == (1, 0)
        [run] = rerun.runs
        assert run.result.total_cycles == 445
        assert rerun.canonical_json() == cold
        assert executor.store.get_cell(fingerprint) == record


class TestWarmReads:
    def test_a_warm_sweep_rederives_no_footprint_statistic(
        self, tmp_path, monkeypatch
    ):
        spec = _spec(
            workloads=["fib", "gcd", "crc32"],
            axes=api.grid(codec=["shared-dict", "huffman"],
                          k_compress=[1, "inf"]),
        )
        calls = {"average": 0, "record": 0}
        average = FootprintTimeline.average
        record = FootprintTimeline.record

        def counted_average(timeline, end_cycle=None):
            calls["average"] += 1
            return average(timeline, end_cycle)

        def counted_record(timeline, cycle, footprint):
            calls["record"] += 1
            return record(timeline, cycle, footprint)

        monkeypatch.setattr(FootprintTimeline, "average", counted_average)
        monkeypatch.setattr(FootprintTimeline, "record", counted_record)
        store = str(tmp_path / "store")
        cold = api.run_experiment(spec, store=store)
        cold_json = cold.canonical_json()
        cold_calls = dict(calls)
        calls.update(average=0, record=0)
        warm = api.run_experiment(spec, store=store)
        warm_json = warm.canonical_json()

        assert cold.meta["cache"]["misses"] == len(cold) == 12
        assert warm.meta["cache"]["hits"] == len(warm) == 12
        # One statistics pass per computed cell, shared by its record
        # and its serialisation; the kernel samples each run's start.
        assert cold_calls["average"] == len(cold)
        assert cold_calls["record"] >= len(cold)
        assert calls == {"average": 0, "record": 0}
        assert warm_json == cold_json


class TestPlanning:
    def test_one_signature_per_distinct_config(self, monkeypatch):
        spec = _spec(
            workloads=["fib", "gcd", "crc32"],
            axes=api.grid(codec=["shared-dict", "huffman"],
                          k_compress=[1, "inf"]),
        )
        partitions = [
            api.Partition(workload=name, configs=configs)
            for name, configs in spec.partitions()
        ]
        signed = []
        original = fingerprint_module.config_signature

        def counting(config):
            signed.append(config)
            return original(config)

        monkeypatch.setattr(fingerprint_module, "config_signature",
                            counting)
        monkeypatch.setattr(store_executor, "config_signature", counting)
        plan = store_executor.plan_cells(
            partitions, fast=spec.fast, max_blocks=spec.max_blocks
        )
        assert len(signed) == len(spec.configs()) == 4
        monkeypatch.undo()
        # Configs that print the same label still get their own
        # signature: every fingerprint is the one a cell alone gets.
        fingerprints = set()
        for partition, row in zip(partitions, plan):
            for config, (fingerprint, cell_config) in zip(
                partition.configs, row
            ):
                assert cell_config == effective_config(config, spec.fast)
                assert fingerprint == cell_fingerprint(
                    get_workload(partition.workload), cell_config,
                    fast=spec.fast, max_blocks=spec.max_blocks,
                )
                fingerprints.add(fingerprint)
        assert len(fingerprints) == 12

    def test_configs_carrying_an_edge_profile_are_cached(self, tmp_path):
        profile = api.profile_workload("fib")
        configs = [
            SimulationConfig(
                codec="shared-dict", decompression="pre-single",
                predictor="static-profile", profile=profile, k_compress=k,
            )
            for k in (1, None)
        ]
        store = str(tmp_path / "store")
        uncached = api.run_grid(["fib", "gcd"], configs)
        first = api.run_grid(["fib", "gcd"], configs, store=store)
        second = api.run_grid(["fib", "gcd"], configs, store=store)
        assert all(run.ok for run in uncached.runs)
        assert first.meta["cache"]["misses"] == 4
        assert second.meta["cache"]["hits"] == 4
        assert first.canonical_json() == second.canonical_json() == \
            uncached.canonical_json()


class _Gate(threading.Event):
    """A claim's event that reports when a run starts waiting on it."""

    def __init__(self):
        super().__init__()
        self.waited = threading.Event()

    def wait(self, timeout=None):
        self.waited.set()
        return super().wait(timeout)


class TestClaims:
    """The claim map: claim, read once, hold a miss until it is stored."""

    @staticmethod
    def _hold_only_cell(store, spec):
        """Claim ``spec``'s one cell from the test thread, as another
        run would; returns the claim key and its gate."""
        partitions = [
            api.Partition(workload=name, configs=configs)
            for name, configs in spec.partitions()
        ]
        [[(fingerprint, _)]] = store_executor.plan_cells(
            partitions, fast=spec.fast, max_blocks=spec.max_blocks,
        )
        key = (os.path.abspath(store.root), fingerprint)
        gate = _Gate()
        with store_executor._CLAIMS_LOCK:
            assert key not in store_executor._CLAIMS
            store_executor._CLAIMS[key] = gate
        return key, gate

    def _run_against_held_claim(self, tmp_path, store_the_cell):
        spec = _spec(workloads=["fib"], axes=api.grid(k_compress=[1]))
        uncached = api.run_experiment(spec)
        store = ExperimentStore(tmp_path / "store")
        key, gate = self._hold_only_cell(store, spec)
        counting = CountingSerial()
        events = []
        executor = CachingExecutor(
            store=store, inner=counting,
            on_cell=lambda *event: events.append(event),
        )
        results = []
        runner = threading.Thread(target=lambda: results.append(
            api.run_experiment(spec, executor=executor)
        ))
        runner.start()
        try:
            while runner.is_alive() and not gate.waited.wait(0.05):
                pass
            assert gate.waited.is_set(), "the run never waited"
            if store_the_cell:
                store.put_cell(key[1], run_to_record(uncached.runs[0],
                                                     key[1]))
        finally:
            store_executor._release(key)
            runner.join(60)
        [result] = results
        assert result.canonical_json() == uncached.canonical_json()
        assert [event[:4] for event in events] == [
            (0, "fib", uncached.runs[0].config.strategy_name,
             "shared" if store_the_cell else "computed"),
        ]
        assert events[0][4] is result.runs[0]
        return result, counting, store.stats()

    def test_a_claimed_cell_is_served_once_its_holder_stores_it(
        self, tmp_path
    ):
        result, counting, stats = self._run_against_held_claim(
            tmp_path, store_the_cell=True
        )
        assert counting.cells_computed == 0
        assert result.meta["cache"]["hits"] == 1
        assert (stats["hits"], stats["misses"], stats["puts"]) == \
            (1, 0, 0)

    def test_a_waiter_computes_what_its_holder_never_stored(
        self, tmp_path
    ):
        result, counting, stats = self._run_against_held_claim(
            tmp_path, store_the_cell=False
        )
        assert counting.cells_computed == 1
        assert result.meta["cache"]["misses"] == 1
        assert (stats["hits"], stats["misses"], stats["puts"]) == \
            (0, 1, 1)

    def test_a_claimant_stores_each_record_before_releasing(
        self, tmp_path, monkeypatch
    ):
        store = ExperimentStore(tmp_path / "store")
        root = os.path.abspath(store.root)
        held_at_put = []
        put_cell = store.put_cell

        def checking_put(fingerprint, record):
            held_at_put.append((root, fingerprint)
                               in store_executor._CLAIMS)
            return put_cell(fingerprint, record)

        monkeypatch.setattr(store, "put_cell", checking_put)
        result = api.run_experiment(
            _spec(), executor=CachingExecutor(store=store)
        )
        assert held_at_put == [True] * len(result.runs)
        assert not [key for key in store_executor._CLAIMS
                    if key[0] == root]

    def test_concurrent_overlapping_runs_compute_each_cell_once(
        self, tmp_path
    ):
        # Four runs in threads (more than this suite's cores) over
        # overlapping grids whose union is 8 cells, with frequent
        # thread switches: every cell is computed and stored once.
        grids = ([1, 2, 4], [2, 4, 8], [1, 4, 8], [1, 2, 8])
        specs = [_spec(axes=api.grid(k_compress=ks)) for ks in grids]
        store = ExperimentStore(tmp_path / "store")
        inners = [CountingSerial() for _ in specs]
        results = [None] * len(specs)
        barrier = threading.Barrier(len(specs))

        def run(i):
            barrier.wait(30)
            results[i] = api.run_experiment(specs[i], executor=(
                CachingExecutor(store=store, inner=inners[i])
            ))

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(specs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # The outer scope the service's JobManager holds: the runs'
            # own artifact scopes restore out of order.
            with store_executor.artifact_scope(store):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sum(inner.cells_computed for inner in inners) == 8
        stats = store.stats()
        assert (stats["puts"], stats["cells"], stats["misses"]) == \
            (8, 8, 8)
        assert stats["hits"] == 3 * 2 * len(specs) - 8
        for spec, result in zip(specs, results):
            assert result.canonical_json() == \
                api.run_experiment(spec).canonical_json()
        assert "REPRO_STORE_ARTIFACTS" not in os.environ

    def test_each_cell_is_read_once_per_run(self, tmp_path, monkeypatch):
        store = ExperimentStore(tmp_path / "store")
        reads = []
        get_cell = store.get_cell

        def counting_get(fingerprint):
            reads.append(fingerprint)
            return get_cell(fingerprint)

        monkeypatch.setattr(store, "get_cell", counting_get)
        executor = CachingExecutor(store=store)
        cold = api.run_experiment(_spec(), executor=executor)
        assert len(reads) == len(set(reads)) == len(cold.runs)
        api.run_experiment(_spec(), executor=executor)
        assert len(reads) == 2 * len(cold.runs)
        assert (executor.hits, executor.misses) == \
            (len(cold.runs), len(cold.runs))


class TestExecutorResolution:
    def test_no_cache_beats_caching_executor_name(self, tmp_path,
                                                  monkeypatch):
        from repro.api.executor import make_executor

        monkeypatch.setenv("REPRO_STORE_DIR",
                           str(tmp_path / "env"))
        chosen = make_executor("caching", store=False)
        assert not isinstance(chosen, CachingExecutor)
        assert not (tmp_path / "env").exists()

    def test_jobs_keeps_a_caching_spec_caching(self, tmp_path,
                                               monkeypatch):
        # --jobs N computes a caching spec's misses in parallel; it
        # must not drop the store the spec asked for.
        import repro.store.cas as cas

        default = str(tmp_path / "default")
        monkeypatch.delenv("REPRO_STORE_DIR", raising=False)
        monkeypatch.setattr(cas, "DEFAULT_STORE_DIR", default)
        spec = _spec(executor="caching")
        first = api.run_experiment(spec, jobs=2)
        assert (first.meta["executor"], first.meta["jobs"]) == \
            ("caching", 2)
        assert first.meta["cache"] == {
            "hits": 0, "misses": len(first.runs), "store": default,
        }
        second = api.run_experiment(spec, jobs=2)
        assert second.meta["cache"]["hits"] == len(second.runs)
        assert second.canonical_json() == first.canonical_json()

    def test_instance_executor_honours_requested_store(self, tmp_path):
        from repro.api.executor import make_executor

        inner = SerialExecutor()
        chosen = make_executor(inner,
                               store=str(tmp_path / "store"))
        assert isinstance(chosen, CachingExecutor)
        assert chosen.inner is inner
        # Without a store request, instances pass through untouched.
        assert make_executor(inner) is inner
        # A caching instance is never double-wrapped.
        assert make_executor(chosen,
                             store=str(tmp_path / "store")) is chosen


class TestResume:
    def test_interrupted_sweep_computes_only_missing_cells(
        self, tmp_path
    ):
        store = str(tmp_path / "store")
        partial = _spec(axes=api.grid(k_compress=[1]))
        full = _spec(axes=api.grid(k_compress=[1, "inf"]))
        api.run_experiment(partial, store=store)

        resumed = api.run_experiment(full, store=store)
        cache = resumed.meta["cache"]
        assert cache["hits"] == len(partial.workload_names())
        assert cache["misses"] == \
            len(resumed.runs) - cache["hits"]
        assert resumed.canonical_json() == \
            api.run_experiment(full).canonical_json()

    def test_hard_interrupted_serial_sweep_keeps_finished_partitions(
        self, tmp_path
    ):
        # A serial inner persists partition by partition: when the
        # second partition dies mid-run, the first one's cells are
        # already on disk and the retry only recomputes the rest.
        class DiesOnSecondCall(SerialExecutor):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def run(self, partitions, **kwargs):
                self.calls += 1
                if self.calls > 1:
                    raise KeyboardInterrupt()
                return super().run(partitions, **kwargs)

        store_dir = str(tmp_path / "store")
        spec = _spec()
        broken = CachingExecutor(store=store_dir,
                                 inner=DiesOnSecondCall())
        with pytest.raises(KeyboardInterrupt):
            api.run_experiment(spec, executor=broken)
        assert ExperimentStore(store_dir).stats()["cells"] == 2

        resumed = api.run_experiment(spec, store=store_dir)
        assert resumed.meta["cache"]["hits"] == 2
        assert resumed.meta["cache"]["misses"] == 2
        assert resumed.canonical_json() == \
            api.run_experiment(spec).canonical_json()

    def test_result_set_merge_composes_partials(self, tmp_path):
        partial = api.run_experiment(_spec(axes=api.grid(
            k_compress=[1]
        )))
        full = api.run_experiment(_spec())
        merged = partial.merge(full)
        assert len(merged) == len(full)
        # Live (partial) runs win; the rest come from the other set.
        assert merged.runs[0] is partial.runs[0]
        # Same cells (merge keeps self-first order, so compare as sets).
        import json as json_module

        def cell_set(result_set):
            return {
                json_module.dumps(cell, sort_keys=True)
                for cell in result_set.to_dict(
                    include_execution=False
                )["cells"]
            }

        assert cell_set(merged) == cell_set(full)
        # Merging a set with itself is the identity.
        assert full.merge(full).canonical_json() == \
            full.canonical_json()


def _concurrent_worker(store_dir, barrier):
    from repro import api as worker_api

    spec = worker_api.ExperimentSpec(
        name="store-int",
        workloads=["fib", "gcd"],
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=worker_api.grid(k_compress=[1, "inf"]),
    )
    barrier.wait(timeout=60)  # maximise write overlap
    result = worker_api.run_experiment(spec, store=store_dir)
    if result.failures():
        raise SystemExit(3)


class TestConcurrency:
    def test_two_processes_write_one_store(self, tmp_path):
        store_dir = str(tmp_path / "store")
        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(2)
        workers = [
            context.Process(target=_concurrent_worker,
                            args=(store_dir, barrier))
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        # The store must be intact and fully warm: a third run in this
        # process is served entirely from cache and matches a cold run.
        spec = _spec()
        cached = api.run_experiment(spec, store=store_dir)
        assert cached.meta["cache"]["misses"] == 0
        assert cached.meta["cache"]["hits"] == len(cached.runs)
        assert cached.canonical_json() == \
            api.run_experiment(spec).canonical_json()
        store = ExperimentStore(store_dir)
        stats = store.stats()
        assert stats["cells"] == len(cached.runs)


class TestErrorCells:
    def test_raising_cell_reported_not_dropped(self):
        # max_steps tiny -> the machine raises; the grid must still
        # produce a row for every cell and flag the failures.
        spec = _spec(base={
            "codec": "shared-dict", "decompression": "ondemand",
            "max_steps": 5,
        })
        result = api.run_experiment(spec)
        assert len(result.runs) == 4
        assert len(result.errors()) == 4
        for run in result.errors():
            assert not run.ok
            assert "MachineError" in run.error
        payload = result.to_dict()
        assert all("error" in cell for cell in payload["cells"])

    def test_error_cells_are_not_cached(self, tmp_path):
        store = str(tmp_path / "store")
        spec = _spec(base={
            "codec": "shared-dict", "decompression": "ondemand",
            "max_steps": 5,
        })
        first = api.run_experiment(spec, store=store)
        assert first.meta["cache"]["misses"] == len(first.runs)
        second = api.run_experiment(spec, store=store)
        # Still misses: failures must re-raise, not replay from cache.
        assert second.meta["cache"]["hits"] == 0
        assert ExperimentStore(store).stats()["cells"] == 0


class TestArtifactReuse:
    def test_payloads_roundtrip_through_the_store(self, tmp_path):
        from repro.cfg import build_cfg
        from repro.memory.image import (
            artifact_cache,
            compression_artifacts,
            set_artifact_provider,
        )
        from repro.store.executor import StoreArtifactProvider
        from repro.workloads import get_workload

        store = ExperimentStore(tmp_path / "store")
        provider = StoreArtifactProvider(store)
        graph = build_cfg(get_workload("crc32").program)
        baseline = compression_artifacts(graph, "shared-dict")

        previous = set_artifact_provider(provider)
        try:
            artifact_cache().clear()
            saved = compression_artifacts(graph, "shared-dict")
            assert saved.payloads == baseline.payloads
            assert store.stats()["artifacts"] == 1
            # A "new process": cold LRU, artifacts served from disk.
            artifact_cache().clear()
            loaded = compression_artifacts(graph, "shared-dict")
            assert loaded.payloads == baseline.payloads
            assert loaded.codec.model_digest() == \
                baseline.codec.model_digest()
        finally:
            set_artifact_provider(previous)
            artifact_cache().clear()

    def test_overlapping_scopes_leave_nothing_behind(self, tmp_path):
        # Four runs in threads, each computing its own cell in its own
        # artifact scope, with no enclosing scope and frequent thread
        # switches: the scopes close out of order, and once every run
        # has returned the provider and the variable from before remain.
        from repro.memory import image as image_module

        def installed():
            return (image_module._artifact_provider,
                    os.environ.get("REPRO_STORE_ARTIFACTS"))

        before = installed()
        specs = [_spec(workloads=["gcd"], axes=api.grid(k_compress=[k]))
                 for k in (1, 2, 4, 8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for trial in range(10):
                store = ExperimentStore(tmp_path / f"store-{trial}")
                threads = [
                    threading.Thread(target=api.run_experiment, args=(spec,),
                                     kwargs={"executor": CachingExecutor(
                                         store=store)})
                    for spec in specs
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
                assert not any(thread.is_alive() for thread in threads)
                assert store.stats()["puts"] == len(specs), trial
                assert installed() == before, trial
        finally:
            sys.setswitchinterval(interval)

    def test_env_var_does_not_leak_after_run(self, tmp_path):
        spec = _spec(axes=api.grid(k_compress=[1]))
        assert "REPRO_STORE_ARTIFACTS" not in os.environ
        api.run_experiment(spec, store=str(tmp_path / "store"))
        assert "REPRO_STORE_ARTIFACTS" not in os.environ
