"""Unit tests for the persistent experiment store (repro.store)."""

import json
import os
import struct
import time

import pytest

from repro.analysis.sweep import run_one
from repro.cfg import build_cfg
from repro.core import SimulationConfig
from repro.log import parse_kv
from repro.memory.image import ArtifactCache, compression_artifacts
from repro.registry import catalog_signature
from repro.runtime.metrics import FootprintTimeline
from repro.store import (
    ExperimentStore,
    StoreError,
    canonical_dumps,
    cell_fingerprint,
    code_version,
    config_signature,
    workload_digest,
)
from repro.store.records import (
    RECORD_VERSION,
    is_cacheable,
    record_to_run,
    run_to_record,
)
from repro.workloads import get_workload

_FAST = dict(trace_events=False, record_trace=False)


def _config(**overrides):
    fields = dict(codec="shared-dict", decompression="ondemand",
                  k_compress=2, **_FAST)
    fields.update(overrides)
    return SimulationConfig(**fields)


class TestFingerprint:
    def test_stable_across_calls(self):
        workload = get_workload("fib")
        config = _config()
        assert cell_fingerprint(workload, config) == \
            cell_fingerprint(workload, config)

    def test_equal_configs_agree(self):
        workload = get_workload("fib")
        assert cell_fingerprint(workload, _config()) == \
            cell_fingerprint(workload, _config())

    @pytest.mark.parametrize("change", [
        dict(k_compress=4),
        dict(codec="shared-huffman"),
        dict(decompression="pre-all"),
        dict(granularity="function"),
        dict(memory_budget=4096),
    ])
    def test_config_fields_participate(self, change):
        workload = get_workload("fib")
        assert cell_fingerprint(workload, _config()) != \
            cell_fingerprint(workload, _config(**change))

    def test_engine_fast_and_max_blocks_participate(self):
        # Every sweep runs one computation, so no engine name takes
        # part; fast and max_blocks do.
        workload = get_workload("fib")
        config = _config()
        with pytest.raises(TypeError, match="engine"):
            cell_fingerprint(workload, config, engine="trace")
        base = cell_fingerprint(workload, config)
        assert base != cell_fingerprint(workload, config, fast=False)
        assert base != cell_fingerprint(workload, config,
                                        max_blocks=100)

    def test_workloads_differ(self):
        config = _config()
        assert cell_fingerprint(get_workload("fib"), config) != \
            cell_fingerprint(get_workload("gcd"), config)

    def test_salt_env_invalidates(self, monkeypatch):
        workload = get_workload("fib")
        config = _config()
        before = cell_fingerprint(workload, config)
        monkeypatch.setenv("REPRO_STORE_SALT", "bumped")
        assert cell_fingerprint(workload, config) != before

    def test_workload_digest_is_content_addressed(self):
        digest = workload_digest(get_workload("fib"))
        assert digest.startswith("fib:")
        assert digest == workload_digest(get_workload("fib"))

    def test_profile_hashes_by_content(self):
        from repro.cfg.profile import EdgeProfile

        profile = EdgeProfile()
        profile.record_edge(0, 1)
        base = _config(decompression="pre-single",
                       predictor="static-profile", profile=profile)
        sig = config_signature(base)
        assert isinstance(sig["profile"], str)
        profile2 = EdgeProfile()
        profile2.record_edge(0, 2)
        other = _config(decompression="pre-single",
                        predictor="static-profile", profile=profile2)
        assert config_signature(other)["profile"] != sig["profile"]

    def test_code_version_is_cached_and_hexadecimal(self):
        version = code_version()
        assert version == code_version()
        int(version, 16)

    def test_catalog_signature_sorted(self):
        import repro.api  # noqa: F401  (registers executors)

        catalog = catalog_signature()
        assert list(catalog) == sorted(catalog)
        assert "executors" in catalog
        assert "caching" in catalog["executors"]

    def test_canonical_dumps_is_compact_and_sorted(self):
        text = canonical_dumps({"b": 1, "a": [1, 2]})
        assert text == '{"a":[1,2],"b":1}'


class TestCAS:
    def test_cell_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        record = {"schema": "x", "value": [1, 2, 3]}
        store.put_cell("ab" * 32, record)
        assert store.get_cell("ab" * 32) == record
        assert store.has_cell("ab" * 32)
        assert store.get_cell("cd" * 32) is None

    def test_identical_records_share_one_blob(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.put_cell("aa" * 32, {"v": 1})
        store.put_cell("bb" * 32, {"v": 1})
        assert store.stats()["cells"] == 2
        assert store.stats()["blobs"] == 1

    def test_corrupt_ref_and_blob_read_as_miss(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        digest = store.put_cell("aa" * 32, {"v": 1})
        ref = store._fan_path("cells", "aa" * 32)
        with open(ref, "w") as handle:
            handle.write("not-a-digest\n")
        assert store.get_cell("aa" * 32) is None
        # Restore the ref but corrupt the blob contents.
        with open(ref, "w") as handle:
            handle.write(digest + "\n")
        with open(store._fan_path("objects", digest), "wb") as handle:
            handle.write(b"garbage")
        assert store.get_cell("aa" * 32) is None

    def test_format_marker_checked(self, tmp_path):
        root = tmp_path / "store"
        ExperimentStore(root)
        marker = root / "format.json"
        marker.write_text('{"format": 999}')
        with pytest.raises(StoreError, match="format"):
            ExperimentStore(root)

    def test_inspection_mode_requires_marker(self, tmp_path):
        with pytest.raises(StoreError, match="no experiment store"):
            ExperimentStore(tmp_path / "missing", create=False)
        unmarked = tmp_path / "unmarked"
        unmarked.mkdir()
        with pytest.raises(StoreError, match="no experiment store"):
            ExperimentStore(unmarked, create=False)
        # A real store opens fine in inspection mode.
        ExperimentStore(tmp_path / "real")
        assert ExperimentStore(tmp_path / "real",
                               create=False).stats()["cells"] == 0

    def test_usage_counters_accumulate(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.add_usage(hits=2, misses=1, puts=1)
        store.add_usage(hits=3)
        stats = store.stats()
        assert stats["hits"] == 5
        assert stats["misses"] == 1
        assert stats["puts"] == 1

    def test_gc_removes_orphans_only(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.put_cell("aa" * 32, {"v": 1})
        orphan = store.put_blob(b"orphan bytes")
        report = store.gc()
        assert report["removed_blobs"] == 1
        assert store.get_blob(orphan) is None
        assert store.get_cell("aa" * 32) == {"v": 1}

    def test_gc_spares_fresh_tmp_files(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        fan = os.path.join(store.root, "objects", "ab")
        os.makedirs(fan)
        in_flight = os.path.join(fan, "abcd.tmp")
        with open(in_flight, "wb") as handle:
            handle.write(b"writer still at work")
        assert store.gc()["removed_blobs"] == 0
        assert os.path.exists(in_flight)  # a concurrent writer's file
        # Stale temp files (older than the grace window) do go.
        old = time.time() - store.GC_TMP_GRACE_SECONDS - 10
        os.utime(in_flight, (old, old))
        assert store.gc()["removed_blobs"] == 1
        assert not os.path.exists(in_flight)

    def test_clear_empties_but_keeps_marker(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.put_cell("aa" * 32, {"v": 1})
        store.clear()
        assert store.stats()["cells"] == 0
        assert store.stats()["blobs"] == 0
        assert os.path.exists(store._marker_path())

    def test_clear_refuses_unmarked_directory(self, tmp_path):
        victim = tmp_path / "precious"
        victim.mkdir()
        (victim / "data.txt").write_text("do not delete")
        store = ExperimentStore.__new__(ExperimentStore)
        store.root = str(victim)
        with pytest.raises(StoreError, match="refusing"):
            store.clear()
        assert (victim / "data.txt").read_text() == "do not delete"

    def test_artifact_bundle_roundtrip(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        blocks = [b"\x01\x02\x03\x04" * 4, b"\xff" * 8]
        payloads = [b"p0", b"p1"]
        store.put_artifact_bundle("shared-dict", blocks, payloads)
        assert store.get_artifact_bundle("shared-dict", blocks) == \
            payloads
        # Different codec or block bytes: a miss.
        assert store.get_artifact_bundle("shared-huffman", blocks) \
            is None
        assert store.get_artifact_bundle(
            "shared-dict", [b"\x00" * 4, b"\xff" * 8]
        ) is None

    def test_artifact_keys_tell_block_splits_apart(self, tmp_path):
        # Images whose blocks join to the same bytes, split differently.
        store = ExperimentStore(tmp_path / "store")
        images = ([b"\x01\x02\x03\x04"], [b"\x01\x02", b"\x03\x04"],
                  [b"\x01", b"\x02\x03\x04"], [b"\x01\x02\x03\x04", b""])
        keys = {store.artifact_key("shared-dict", blocks)
                for blocks in images}
        assert len(keys) == len(images)
        store.put_artifact_bundle("shared-dict", images[1], [b"p0", b"p1"])
        assert store.get_artifact_bundle("shared-dict", images[2]) is None
        assert store.get_artifact_bundle("shared-dict", images[1]) == \
            [b"p0", b"p1"]


class TestRecords:
    def test_roundtrip_preserves_metrics_exactly(self):
        from repro.api.results import run_metrics

        workload = get_workload("gcd")
        run = run_one(workload, _config())
        fingerprint = cell_fingerprint(workload, run.config)
        record = run_to_record(run, fingerprint)
        # The record must survive a JSON round-trip (what the CAS does).
        record = json.loads(canonical_dumps(record))
        rebuilt = record_to_run(record, run.config, fingerprint)
        assert rebuilt.workload == run.workload
        assert rebuilt.validation == run.validation
        assert run_metrics(rebuilt) == run_metrics(run)
        assert rebuilt.result.footprint.samples == \
            run.result.footprint.samples
        assert rebuilt.result.registers == run.result.registers

    def test_the_footprint_is_stored_as_two_columns(self):
        run = run_one(get_workload("gcd"), _config(k_compress=1))
        record = run_to_record(run, "0" * 64)
        timeline = run.result.footprint
        samples = timeline.samples
        assert len(samples) > 2
        assert record["version"] == RECORD_VERSION == 4
        cycles = [cycle for cycle, _ in samples]
        values = [value for _, value in samples]
        assert record["result"]["footprint"] == {
            "cycles": struct.pack(f"<{len(cycles)}q", *cycles).hex(),
            "values": struct.pack(f"<{len(values)}q", *values).hex(),
            "peak": max(values),
            "average": timeline.average(run.result.total_cycles),
        }

    def test_int64_columns_round_trip(self):
        run = run_one(get_workload("gcd"), _config())
        # The extremes of int64, zero and negatives survive the text.
        column = [-(1 << 63), -1, 0, 1, (1 << 63) - 1]
        run.result.footprint = FootprintTimeline(column, column[::-1])
        record = json.loads(canonical_dumps(run_to_record(run, "0" * 64)))
        assert len(record["result"]["footprint"]["cycles"]) == 16 * 5
        rebuilt = record_to_run(record, run.config, "0" * 64).result
        assert rebuilt.footprint.samples == list(zip(column, column[::-1]))
        assert rebuilt.footprint_stats == run.result.footprint_stats

    def test_decoding_adopts_the_stored_lists(self, monkeypatch):
        run = run_one(get_workload("gcd"), _config(record_trace=True))
        record = json.loads(canonical_dumps(run_to_record(run, "0" * 64)))
        data = record["result"]
        assert len(run.result.footprint) > 2 and data["block_trace"]
        calls = []
        for name in ("record", "average"):
            monkeypatch.setattr(FootprintTimeline, name,
                                lambda *args: calls.append(args))
        rebuilt = record_to_run(record, run.config, "0" * 64).result
        summary = rebuilt.summary()
        monkeypatch.undo()
        assert calls == []
        assert rebuilt.footprint_stats == (
            data["footprint"]["peak"], data["footprint"]["average"]
        )
        assert rebuilt.block_trace is data["block_trace"]
        assert rebuilt.footprint.samples == run.result.footprint.samples
        assert summary == run.result.summary()

    def test_malformed_record_raises_store_error(self):
        with pytest.raises(StoreError):
            record_to_run({"schema": "nope"}, _config(), "0" * 64)

    def test_a_record_of_another_cell_raises_store_error(self):
        run = run_one(get_workload("gcd"), _config())
        record = json.loads(canonical_dumps(run_to_record(run, "a" * 64)))
        record_to_run(record, run.config, "a" * 64)
        with pytest.raises(StoreError, match="record of cell aaaa"):
            record_to_run(record, run.config, "b" * 64)

    def test_error_runs_are_not_cacheable(self):
        from repro.analysis.sweep import _failed_run

        run = _failed_run(get_workload("fib"), _config(),
                          RuntimeError("boom"))
        assert not is_cacheable(run)

    def test_normal_runs_are_cacheable(self):
        run = run_one(get_workload("fib"), _config())
        assert is_cacheable(run)


class TestArtifactCacheLRU:
    def test_capacity_bounds_entries(self):
        cache = ArtifactCache(capacity=2)
        graphs = [build_cfg(get_workload(name).program)
                  for name in ("fib", "gcd", "crc32")]
        for graph in graphs:
            cache.put(graph, "shared-dict", object())
        assert len(cache) == 2
        assert cache.get(graphs[0], "shared-dict") is None  # evicted
        assert cache.get(graphs[2], "shared-dict") is not None

    def test_get_refreshes_recency(self):
        cache = ArtifactCache(capacity=2)
        graphs = [build_cfg(get_workload(name).program)
                  for name in ("fib", "gcd", "crc32")]
        cache.put(graphs[0], "shared-dict", "a0")
        cache.put(graphs[1], "shared-dict", "a1")
        cache.get(graphs[0], "shared-dict")  # 0 is now most recent
        cache.put(graphs[2], "shared-dict", "a2")
        assert cache.get(graphs[0], "shared-dict") == "a0"
        assert cache.get(graphs[1], "shared-dict") is None

    def test_clear_empties_the_cache(self):
        cache = ArtifactCache(capacity=4)
        graphs = [build_cfg(get_workload(name).program)
                  for name in ("fib", "gcd", "crc32")]
        for graph in graphs:
            cache.put(graph, "shared-dict", object())
        assert len(cache) == 3
        cache.clear()
        assert len(cache) == 0
        assert cache.get(graphs[0], "shared-dict") is None
        with pytest.raises(ValueError):
            ArtifactCache(capacity=0)

    def test_dead_cfg_entry_is_dropped(self):
        import gc

        cache = ArtifactCache(capacity=4)
        graph = build_cfg(get_workload("fib").program)
        cache.put(graph, "shared-dict", object())
        assert len(cache) == 1
        del graph
        gc.collect()
        assert len(cache) == 0

    def test_compression_artifacts_still_memoizes(self):
        graph = build_cfg(get_workload("fib").program)
        first = compression_artifacts(graph, "shared-dict")
        assert compression_artifacts(graph, "shared-dict") is first


class TestSharedModelRetraining:
    def test_retrained_models_build_identical_images(self):
        from repro.compress import get_codec
        from repro.compress.stats import block_bytes

        graph = build_cfg(get_workload("gcd").program)
        corpus = [block_bytes(block) for block in graph.blocks]
        for name in ("shared-dict", "shared-huffman", "shared-fields"):
            one, two = get_codec(name), get_codec(name)
            one.train(corpus)
            two.train(corpus)
            assert one.build_image(corpus) == two.build_image(corpus), name

    def test_untrained_decode_rejected(self):
        from repro.compress import CodecError, get_codec

        with pytest.raises(CodecError, match="trained"):
            get_codec("shared-dict").decompress_block(b"\x01\x00", 4)


class TestBlobIntegrity:
    """Corrupt blobs are counted, logged misses — never silent, never
    a crash (the PR-6 regression for the old silent ``return None``)."""

    def _corrupt_one_object(self, store):
        base = os.path.join(store.root, "objects")
        for fan in sorted(os.listdir(base)):
            fan_dir = os.path.join(base, fan)
            for name in sorted(os.listdir(fan_dir)):
                path = os.path.join(fan_dir, name)
                with open(path, "r+b") as handle:
                    first = handle.read(1)
                    handle.seek(0)
                    handle.write(bytes([first[0] ^ 0xFF]))
                return name
        raise AssertionError("store has no objects")

    def test_corrupt_blob_counts_and_warns(self, tmp_path, caplog):
        import logging

        store = ExperimentStore(tmp_path / "store")
        digest = store.put_blob(b"payload")
        self._corrupt_one_object(store)
        with caplog.at_level(logging.WARNING, logger="repro.store"):
            assert store.get_blob(digest) is None  # a miss, no crash
        assert store.corrupt_misses == 1
        assert store.stats()["corrupt_misses"] == 1
        events = [parse_kv(r.message) for r in caplog.records]
        corrupt = [e for e in events
                   if e.get("event") == "store.corrupt_blob"]
        assert corrupt and corrupt[0]["blob"] == digest[:12]
        assert corrupt[0]["action"] == "miss"

    def test_corrupt_cell_record_is_a_miss(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.put_cell("f" * 64, {"v": 1})
        self._corrupt_one_object(store)
        assert store.get_cell("f" * 64) is None
        assert store.corrupt_misses == 1

    def test_old_stats_files_load_without_the_new_key(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        with open(os.path.join(store.root, "stats.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"hits": 3, "misses": 1, "puts": 1}, handle)
        stats = store.stats()
        assert stats["hits"] == 3
        assert stats["corrupt_misses"] == 0
        store.add_usage(corrupt_misses=2)
        assert store.stats()["corrupt_misses"] == 2


class TestVerify:
    def _paths(self, store, kind):
        base = os.path.join(store.root, kind)
        out = []
        for fan in sorted(os.listdir(base)):
            fan_dir = os.path.join(base, fan)
            if os.path.isdir(fan_dir):
                out.extend(
                    os.path.join(fan_dir, name)
                    for name in sorted(os.listdir(fan_dir))
                )
        return out

    def test_clean_store_verifies_ok(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.put_cell("a" * 64, {"v": 1})
        report = store.verify()
        assert report["ok"]
        assert report["objects"] == 1
        assert report["refs"] == 1
        assert report["corrupt_objects"] == 0

    def test_corrupt_blob_quarantined_and_ref_pruned(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.put_cell("a" * 64, {"v": 1})
        store.put_cell("b" * 64, {"v": 2})
        target = self._paths(store, "objects")[0]
        digest = os.path.basename(target)
        with open(target, "ab") as handle:
            handle.write(b"rot")
        check = store.verify()
        assert not check["ok"]
        assert check["corrupt_objects"] == 1
        assert check["quarantined"] == 0  # check mode never mutates
        assert os.path.exists(target)
        repair = store.verify(repair=True)
        assert repair["quarantined"] == 1
        assert repair["pruned_refs"] == 1
        assert not os.path.exists(target)
        assert os.path.exists(
            os.path.join(store.root, "quarantine", digest)
        )
        # The untouched record still reads; the damaged one misses.
        hits = [store.get_cell("a" * 64), store.get_cell("b" * 64)]
        assert sorted(h is None for h in hits) == [False, True]
        assert store.verify()["ok"]

    def test_dangling_ref_detected_and_pruned(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        store.put_cell("a" * 64, {"v": 1})
        os.unlink(self._paths(store, "objects")[0])
        check = store.verify()
        assert not check["ok"]
        assert check["dangling_refs"] == 1
        repair = store.verify(repair=True)
        assert repair["pruned_refs"] == 1
        assert store.verify()["ok"]
        assert not store.has_cell("a" * 64)

    def test_stale_tmp_files_removed_on_repair(self, tmp_path):
        store = ExperimentStore(tmp_path / "store")
        fan_dir = os.path.join(store.root, "objects", "zz")
        os.makedirs(fan_dir)
        stale = os.path.join(fan_dir, "orphan.tmp")
        with open(stale, "wb") as handle:
            handle.write(b"half")
        old = time.time() - store.GC_TMP_GRACE_SECONDS - 10
        os.utime(stale, (old, old))
        fresh = os.path.join(fan_dir, "inflight.tmp")
        with open(fresh, "wb") as handle:
            handle.write(b"half")
        report = store.verify(repair=True)
        assert report["tmp_files"] == 1
        assert report["removed_tmp_files"] == 1
        assert not os.path.exists(stale)
        assert os.path.exists(fresh)  # possibly in flight: left alone
