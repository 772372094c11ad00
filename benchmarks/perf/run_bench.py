#!/usr/bin/env python
"""Performance microbenchmarks, written to ``BENCH_core.json`` at the
repository root.

Times the hot paths this project optimises and verifies, while doing
so, that the fast paths are *exact*:

* **codec round-trips** — compress+decompress over a corpus of real
  block bytes and synthetic buffers, per codec.  The Huffman round-trip
  is additionally timed against the frozen seed implementation
  (``tests/oracle/reference.py``) and the payloads are checked
  byte-for-byte.
* **E1 k-edge sweep** — a (workload x k) grid run through
  :func:`repro.analysis.sweep.sweep` (one recording per program, every
  cell replayed) against every cell of it run alone, each interpreting
  its program, with every cell's metrics compared.

Any payload or metric mismatch, or a measurement past its budget, marks
the run failed: the exit code is 1 and ``BENCH FAILED:`` on stderr
names each failing gate and its value.  The report goes next to the
repository's top-level files wherever this runs from, so the perf
trajectory is comparable change over change.

Usage::

    python benchmarks/perf/run_bench.py [--smoke] [--only NAME]
        [--repeat N] [--output PATH] [--no-write]

``--smoke`` is the fast CI mode (smaller corpus, fewer repeats).
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import pathlib
import platform
import random
import statistics
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "tests"))

# The paths are set up above.
from oracle.codecs import BitWriter  # noqa: E402
from oracle.reference import (  # noqa: E402
    reference_huffman_compress,
    reference_huffman_decompress,
)
from repro.analysis.sweep import (  # noqa: E402
    SweepRun,
    effective_config,
    run_one,
    sweep,
)
from repro.cfg import build_cfg  # noqa: E402
from repro.compress.bitio import PACK_CHUNK, BitReader, pack_bits  # noqa: E402
from repro.compress.codec import get_codec  # noqa: E402
from repro.compress.stats import block_bytes  # noqa: E402
from repro.core.config import SimulationConfig  # noqa: E402
from repro.workloads import generate_sized_program, get_workload  # noqa: E402

#: Where the full report goes unless ``--output`` names another path.
DEFAULT_REPORT = REPO_ROOT / "BENCH_core.json"

#: Codecs timed by the round-trip benchmark (each input's code-image
#: payload, decoded against its length).
BENCH_CODECS = ("huffman", "lzw", "lz77", "rle", "dictionary",
                "shared-dict", "shared-huffman")

#: Workloads whose encoded blocks form the benchmark corpus.
_CORPUS_WORKLOADS = ("composite", "dijkstra", "crc32")

#: Size of the synthetic whole-application buffer in the corpus (the
#: decompressor-sized input where the per-byte loops dominate).
_LARGE_BUFFER_BYTES = 16_000
_SMOKE_BUFFER_BYTES = 4_000

#: E1-style sweep grid used for the wall-clock comparison (a
#: representative slice of the E1 experiment suite).
_SWEEP_WORKLOADS = ("composite", "cold_paths", "dijkstra", "adpcm")
_SWEEP_K_VALUES = (1, 2, 4, 8, 16, 32, None)

#: Metrics every (cell alone, swept cell) pair must agree on exactly.
_COMPARED_METRICS = (
    "total_cycles", "execution_cycles", "average_footprint",
    "peak_footprint", "compressed_size", "uncompressed_size",
)
_COMPARED_COUNTERS = (
    "faults", "stalls", "stall_cycles", "decompressions",
    "recompressions", "patches", "evictions", "blocks_executed",
)


def _corpus(smoke: bool) -> List[bytes]:
    """Benchmark inputs: real block bytes plus whole-program buffers."""
    corpus: List[bytes] = []
    programs: List[bytes] = []
    for name in _CORPUS_WORKLOADS[: 1 if smoke else None]:
        cfg = build_cfg(get_workload(name).program)
        blocks = [block_bytes(block) for block in cfg.blocks]
        corpus.extend(blocks)
        programs.append(b"".join(blocks))
    # Whole-program buffers exercise the batch paths; block-sized
    # entries exercise per-call overhead.
    corpus.extend(programs)
    # One application-sized buffer of real ISA-encoded instructions —
    # the input size where per-byte loop cost dominates fixed cost.
    target = _SMOKE_BUFFER_BYTES if smoke else _LARGE_BUFFER_BYTES
    big = generate_sized_program(seed=7, target_bytes=target)
    corpus.append(b"".join(
        block_bytes(block) for block in build_cfg(big).blocks
    ))
    return corpus


#: :func:`_probe`'s seconds on the reference host (as in perfbench).
PROBE_REF_S = 0.05


def _probe() -> float:
    """Time a fixed pure-Python loop that uses nothing of the simulator
    (the same loop as ``perfbench/run.py``'s): host load slows it and a
    replay alike, so their ratio stays steady."""
    started = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    for i in range(150_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    return time.perf_counter() - started


def _time(action: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``action``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def _roundtrip(codec, data: bytes) -> bytes:
    """``data`` through ``codec``'s payload and back, decoded against
    its length as a code image decodes it."""
    return codec.decompress_block(codec.compress_block(data), len(data))


def bench_huffman_roundtrip(smoke: bool = False) -> Dict[str, object]:
    """Huffman round-trip: batched/table-driven vs. the seed code.

    Times ``compress_block``/``decompress_block`` against the seed's
    compress/decompress pair.  Also asserts the payloads are
    byte-identical to the seed's; a mismatch is reported in the result
    and fails the benchmark run.
    """
    corpus = _corpus(smoke)
    codec = get_codec("huffman")
    payloads_equal = all(
        codec.compress_block(data) == reference_huffman_compress(data)
        and _roundtrip(codec, data) == data
        for data in corpus
    )
    repeats = 2 if smoke else 5

    def fast() -> None:
        for data in corpus:
            _roundtrip(codec, data)

    def reference() -> None:
        for data in corpus:
            reference_huffman_decompress(reference_huffman_compress(data))

    fast_s = _time(fast, repeats)
    reference_s = _time(reference, repeats)
    return {
        "fast_s": fast_s,
        "reference_s": reference_s,
        "speedup": reference_s / fast_s if fast_s else float("inf"),
        "payloads_byte_identical": payloads_equal,
        "corpus_buffers": len(corpus),
        "corpus_bytes": sum(len(d) for d in corpus),
    }


def bench_codec_roundtrips(smoke: bool = False) -> Dict[str, Dict[str, float]]:
    """Round-trip throughput for every benchmarked codec's payload
    format."""
    corpus = _corpus(smoke)
    total_bytes = sum(len(d) for d in corpus)
    repeats = 1 if smoke else 3
    out: Dict[str, Dict[str, float]] = {}
    for name in BENCH_CODECS:
        codec = get_codec(name)

        def roundtrip() -> None:
            for data in corpus:
                _roundtrip(codec, data)

        seconds = _time(roundtrip, repeats)
        out[name] = {
            "seconds": seconds,
            "mb_per_s": (total_bytes / 1e6) / seconds if seconds else 0.0,
        }
    return out


def bench_manager_loop(smoke: bool = False) -> Dict[str, object]:
    """Manager-loop cost: one default-config interpreted simulation.

    Times a whole interpreting run (the machine, then the replay kernel
    over the trace it executed) on a fixed workload, reporting blocks
    and cycles simulated per wall-clock second — the number that makes
    a manager-loop regression visible PR-over-PR in BENCH_core.json.
    """
    from repro.core.manager import CodeCompressionManager

    cfg = build_cfg(get_workload("composite").program)
    config = SimulationConfig(
        codec="shared-dict", decompression="ondemand", k_compress=4,
        trace_events=False, record_trace=False,
    )
    # Warm the shared compression artifacts so the loop, not codec
    # training, is what gets timed.
    result = CodeCompressionManager(cfg, config).run()
    repeats = 2 if smoke else 5
    seconds = _time(
        lambda: CodeCompressionManager(cfg, config).run(), repeats
    )
    blocks = result.counters.blocks_executed
    return {
        "workload": "composite",
        "blocks_executed": blocks,
        "total_cycles": result.total_cycles,
        "seconds": seconds,
        "blocks_per_s": blocks / seconds if seconds else float("inf"),
    }


def _sweep_configs() -> List[SimulationConfig]:
    return [
        SimulationConfig(codec="shared-dict", decompression="ondemand",
                         k_compress=k)
        for k in _SWEEP_K_VALUES
    ]


def _metrics_equal(left, right) -> bool:
    """Exact equality of the compared metrics of two results."""
    return all(
        getattr(left, metric) == getattr(right, metric)
        for metric in _COMPARED_METRICS
    ) and all(
        getattr(left.counters, counter) == getattr(
            right.counters, counter
        )
        for counter in _COMPARED_COUNTERS
    )


def _results_equal(left_runs, right_runs) -> bool:
    """Cell-by-cell metric equality between two runs of one grid."""
    if len(left_runs) != len(right_runs):
        return False
    return all(
        _metrics_equal(left.result, right.result)
        for left, right in zip(left_runs, right_runs)
    )


def bench_e1_sweep(smoke: bool = False) -> Dict[str, object]:
    """E1 k-edge sweep: every cell run alone vs. one sweep of the grid.

    The per-cell baseline interprets the program in every cell, as
    sweeps did before they recorded once.  The cold
    sweep runs on fresh workload objects, so its recording, CFG and
    compression artifacts fall inside the timed run; the warm sweep
    reuses the recording and only replays.
    """
    names = _SWEEP_WORKLOADS[: 1 if smoke else None]
    workloads = [get_workload(name) for name in names]
    configs = [effective_config(config) for config in _sweep_configs()]
    if smoke:
        configs = configs[:3]
    repeats = 1 if smoke else 2

    def per_cell() -> List[SweepRun]:
        return [run_one(workload, config)
                for workload in workloads for config in configs]

    metrics_equal = _results_equal(
        per_cell(), sweep(workloads, configs).runs
    )
    per_cell_s = _time(per_cell, repeats)
    warm_s = _time(lambda: sweep(workloads, configs), repeats)
    cold_s = float("inf")
    for _ in range(repeats):
        fresh = [get_workload(name) for name in names]
        started = time.perf_counter()
        sweep(fresh, configs)
        cold_s = min(cold_s, time.perf_counter() - started)
    return {
        "workloads": list(names),
        "cells": len(configs) * len(workloads),
        "per_cell_s": per_cell_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "speedup": per_cell_s / cold_s if cold_s else float("inf"),
        "metrics_equal": metrics_equal,
    }


def bench_chaos_overhead(smoke: bool = False) -> Dict[str, object]:
    """Fault-free cost of the fault-tolerance layer: must be < 2%.

    Times the same partition sweep with no retry policy (the seed
    path) and with an armed ``RetryPolicy`` (per-cell deadlines and
    the injection hooks active, but no plan installed, so nothing
    fires).  The guard keeps the robustness layer honest: chaos
    machinery must cost nothing when chaos is off.  Interleaved
    best-of-``repeats`` timing cancels drift between the two paths.
    Each timed run gets a fresh workload object, so it records its
    program instead of replaying a cached recording.
    """
    from repro.api.executor import run_partition
    from repro.faults.plan import FAULTS_ENV
    from repro.faults.retry import RetryPolicy

    configs = _sweep_configs()[:3]
    policy = RetryPolicy(attempts=3, timeout=60.0)
    repeats = 3 if smoke else 5
    # An inherited $REPRO_FAULTS would make the "fault-free" claim a
    # lie; measure with chaos genuinely off.
    previous = os.environ.pop(FAULTS_ENV, None)
    try:
        plain = armed = float("inf")
        for _ in range(repeats):
            workload = get_workload("composite")
            started = time.perf_counter()
            run_partition(workload, configs, True, None)
            plain = min(plain, time.perf_counter() - started)
            workload = get_workload("composite")
            started = time.perf_counter()
            run_partition(workload, configs, True, None, policy)
            armed = min(armed, time.perf_counter() - started)
    finally:
        if previous is not None:
            os.environ[FAULTS_ENV] = previous
    overhead = (armed - plain) / plain if plain else 0.0
    return {
        "cells": len(configs),
        "plain_s": plain,
        "armed_s": armed,
        "overhead": overhead,
    }


def bench_trace_overhead(smoke: bool = False) -> Dict[str, object]:
    """Cost of arming span tracing: bounded armed overhead.

    Two interleaved timings of the same partition sweep: **off** (the
    default every user runs: the replay kernel's tracer hooks are
    skipped on ``NULL_TRACER``) and **armed** (a live
    :class:`~repro.obs.SpanTracer` via
    :func:`~repro.obs.tracing_scope`).  The armed overhead is loosely
    bounded so a pathological tracer regression fails the run.  Each
    timed run gets a fresh workload object, so it records its program
    instead of replaying a cached recording.
    """
    from repro.api.executor import run_partition
    from repro.obs.tracer import TraceSink, tracing_scope

    configs = _sweep_configs()[:3]
    repeats = 3 if smoke else 5
    off_s = armed_s = float("inf")
    sink = TraceSink(keep_spans=False)
    for _ in range(repeats):
        workload = get_workload("composite")
        started = time.perf_counter()
        run_partition(workload, configs, True, None)
        off_s = min(off_s, time.perf_counter() - started)
        workload = get_workload("composite")
        started = time.perf_counter()
        with tracing_scope(sink):
            run_partition(workload, configs, True, None)
        armed_s = min(armed_s, time.perf_counter() - started)
    return {
        "cells": len(configs),
        "off_s": off_s,
        "armed_s": armed_s,
        "armed_overhead": (armed_s - off_s) / off_s if off_s else 0.0,
    }


def bench_trace_replay_batched(smoke: bool = False) -> Dict[str, object]:
    """Trace replay vs. interpreting the same cell.

    Records one block trace of the ``composite`` workload, then times
    replaying it through :func:`~repro.runtime.trace_sim.simulate_trace`
    against a machine run of the identical configuration from scratch
    (which interprets the program, then replays its own trace through
    the same kernel, :mod:`repro.core.replay`), for six cells:
    on-demand k=4 (the top-level fields, on the batched path, making
    its own decisions: the plan's decision memo is dropped before each
    timed replay), ``member`` (the same row with another codec, which
    charges its clock from that decision pass: ``shared_ok``), and on
    the stepped path ``pre_all``, a memory budget tight enough to evict
    (``budget``), ``pre_single`` and the event log (``events``).  Every
    replay must match its interpreted run exactly and must have run on
    its kernel path (``path_ok``), and the first four cells'
    ``ref_blocks_per_s`` (blocks/s scaled to the reference host by
    :func:`_probe`) carry floors (see :data:`_BUDGETS`), so a kernel
    slowdown fails the run.  Speedups over interpreting are reported,
    not gated: the interpreter moves them.
    """
    from repro.core.manager import CodeCompressionManager
    from repro.runtime.trace_sim import PreparedTrace, simulate_trace

    graph = build_cfg(get_workload("composite").program)
    recording = SimulationConfig(
        decompression="none", record_trace=True, trace_events=False,
    )
    recorded = CodeCompressionManager(graph, recording).run()
    prepared = PreparedTrace(graph, recorded.block_trace)
    config = SimulationConfig(
        codec="shared-dict", decompression="ondemand", k_compress=4,
        trace_events=False, record_trace=False,
    )
    # The compressed image plus the three largest units a fault can
    # need at once (running, came-from, incoming): always satisfiable,
    # and tight enough that the k = inf cell keeps evicting.
    image = CodeCompressionManager(graph, config).residency.image
    budget = image.compressed_image_size + 3 * max(
        block.size_bytes for block in graph.blocks
    )
    repeats = 2 if smoke else 5

    def forget() -> None:
        # Drop the decision passes memoised on the prepared trace's
        # plans (the plans stay), so the next replay decides.
        for plan in prepared._plans.values():
            plan.decisions.clear()

    def cell(config: SimulationConfig, path: str,
             decide: bool = True) -> Dict[str, object]:
        # One warm pass each: codec training and compression artifacts
        # are shared, so the timed loops measure the runs, not the
        # caches.
        interpreted = CodeCompressionManager(graph, config).run()
        replayed = simulate_trace(graph, prepared, config)
        replay_s = probe_s = float("inf")
        for _ in range(repeats):
            probe_s = min(probe_s, _probe())
            if decide:
                forget()
            replay_s = min(replay_s, _time(
                lambda: simulate_trace(graph, prepared, config), 1
            ))
        machine_s = _time(
            lambda: CodeCompressionManager(graph, config).run(), repeats
        )
        blocks = replayed.counters.blocks_executed
        blocks_per_s = blocks / replay_s if replay_s else float("inf")
        return {
            "strategy": config.strategy_name,
            "codec": config.codec,
            "blocks_replayed": blocks,
            "replay_s": replay_s,
            "machine_s": machine_s,
            "blocks_per_s": blocks_per_s,
            "probe_s": probe_s,
            "ref_blocks_per_s": blocks_per_s * probe_s / PROBE_REF_S,
            "speedup": machine_s / replay_s if replay_s else float("inf"),
            "metrics_equal": _metrics_equal(interpreted, replayed),
            "path": replayed.replay_path,
            "path_ok": replayed.replay_path == path,
            "shared": replayed.replay_shared,
        }

    report: Dict[str, object] = {
        "workload": "composite", **cell(config, "batched"),
    }
    report["member"] = cell(config.replace(codec="huffman"), "batched",
                            decide=False)
    report["pre_all"] = cell(
        config.replace(decompression="pre-all", k_decompress=2), "stepped"
    )
    report["budget"] = cell(
        config.replace(k_compress=None, memory_budget=budget), "stepped"
    )
    report["pre_single"] = cell(
        config.replace(decompression="pre-single", k_decompress=2),
        "stepped",
    )
    report["events"] = cell(config.replace(trace_events=True), "stepped")
    cells = (report, report["member"], report["pre_all"], report["budget"],
             report["pre_single"], report["events"])
    report["metrics_equal"] = all(c["metrics_equal"] for c in cells)
    report["path_ok"] = all(c["path_ok"] for c in cells)
    # The member charged its clock from the top cell's decisions, which
    # the top cell made itself.
    report["shared_ok"] = report["member"]["shared"] and not report["shared"]
    return report


def bench_bitio_bulk(smoke: bool = False) -> Dict[str, object]:
    """The product's bulk bit I/O vs. scalar per-field bit I/O.

    Streams a fixed corpus of 11-bit fields (an LZW-like width) the way
    the encoders and the LZW decoder do: each :data:`PACK_CHUNK` of
    fields packed into one integer and the pieces joined by
    :func:`~repro.compress.bitio.pack_bits`, then read back with one
    ``BitReader.read_run``.  The scalar side writes each field through
    the frozen per-field writer (``tests/oracle/codecs.py``) and reads
    each with ``read_bits``.  The bit streams and decoded values must
    be identical, and the bulk paths carry explicit speedup floors
    (``within_budget``) as the regression guard: the round trip, and
    each direction on its own, so a regression on one side is not
    hidden by the other.
    """
    width = 11
    count = 5_000 if smoke else 50_000
    rng = random.Random(11)
    values = [rng.getrandbits(width) for _ in range(count)]

    def bulk_write() -> bytes:
        pieces = []
        for start in range(0, count, PACK_CHUNK):
            acc = 0
            part = values[start:start + PACK_CHUNK]
            for value in part:
                acc = (acc << width) | value
            pieces.append((acc, width * len(part)))
        return pack_bits(pieces)

    def scalar_write() -> bytes:
        out = BitWriter()
        write_bits = out.write_bits
        for value in values:
            write_bits(value, width)
        return out.getvalue()

    payload = bulk_write()

    def bulk_read() -> List[int]:
        return BitReader(payload).read_run(width, count)

    def scalar_read() -> List[int]:
        read_bits = BitReader(payload).read_bits
        return [read_bits(width) for _ in range(count)]

    identical = (
        scalar_write() == payload
        and bulk_read() == values
        and scalar_read() == values
    )
    # Each side takes milliseconds: interleave the four so a slow
    # stretch of the host hits both sides, and take the best of enough
    # repeats that it is not a descheduled one.
    actions = (bulk_write, scalar_write, bulk_read, scalar_read)
    best = [float("inf")] * len(actions)
    for _ in range(10):
        for index, action in enumerate(actions):
            best[index] = min(best[index], _time(action, 1))
    write_s, read_s = best[:2], best[2:]
    bulk_s = write_s[0] + read_s[0]
    scalar_s = write_s[1] + read_s[1]
    return {
        "fields": count,
        "width": width,
        "bulk_s": bulk_s,
        "scalar_s": scalar_s,
        "speedup": scalar_s / bulk_s,
        "write_speedup": write_s[1] / write_s[0],
        "read_speedup": read_s[1] / read_s[0],
        "identical": identical,
    }


def bench_pipeline(smoke: bool = False) -> Dict[str, object]:
    """Layered-pipeline overhead vs. its flat entropy stage.

    Round-trips the benchmark corpus through ``delta|huffman`` and
    through flat ``huffman``: the transform layer must be lossless on
    every input, and the composed encode+decode wall clock must stay
    within 2.5x of the flat codec (``within_budget``) — the layering
    machinery (tag byte, transform passes) is bookkeeping, not a second
    compressor, and this floor keeps it that way.
    """
    corpus = _corpus(smoke)
    flat = get_codec("huffman")
    pipe = get_codec("delta|huffman")
    identical = all(_roundtrip(pipe, data) == data for data in corpus)

    def roundtrip(codec) -> None:
        for data in corpus:
            _roundtrip(codec, data)

    repeats = 3 if smoke else 5
    flat_s = _time(lambda: roundtrip(flat), repeats)
    pipe_s = _time(lambda: roundtrip(pipe), repeats)
    overhead = pipe_s / flat_s if flat_s else float("inf")
    return {
        "pipeline": pipe.name,
        "entropy": "huffman",
        "inputs": len(corpus),
        "flat_s": flat_s,
        "pipeline_s": pipe_s,
        "overhead_x": overhead,
        "lossless": identical,
    }


def bench_service_cached_rps(smoke: bool = False) -> Dict[str, object]:
    """Cached-submit throughput of the sweep service: must be ≥ 1000/s.

    Boots a real :class:`~repro.service.app.ServerThread` on a
    throwaway store, computes one small sweep, then hammers the same
    spec over a single keep-alive connection.  Every request after the
    first is a dedup hit (``job_key`` match → the finished job), so
    this times the full HTTP + spec-validation + dedup fast path —
    the budget keeps the service viable as a shared cache front-end.
    """
    import shutil
    import tempfile

    from repro.service import ServerThread, ServiceClient

    spec = {
        "name": "bench-service",
        "workloads": ["fib"],
        "base": {"codec": "shared-dict", "decompression": "ondemand"},
        "axes": {"grid": {"k_compress": [1, "inf"]}},
    }
    requests = 300 if smoke else 2000
    root = tempfile.mkdtemp(prefix="repro-bench-service-")
    try:
        with ServerThread(store=root) as server:
            client = ServiceClient(server.host, server.port)
            reply = client.submit(spec)
            client.wait(reply["job"], timeout=300.0)
            client.submit(spec)  # warm the dedup + keep-alive path
            started = time.perf_counter()
            for _ in range(requests):
                client.submit(spec)
            elapsed = time.perf_counter() - started
            client.close()
    finally:
        shutil.rmtree(root, ignore_errors=True)
    rps = requests / elapsed if elapsed else float("inf")
    return {
        "requests": requests,
        "seconds": elapsed,
        "cached_rps": rps,
    }


def bench_selection_search(smoke: bool = False) -> Dict[str, object]:
    """Warm ``pipeline-search`` assignment: seconds and cost lookups.

    Times one ``pipeline-search`` assignment (base codec
    ``shared-dict``) on ``cold_paths`` and on a fixed-seed generated
    ~16 KB program, each after one untimed pass that builds every
    compression artifact, so the timing is selection alone.  During
    the timed pass it counts the ``get_codec`` calls the assignment
    context makes (``codec_lookups``): each option's cost model is
    resolved once per assignment, so ``lookups_bounded`` (the
    exactness gate) requires at most one lookup per distinct option.
    """
    from repro.selection import UNCOMPRESSED, build_assignment, make_policy
    from repro.selection import assignment as selection

    config = SimulationConfig(
        codec="shared-dict", assignment="pipeline-search"
    )
    options = len({config.codec, UNCOMPRESSED,
                   *make_policy(config.assignment).candidate_specs})
    programs = {
        "cold_paths": get_workload("cold_paths").program,
        "generated": generate_sized_program(
            seed=1, target_bytes=16_000, loop_iters=(2, 4)
        ),
    }
    repeats = 2 if smoke else 5
    report: Dict[str, object] = {
        "policy": config.assignment, "options": options,
    }
    real_get_codec = selection.get_codec
    for name, program in programs.items():
        graph = build_cfg(program)
        build_assignment(graph, config)  # warm: artifacts built
        lookups: List[int] = []  # per timed assignment

        def assign() -> None:
            lookups.append(0)
            build_assignment(graph, config)

        def counting_get_codec(codec_name: str):
            lookups[-1] += 1
            return real_get_codec(codec_name)

        selection.get_codec = counting_get_codec
        try:
            assign_s = _time(assign, repeats)
        finally:
            selection.get_codec = real_get_codec
        report[name] = {
            "units": len(graph.blocks),
            "assign_s": assign_s,
            "codec_lookups": max(lookups),
        }
    sections = [report[name] for name in programs]
    report["assign_s"] = sum(c["assign_s"] for c in sections)
    report["codec_lookups"] = max(c["codec_lookups"] for c in sections)
    report["lookups_bounded"] = report["codec_lookups"] <= options
    return report


#: Named benchmark registry (``--only NAME`` accepts these).  The key is
#: both the CLI name and the report section the result lands under.
BENCHMARKS: Dict[str, Callable[[bool], Dict[str, object]]] = {
    "huffman_roundtrip": bench_huffman_roundtrip,
    "codec_roundtrips": bench_codec_roundtrips,
    "e1_sweep": bench_e1_sweep,
    "manager_loop": bench_manager_loop,
    "chaos_overhead": bench_chaos_overhead,
    "trace_overhead": bench_trace_overhead,
    "trace_replay_batched": bench_trace_replay_batched,
    "bitio_bulk": bench_bitio_bulk,
    "bench_pipeline": bench_pipeline,
    "bench_service_cached_rps": bench_service_cached_rps,
    "selection_search": bench_selection_search,
}

#: Exactness gates: boolean fields of a section that must hold.  Under
#: ``--repeat`` they AND across runs — every run must be exact.
_EXACT: Dict[str, Tuple[str, ...]] = {
    "huffman_roundtrip": ("payloads_byte_identical",),
    "e1_sweep": ("metrics_equal",),
    "trace_replay_batched": ("metrics_equal", "path_ok", "shared_ok"),
    "bitio_bulk": ("identical",),
    "bench_pipeline": ("lossless",),
    "selection_search": ("lookups_bounded",),
}

#: Budget and floor gates: ``(field, comparison, limit)`` checks of a
#: section's measurements (dotted fields reach into nested sections).
#: They are evaluated once, on the merged section — the median-of-N
#: under ``--repeat`` — and summarised as its ``within_budget`` flag.
_BUDGETS: Dict[str, Tuple[Tuple[str, str, float], ...]] = {
    "chaos_overhead": (("overhead", "<", 0.02),),
    "trace_overhead": (("armed_overhead", "<", 0.5),),
    "trace_replay_batched": (
        ("ref_blocks_per_s", ">=", 550_000.0),
        ("member.ref_blocks_per_s", ">=", 2_000_000.0),
        ("pre_all.ref_blocks_per_s", ">=", 125_000.0),
        ("budget.ref_blocks_per_s", ">=", 1_150_000.0),
    ),
    "bitio_bulk": (
        ("speedup", ">=", 2.0),
        ("write_speedup", ">=", 2.0),
        ("read_speedup", ">=", 2.0),
    ),
    "bench_pipeline": (("overhead_x", "<=", 2.5),),
    "bench_service_cached_rps": (("cached_rps", ">=", 1000.0),),
}

_COMPARISONS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


def _field(section: Dict[str, object], name: str):
    value: object = section
    for part in name.split("."):
        value = value[part]  # type: ignore[index]
    return value


def failed_gates(name: str, section: Dict[str, object]) -> List[str]:
    """Every gate of benchmark ``name`` that ``section`` fails, each
    named with its value (``section.field = value (gate op limit)``)."""
    failures = [
        f"{name}.{key} = {section[key]}"
        for key in _EXACT.get(name, ()) if not section[key]
    ]
    for key, op, limit in _BUDGETS.get(name, ()):
        value = _field(section, key)
        if not _COMPARISONS[op](value, limit):
            failures.append(
                f"{name}.{key} = {value:.4g} (gate {op} {limit:g})"
            )
    return failures


def merge_section(
    name: str, samples: Sequence[Dict[str, object]]
) -> Dict[str, object]:
    """Fold ``--repeat N`` samples of benchmark ``name`` into its report
    section: exactness flags AND across runs (:func:`_merge_repeats`),
    while budgets and floors are judged once, on the merged medians."""
    section = _merge_repeats(samples)
    budgets = _BUDGETS.get(name)
    if budgets:
        section["within_budget"] = all(
            _COMPARISONS[op](_field(section, key), limit)
            for key, op, limit in budgets
        )
    return section


def _merge_repeats(samples: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fold ``--repeat N`` samples of one benchmark into one section.

    Numeric fields take the median across runs (the reported timing is
    the median-of-N), booleans AND together (every run must pass its
    exactness check), nested dicts merge recursively, and anything else
    keeps the first run's value.
    """
    first = samples[0]
    if len(samples) == 1:
        return dict(first)
    merged: Dict[str, object] = {}
    for key, value in first.items():
        values = [sample[key] for sample in samples]
        if isinstance(value, bool):
            merged[key] = all(values)
        elif isinstance(value, (int, float)):
            merged[key] = statistics.median(values)
        elif isinstance(value, dict):
            merged[key] = _merge_repeats(values)
        else:
            merged[key] = value
    return merged


def run_benchmarks(
    smoke: bool = False,
    only: Optional[str] = None,
    repeat: int = 1,
) -> Dict[str, object]:
    """Run the benchmark suite and return the report dict.

    ``only`` restricts the run to one :data:`BENCHMARKS` entry (for
    iterating on a single benchmark during perf work); ``repeat`` runs
    each selected benchmark N times and reports the median-of-N (see
    :func:`merge_section`).  ``report["ok"]`` is False when any gate of
    a *selected* benchmark failed — payload mismatch, sweep metric
    divergence, a blown overhead budget, or a speedup under its
    regression floor — and ``report["failed_gates"]`` names each one
    with its value (:func:`failed_gates`).
    """
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if only is not None and only not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark '{only}'; available: "
            f"{', '.join(BENCHMARKS)}"
        )
    names = [only] if only is not None else list(BENCHMARKS)
    report: Dict[str, object] = {
        "schema": "bench_core/v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "smoke": smoke,
        "repeat": repeat,
    }
    failures: List[str] = []
    for name in names:
        section = merge_section(
            name, [BENCHMARKS[name](smoke) for _ in range(repeat)]
        )
        report[name] = section
        failures.extend(failed_gates(name, section))
    report["failed_gates"] = failures
    report["ok"] = not failures
    return report


def render_report(report: Dict[str, object]) -> str:
    """Human-readable summary of a (possibly ``--only``-filtered)
    benchmark report."""
    lines: List[str] = []
    huffman = report.get("huffman_roundtrip")
    codecs = report.get("codec_roundtrips")
    if codecs and huffman:
        lines.append(
            "codec round-trips"
            f" ({huffman['corpus_buffers']} buffers,"
            f" {huffman['corpus_bytes']} bytes):"
        )
    elif codecs:
        lines.append("codec round-trips:")
    for name, stats in (codecs or {}).items():
        lines.append(
            f"  {name:14s} {stats['seconds'] * 1000:8.1f} ms"
            f"  ({stats['mb_per_s']:6.2f} MB/s)"
        )
    if huffman:
        lines.append(
            f"huffman vs seed: {huffman['fast_s'] * 1000:.1f} ms vs "
            f"{huffman['reference_s'] * 1000:.1f} ms "
            f"-> {huffman['speedup']:.2f}x "
            f"(payloads identical: {huffman['payloads_byte_identical']})"
        )
    e1 = report.get("e1_sweep")
    if e1:
        lines.append(
            f"E1 sweep ({', '.join(e1['workloads'])}; "
            f"{e1['cells']} cells): "
            f"cells alone {e1['per_cell_s'] * 1000:.0f} ms vs sweep "
            f"{e1['cold_s'] * 1000:.0f} ms cold "
            f"({e1['warm_s'] * 1000:.0f} ms warm) -> "
            f"{e1['speedup']:.2f}x (metrics equal: {e1['metrics_equal']})"
        )
    replay = report.get("trace_replay_batched")
    if replay:
        lines.append(
            f"kernel replay ({replay['workload']}; "
            f"{replay['blocks_replayed']} blocks; metrics equal: "
            f"{replay['metrics_equal']}; paths ok: "
            f"{replay['path_ok']}; decisions shared: "
            f"{replay['shared_ok']}; reference-host floors: "
            f"{replay['within_budget']}):"
        )
        for name in ("", "member", "pre_all", "budget", "pre_single",
                     "events"):
            cell = replay[name] if name else replay
            label = f"{cell['strategy']} {cell['codec']}" \
                + (" events" if name == "events" else "")
            path = cell["path"] + ("+shared" if cell["shared"] else "")
            lines.append(
                f"  {label:36s} {path:14s} "
                f"{cell['replay_s'] * 1000:6.1f} ms vs machine "
                f"{cell['machine_s'] * 1000:6.1f} ms -> "
                f"{cell['speedup']:5.1f}x "
                f"({cell['blocks_per_s']:,.0f} blocks/s; "
                f"{cell['ref_blocks_per_s']:,.0f} on the reference host)"
            )
    bitio = report.get("bitio_bulk")
    if bitio:
        lines.append(
            f"bitio bulk ({bitio['fields']} x {bitio['width']}-bit "
            f"fields): {bitio['bulk_s'] * 1000:.2f} ms vs scalar "
            f"{bitio['scalar_s'] * 1000:.2f} ms -> "
            f"{bitio['speedup']:.1f}x "
            f"(write {bitio['write_speedup']:.1f}x, "
            f"read {bitio['read_speedup']:.1f}x; "
            f"streams identical: {bitio['identical']}; "
            f"floors >= 2x: {bitio['within_budget']})"
        )
    loop = report.get("manager_loop")
    if loop:
        lines.append(
            f"manager loop ({loop['workload']}; "
            f"{loop['blocks_executed']} blocks): "
            f"{loop['seconds'] * 1000:.1f} ms "
            f"({loop['blocks_per_s']:,.0f} blocks/s)"
        )
    chaos = report.get("chaos_overhead")
    if chaos:
        lines.append(
            f"chaos off-path overhead ({chaos['cells']} cells): "
            f"{chaos['plain_s'] * 1000:.1f} ms plain vs "
            f"{chaos['armed_s'] * 1000:.1f} ms armed -> "
            f"{chaos['overhead'] * 100:+.2f}% "
            f"(budget < 2%: {chaos['within_budget']})"
        )
    tracing = report.get("trace_overhead")
    if tracing:
        lines.append(
            f"tracing overhead ({tracing['cells']} cells): "
            f"{tracing['off_s'] * 1000:.1f} ms off vs "
            f"{tracing['armed_s'] * 1000:.1f} ms armed "
            f"({tracing['armed_overhead'] * 100:+.2f}%) "
            f"(budget < 50% armed: {tracing['within_budget']})"
        )
    pipeline = report.get("bench_pipeline")
    if pipeline:
        lines.append(
            f"pipeline {pipeline['pipeline']} "
            f"({pipeline['inputs']} inputs): "
            f"{pipeline['pipeline_s'] * 1000:.1f} ms vs flat "
            f"{pipeline['entropy']} {pipeline['flat_s'] * 1000:.1f} ms "
            f"-> {pipeline['overhead_x']:.2f}x "
            f"(lossless: {pipeline['lossless']}; "
            f"budget <= 2.5x: {pipeline['within_budget']})"
        )
    service = report.get("bench_service_cached_rps")
    if service:
        lines.append(
            f"service cached submits ({service['requests']} requests): "
            f"{service['seconds'] * 1000:.0f} ms -> "
            f"{service['cached_rps']:,.0f} req/s "
            f"(budget >= 1000/s: {service['within_budget']})"
        )
    selection = report.get("selection_search")
    if selection:
        lines.append(
            f"selection search ({selection['policy']}, warm; "
            f"{selection['options']} options; lookups bounded: "
            f"{selection['lookups_bounded']}):"
        )
        for name in ("cold_paths", "generated"):
            cell = selection[name]
            lines.append(
                f"  {name:12s} {cell['units']:4d} units "
                f"{cell['assign_s'] * 1000:7.1f} ms "
                f"{cell['codec_lookups']:3d} codec lookups"
            )
    lines.append(f"ok: {report['ok']}")
    return "\n".join(lines)


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the performance microbenchmarks and write "
                    "BENCH_core.json."
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="fast CI mode: smaller corpus, fewer repeats",
    )
    parser.add_argument(
        "--only", default=None, metavar="NAME",
        help="run a single named benchmark (see BENCHMARKS); skips "
             "writing the default report file",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run each selected benchmark N times and report the "
             "median (default: 1)",
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH", type=pathlib.Path,
        help="report path (default: BENCH_core.json at the repository "
             "root)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="print the report without writing the JSON file",
    )
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the bench; the exit code is 1 when a gate failed."""
    args = parse_args(argv)
    try:
        report = run_benchmarks(
            smoke=args.smoke, only=args.only, repeat=args.repeat
        )
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    print(render_report(report))
    # A filtered run is a partial report; never clobber the full
    # BENCH_core.json with it unless a path was given explicitly.
    if not args.no_write and (args.only is None or args.output):
        path = args.output or DEFAULT_REPORT
        try:
            path.write_text(
                json.dumps(report, indent=2, sort_keys=True) + "\n"
            )
        except OSError as exc:
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return 1
        print(f"\n[report written to {path}]")
    if not report["ok"]:
        print("BENCH FAILED: " + "; ".join(report["failed_gates"]),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
