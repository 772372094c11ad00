"""The benchmark's workloads: one ``ExperimentSpec`` each.

Every workload is a serial, single-process, closed-loop sweep: the next
sweep starts only when the previous one has returned its ``ResultSet``
and serialised it.  :func:`prepare` does each workload's set-up
(synthetic-program generation, store pre-population, budget sizing)
and returns a :class:`Scenario` that :func:`run_sweep` executes.

See README.md for why each workload was chosen.
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

from repro import api
from repro.cfg.builder import build_cfg
from repro.core.config import SimulationConfig
from repro.core.manager import CodeCompressionManager
from repro.isa.program import Program
from repro.workloads import Workload, generate_sized_program, get_workload
from repro.workloads.suite import WORKLOADS

#: The 15-kernel suite, fixed here so the benchmark's grid does not
#: change when the registry grows.
SUITE = (
    "adpcm", "bubble", "cold_paths", "composite", "crc32", "dijkstra",
    "fib", "fir", "fsm", "gcd", "histogram", "matmul", "modular",
    "quicksort", "strsearch",
)

#: The eight largest suite programs by code size.
LARGEST = (
    "cold_paths", "modular", "composite", "dijkstra", "fsm",
    "quicksort", "adpcm", "matmul",
)

KEDGE_CODECS = ("shared-dict", "huffman", "lzw")
K_VALUES = (1, 2, 4, 8, 16, 32, "inf")

SEARCH_PIPELINES = ("delta|huffman", "stride:4|shared-dict", "mtf|lzw")
SEARCH_FLAT = ("lz77", "rle", "dictionary")
SEARCH_ASSIGNMENTS = ("knapsack", "hotness-threshold:0.25", "pipeline-search")

#: Generator target for each ``codec_search`` program, in bytes of code.
SYNTH_BYTES = 16000
#: Programs generated per ``codec_search`` set-up; the two closest to
#: :data:`SYNTH_SHAPE` are kept.
SYNTH_CANDIDATES = 6
#: Code bytes and executed blocks a ``codec_search`` program aims for:
#: about the median of what the generator gives for ``SYNTH_BYTES``.
SYNTH_SHAPE = (19500, 2450)

#: The smallest suite kernel: a cheap warm-up that touches every code
#: path a spec's configs reach before the first timed sweep.
WARMUP_WORKLOAD = "gcd"


@dataclass
class Scenario:
    """A prepared workload: the spec plus how its sweeps use a store.

    ``store`` is ``"none"`` (no store), ``"fresh"`` (a new empty store
    per sweep, which the sweep only writes) or ``"warm"`` (``store_dir``,
    populated during set-up, which the sweep only reads).
    ``replays`` is the path every trace replay must take: ``"kernel"``
    (the batched kernel accepts all), ``"layered"`` (it declines all),
    ``"none"`` (no replay runs at all) or None (mixed, not checked).
    ``reference`` is the canonical JSON every sweep must equal, when set
    up front (otherwise the first sweep's output is the reference).
    """

    name: str
    spec: api.ExperimentSpec
    workdir: str
    store: str = "none"
    store_dir: Optional[str] = None
    replays: Optional[str] = None
    reference: Optional[str] = None
    cleanups: List[Callable[[], None]] = field(default_factory=list)

    def sweep_store(self) -> Union[str, bool]:
        """The ``store`` argument for the next sweep (made untimed)."""
        if self.store == "warm":
            return self.store_dir
        if self.store == "fresh":
            return tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        return False

    def release_store(self, store: Union[str, bool]) -> None:
        if self.store == "fresh":
            shutil.rmtree(store, ignore_errors=True)

    def close(self) -> None:
        for cleanup in reversed(self.cleanups):
            cleanup()
        self.cleanups.clear()


def run_sweep(scenario: Scenario, store: Union[str, bool],
              spec: Optional[api.ExperimentSpec] = None):
    """spec -> ResultSet -> canonical JSON, serially in this process."""
    result = api.run_experiment(
        spec or scenario.spec, executor="serial", jobs=1, store=store
    )
    return result, result.canonical_json()


def store_problems(scenario: Scenario, result: api.ResultSet) -> List[str]:
    """How a sweep's store traffic differs from what its scenario claims."""
    if scenario.store == "none":
        return []
    cache = result.meta.get("cache", {})
    wanted = "hits" if scenario.store == "warm" else "misses"
    if cache.get(wanted) != len(result):
        return [f"{scenario.name}: expected all {len(result)} cells as "
                f"store {wanted}, got {cache}"]
    return []


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


def _kedge_spec(tiny: bool) -> api.ExperimentSpec:
    return api.ExperimentSpec(
        workloads=list(SUITE[:2] if tiny else SUITE),
        base={"decompression": "ondemand"},
        axes=api.grid(
            codec=list(KEDGE_CODECS[:2] if tiny else KEDGE_CODECS),
            k_compress=list(K_VALUES[::3] if tiny else K_VALUES),
        ),
        engine="trace",
        name="kedge_sweep",
    )


def _kedge_sweep(seed: int, workdir: str, tiny: bool) -> Scenario:
    return Scenario("kedge_sweep", _kedge_spec(tiny), workdir,
                    replays="kernel")


def _budgets(workloads) -> List[int]:
    """Two memory budgets every workload can meet (no ``BudgetError``).

    One spec shares its configs across workloads, so the budget is sized
    by the workload that needs the most: its compressed image plus three
    of its largest blocks (running, came-from and incoming), and half as
    much again.  With k = inf they bind on the programs whose
    decompressed footprint outgrows them.
    """
    probe = api.run_experiment(
        api.ExperimentSpec(workloads=list(workloads), engine="trace",
                           base={"decompression": "ondemand"}),
        executor="serial", jobs=1, store=False,
    )
    need = 0
    for run in probe:
        cfg = build_cfg(get_workload(run.workload).program)
        largest = max(block.size_bytes for block in cfg.blocks)
        need = max(need, run.result.compressed_size + 3 * largest)
    return [need, need * 3 // 2]


def _predecomp_budget(seed: int, workdir: str, tiny: bool) -> Scenario:
    workloads = LARGEST[-2:] if tiny else LARGEST
    axes = (
        # Each strategy meets both values of both k axes in two cells
        # (a Latin square), which halves the full grid's time.
        api.cases(
            {"decompression": "pre-single", "k_compress": 2,
             "k_decompress": 1},
            {"decompression": "pre-single", "k_compress": 8,
             "k_decompress": 4},
            {"decompression": "pre-all", "k_compress": 2,
             "k_decompress": 4},
            {"decompression": "pre-all", "k_compress": 8,
             "k_decompress": 1},
        )
        + api.cases(*(
            {"k_compress": "inf", "memory_budget": budget}
            for budget in _budgets(workloads)
        ))
        + api.cases(
            {"k_compress": 4, "trace_events": True},
            {"decompression": "pre-all", "k_compress": 2,
             "k_decompress": 2, "trace_events": True},
        )
    )
    spec = api.ExperimentSpec(
        workloads=list(workloads),
        base={"decompression": "ondemand", "trace_events": False,
              "record_trace": False},
        axes=axes,
        engine="trace",
        # Per-cell event logging: fast=True would force it off.
        fast=False,
        name="predecomp_budget",
    )
    return Scenario("predecomp_budget", spec, workdir, replays="layered")


def _uncompressed_run(program: Program):
    """Interpret ``program`` once, uncompressed: (registers, blocks)."""
    manager = CodeCompressionManager(
        build_cfg(program),
        SimulationConfig(decompression="none", codec="null",
                         trace_events=False, record_trace=False),
    )
    result = manager.run()
    return list(manager.machine.registers), result.counters.blocks_executed


def synthetic_programs(seed: int, size: int, shaped: bool = True):
    """The two ``codec_search`` programs for ``seed``, with the final
    registers of their uncompressed runs.

    Generator seeds are drawn from ``random.Random(seed)``.  With
    ``shaped``, :data:`SYNTH_CANDIDATES` programs are generated and the
    two whose code size and executed block count lie closest to
    :data:`SYNTH_SHAPE` are kept, so the seed changes what the programs
    contain but hardly how much work a sweep does, and set-up always
    does the same amount of generation.
    """
    rng = random.Random(seed)
    candidates = []
    for _ in range(SYNTH_CANDIDATES if shaped else 2):
        program = generate_sized_program(rng.randrange(1, 1 << 30), size,
                                         loop_iters=(2, 4))
        registers, blocks = _uncompressed_run(program)
        miss = (abs(program.size_bytes / SYNTH_SHAPE[0] - 1)
                + abs(blocks / SYNTH_SHAPE[1] - 1))
        candidates.append((miss, program, registers))
    if shaped:
        candidates.sort(key=lambda candidate: candidate[0])
    return [(program, registers)
            for _, program, registers in candidates[:2]]


def _synthetic_factory(name: str, program: Program, expected: List[int]):
    """A registry factory that builds the workload fresh on every call.

    Each call links a new :class:`Program` (so CFGs, recorded traces and
    compression artifacts are rebuilt, as for the suite kernels).  The
    oracle compares the final registers with ``expected``, those of an
    uncompressed run.
    """

    def check(machine) -> List[str]:
        if list(machine.registers) != expected:
            return [f"{name}: final registers differ from the "
                    f"uncompressed baseline"]
        return []

    def factory() -> Workload:
        fresh = Program(name, list(program.instructions),
                        dict(program.labels), program.entry_label).link()
        return Workload(name=name, description="generated program",
                        program=fresh, check=check)

    return factory


def _codec_search(seed: int, workdir: str, tiny: bool) -> Scenario:
    programs = synthetic_programs(
        seed, SYNTH_BYTES // 8 if tiny else SYNTH_BYTES, shaped=not tiny
    )
    names = [f"synth{index}-s{seed}" for index in range(len(programs))]
    for name, (program, registers) in zip(names, programs):
        WORKLOADS.add(name, _synthetic_factory(name, program, registers))
    axes = api.cases(
        *({"codec": codec} for codec in SEARCH_PIPELINES + SEARCH_FLAT),
        *({"assignment": policy} for policy in SEARCH_ASSIGNMENTS),
    )
    spec = api.ExperimentSpec(
        workloads=names,
        base={"codec": "shared-dict", "decompression": "ondemand"},
        axes=axes,
        engine="trace",
        name="codec_search",
    )
    return Scenario("codec_search", spec, workdir, store="fresh",
                    cleanups=[lambda: [WORKLOADS.remove(n) for n in names]])


def _warm_store(seed: int, workdir: str, tiny: bool) -> Scenario:
    store_dir = os.path.join(workdir, "warm-store")
    spec = _kedge_spec(tiny)
    scenario = Scenario("warm_store", spec, workdir, store="warm",
                        store_dir=store_dir, replays="none")
    # Pre-population is a fresh compute of the whole grid; every timed
    # sweep must reproduce it byte for byte from the store alone.
    result, text = run_sweep(scenario, store_dir)
    problems = [f"{run.workload}/{run.config.strategy_name}"
                for run in result if not run.ok]
    cache = result.meta.get("cache", {})
    if problems or cache.get("misses") != len(result):
        raise RuntimeError(
            f"warm_store pre-population failed: cache={cache}, "
            f"failed cells={problems[:5]}"
        )
    scenario.reference = text
    return scenario


_BUILDERS = {
    "kedge_sweep": _kedge_sweep,
    "predecomp_budget": _predecomp_budget,
    "codec_search": _codec_search,
    "warm_store": _warm_store,
}


def prepare(name: str, seed: int, workdir: str,
            tiny: bool = False) -> Scenario:
    """Set up workload ``name`` and warm its code paths.

    The warm-up runs the scenario's configs on the smallest suite kernel
    (on a throwaway store when the scenario uses one), so lazy imports
    and first-use initialisation are paid here, not in a timed sweep.
    """
    scenario = _BUILDERS[name](seed, workdir, tiny)
    try:
        warmup = dataclasses.replace(scenario.spec,
                                     workloads=[WARMUP_WORKLOAD])
        store: Union[str, bool] = False
        if scenario.store != "none":
            store = tempfile.mkdtemp(prefix="warmup-", dir=workdir)
        result, _ = run_sweep(scenario, store, warmup)
        if store:
            shutil.rmtree(store, ignore_errors=True)
        failed = [run.config.strategy_name for run in result if not run.ok]
        if failed:
            raise RuntimeError(f"{name}: warm-up cells failed: {failed}")
    except BaseException:
        scenario.close()
        raise
    return scenario
