"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload kedge_sweep --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` times untraced sweeps for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced sweeps
and reports the per-layer metrics of the traced ones.  Every metric is
printed as ``name: value unit``; the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
See README.md for the workloads and metrics.
"""

import time

# The set-up clock starts before the simulator is imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: Set-ups measured per untraced run: this process plus child processes
#: that set up and exit.  The median is reported.
SETUP_SAMPLES = 5

#: Sweeps run before the peak resident memory is read.  Sweeps retain
#: memory, so reading it at a fixed count keeps it independent of how
#: many sweeps fit in a run.
RSS_SWEEPS = 3

#: What :func:`_probe` takes on the reference host speed, in seconds.
#: Sweep times are scaled to that speed (see README.md).
PROBE_REF_S = 0.05

#: Longest a set-up child may take.
SETUP_TIMEOUT_S = 120


WORKLOADS = ("kedge_sweep", "predecomp_budget", "codec_search",
             "warm_store")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"),
                        default="full",
                        help="tiny: a few cells per workload (tests)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _sweep_problems(scenario, result, text, reference):
    from perfbench.workloads import store_problems

    problems = [
        f"cell {run.workload}/{run.config.strategy_name} failed: "
        f"{run.error or run.validation}"
        for run in result if not run.ok
    ]
    if text != reference:
        problems.append(f"{scenario.name}: canonical_json differs from "
                        f"the reference sweep")
    return problems + store_problems(scenario, result)


def _replay_problems(scenario, trace, cells):
    """Path-provenance guard: replays took the path the workload claims."""
    want = {"kernel": (cells, 0), "layered": (0, cells),
            "none": (0, 0)}.get(scenario.replays)
    got = (trace.counts["replay.accepted"], trace.counts["replay.declined"])
    if want is None or got == want:
        return []
    return [f"{scenario.name}: expected (accepted, declined) replays "
            f"{want}, got {got}"]


class _Sweeps:
    """Timed sweeps of one scenario, with their correctness checks."""

    def __init__(self, scenario):
        self.scenario = scenario
        self.reference = scenario.reference
        self.first = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run(self, trace=None):
        from perfbench.workloads import run_sweep

        scenario = self.scenario
        store = scenario.sweep_store()
        # Every sweep starts without the previous sweep's garbage.
        gc.collect()
        try:
            if trace is None:
                started = time.perf_counter()
                result, text = run_sweep(scenario, store)
                elapsed = time.perf_counter() - started
            else:
                trace.reset()
                with trace.armed():
                    started = time.perf_counter()
                    result, text = run_sweep(scenario, store)
                    elapsed = time.perf_counter() - started
        finally:
            scenario.release_store(store)
        if self.first is None:
            self.first = result
            if self.reference is None:
                self.reference = text
        self.attempted += len(result)
        self.failed += sum(not run.ok for run in result)
        self.problems += _sweep_problems(scenario, result, text,
                                         self.reference)
        if trace is not None:
            self.problems += _replay_problems(scenario, trace, len(result))
        return elapsed


def _probe():
    """Time a fixed pure-Python loop that uses nothing of the simulator.

    Other work on a shared host slows this loop and a sweep alike, so
    the ratio of the two stays steady while either alone drifts.
    """
    started = time.perf_counter()
    table = {}
    total = 0
    for i in range(150_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += len(str(key))
    return time.perf_counter() - started


def _setup_children(args, count):
    """Set up ``count`` more times, each in a fresh process."""
    samples = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--scale", args.scale, "--setup-only"],
            cwd=str(ROOT), capture_output=True, text=True,
            timeout=SETUP_TIMEOUT_S, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{child.stderr}")
        samples.append(json.loads(child.stdout.splitlines()[-1])["setup_s"])
    return samples


def _end_to_end(args, scenario, setup_s):
    sweeps = _Sweeps(scenario)
    durations, scaled = [], []
    deadline = time.perf_counter() + args.seconds
    while len(durations) < RSS_SWEEPS or time.perf_counter() < deadline:
        before = _probe()
        durations.append(sweeps.run())
        probe_s = (before + _probe()) / 2
        scaled.append(durations[-1] * PROBE_REF_S / probe_s)
        if len(durations) == RSS_SWEEPS:
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + _setup_children(args, SETUP_SAMPLES - 1)
    cells = list(sweeps.first)
    sweep_s = statistics.median(scaled)
    blocks = sum(run.result.counters.blocks_executed for run in cells)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "sweep_s": (sweep_s, "s"),
        "sim_blocks_per_s": (blocks / sweep_s, "blocks/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "cell_ok_rate": (
            (sweeps.attempted - sweeps.failed) / sweeps.attempted, "ratio"),
        "sim_cycle_overhead": (
            statistics.fmean(run.result.cycle_overhead for run in cells),
            "ratio"),
        "sim_footprint_ratio": (
            statistics.fmean(1.0 - run.result.average_saving
                             for run in cells), "ratio"),
    }
    print(f"{args.workload}: {len(cells)} cells; wall-clock sweeps "
          f"{[round(d, 3) for d in durations]} s; scaled sweeps "
          f"{[round(d, 3) for d in scaled]} s; set-ups "
          f"{[round(s, 3) for s in setups]} s")
    return sweeps, metrics


def _per_layer(args, scenario):
    from perfbench.layers import LayerTrace

    sweeps = _Sweeps(scenario)
    trace = LayerTrace()
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        untraced.append(sweeps.run())
        elapsed = sweeps.run(trace)
        traced.append((elapsed, trace.metrics(elapsed)))
        if time.perf_counter() >= deadline:
            break
    # The fastest traced sweep, whose self times add up to its own wall
    # time; compared with the fastest untraced one.
    fastest, metrics = min(traced, key=lambda pair: pair[0])
    metrics["trace_overhead_frac"] = (
        fastest / min(untraced) - 1.0, "ratio")
    print(f"{args.workload}: {len(sweeps.first)} cells; untraced sweeps "
          f"{[round(d, 3) for d in untraced]} s; traced sweeps "
          f"{[round(d, 3) for d, _ in traced]} s")
    return sweeps, metrics


def main(argv=None, started=None):
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: simulator source not found under {SRC}",
              file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import prepare

    started = _STARTED if started is None else started
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=str(WORK))
    try:
        scenario = prepare(args.workload, args.seed, workdir,
                           tiny=args.scale == "tiny")
        try:
            setup_s = time.perf_counter() - started
            if args.setup_only:
                print(json.dumps({"setup_s": setup_s}))
                return 0
            if args.trace:
                sweeps, metrics = _per_layer(args, scenario)
            else:
                sweeps, metrics = _end_to_end(args, scenario, setup_s)
        finally:
            scenario.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    for problem in sweeps.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": not sweeps.problems and sweeps.failed == 0,
        "attempted": sweeps.attempted,
        "failed": sweeps.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
