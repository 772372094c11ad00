"""Outside-in layer attribution for one sweep.

:class:`LayerTrace` wraps the public functions each layer of ``repro``
exposes, at the module attribute where its caller looks them up, and
restores every original on exit.  Each wrapped call pushes a frame on
one stack; a layer's *self time* is its calls' duration minus the part
covered by wrapped calls nested inside them, so the self times of all
layers never double-count and their sum can be compared with the
sweep's wall time (``attributed_frac``).

Nothing here changes what the wrapped functions compute: results pass
through untouched, so a traced sweep's ``canonical_json`` must equal an
untraced one (the benchmark checks it).
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple


def _per(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class _Frame:
    __slots__ = ("replay", "child", "kernel")

    def __init__(self, replay: bool) -> None:
        self.replay = replay  # a simulate_trace call
        self.child = 0.0
        self.kernel: Optional[bool] = None  # set by a nested kernel call


class LayerTrace:
    """Per-layer self times and counts of the sweeps run while armed."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: List[_Frame] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def metrics(self, sweep_s: float) -> Dict[str, Tuple[float, str]]:
        """Per-layer metrics of the sweep traced since :meth:`reset`,
        which took ``sweep_s`` host seconds: name -> (value, unit)."""
        s, c = self.self_s, self.counts
        replays = c["replay.accepted"] + c["replay.declined"]
        artifact_calls = c["compress.artifacts.calls"]
        lookups = c["store.hits"] + c["store.misses"]
        attributed = sum(s.values())
        return {
            "runtime.record_s": (s["runtime.record"], "s"),
            "runtime.record_blocks_per_s": (
                _per(c["runtime.blocks"], s["runtime.record"]), "blocks/s"),
            "replay.kernel_s": (s["replay.kernel"], "s"),
            "replay.kernel_accepted": (c["replay.accepted"], "count"),
            "replay.kernel_declined": (c["replay.declined"], "count"),
            "replay.kernel_accept_ratio": (
                _per(c["replay.accepted"], replays), "ratio"),
            "core.layered_s": (s["core.layered"], "s"),
            "core.layered_blocks_per_s": (
                _per(c["core.layered_blocks"], s["core.layered"]),
                "blocks/s"),
            "core.manager_s": (s["core.manager"], "s"),
            "compress.artifacts_s": (s["compress.artifacts"], "s"),
            "compress.artifact_calls": (artifact_calls, "count"),
            "compress.artifact_builds": (c["compress.builds"], "count"),
            "compress.artifact_hit_ratio": (
                _per(artifact_calls - c["compress.builds"],
                     artifact_calls), "ratio"),
            "selection.build_s": (s["selection.build"], "s"),
            "selection.build_calls": (c["selection.build.calls"], "count"),
            "cfg.build_s": (s["cfg.build"], "s"),
            "cfg.builds": (c["cfg.build.calls"], "count"),
            "workloads.build_s": (s["workloads.build"], "s"),
            "workloads.builds": (c["workloads.build.calls"], "count"),
            "store.plan_s": (s["store.plan"], "s"),
            "store.get_s": (s["store.get"], "s"),
            "store.decode_s": (s["store.decode"], "s"),
            "store.put_s": (s["store.put"], "s"),
            "store.encode_s": (s["store.encode"], "s"),
            "store.hits": (c["store.hits"], "count"),
            "store.misses": (c["store.misses"], "count"),
            "store.puts": (c["store.puts"], "count"),
            "store.hit_ratio": (_per(c["store.hits"], lookups), "ratio"),
            "api.serialize_s": (s["api.serialize"], "s"),
            "traced_sweep_s": (sweep_s, "s"),
            "unattributed_s": (sweep_s - attributed, "s"),
            "attributed_frac": (_per(attributed, sweep_s), "ratio"),
        }

    # ------------------------------------------------------------------
    # The frame stack
    # ------------------------------------------------------------------

    def _timed(
        self,
        fn: Callable[..., Any],
        key: Callable[[_Frame, tuple, Any], str],
        replay: bool = False,
    ) -> Callable[..., Any]:
        """Wrap ``fn``; ``key(frame, args, result)`` names the self-time
        bucket once the call returns (result is None if it raised)."""
        stack = self._stack
        self_s = self.self_s

        def wrapper(*args, **kwargs):
            frame = _Frame(replay)
            stack.append(frame)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1].child += elapsed
                self_s[key(frame, args, result)] += elapsed - frame.child

        return wrapper

    def _fixed(self, fn: Callable[..., Any], name: str,
               count: Optional[Callable[[tuple, Any], None]] = None):
        counts = self.counts

        def key(_frame, args, result):
            counts[name + ".calls"] += 1
            if count is not None:
                count(args, result)
            return name

        return self._timed(fn, key)

    # ------------------------------------------------------------------
    # Layer wrappers
    # ------------------------------------------------------------------

    def _record_run(self, run):
        """``CodeCompressionManager.run``: only the trace-engine
        recording (``decompression="none"``) is a runtime-layer call;
        replays pass straight through to the core layer's wrapper."""
        counts = self.counts

        def count(_args, result):
            if result is not None:
                counts["runtime.blocks"] += result.counters.blocks_executed

        timed = self._fixed(run, "runtime.record", count)

        def wrapper(manager, *args, **kwargs):
            if manager.config.decompression == "none":
                return timed(manager, *args, **kwargs)
            return run(manager, *args, **kwargs)

        return wrapper

    def _kernel(self, try_batched_replay):
        """``try_batched_replay``: counts accept/decline for replays
        (calls nested in ``simulate_trace``); the recording's own call
        is declined by construction and is not a replay."""
        stack = self._stack
        counts = self.counts

        def key(_frame, _args, accepted):
            parent = stack[-1] if stack else None
            if parent is not None and parent.replay:
                parent.kernel = bool(accepted)
                counts["replay.accepted" if accepted
                       else "replay.declined"] += 1
            return "replay.kernel"

        return self._timed(try_batched_replay, key)

    def _replay(self, simulate_trace):
        """``simulate_trace``: self time goes to ``core.layered`` when
        the kernel declined the replay (the per-block loop ran) and to
        ``core.manager`` when it accepted (manager set-up and result
        assembly only)."""
        counts = self.counts

        def key(frame, _args, result):
            if frame.kernel:
                return "core.manager"
            if result is not None:
                counts["core.layered_blocks"] += \
                    result.counters.blocks_executed
            return "core.layered"

        return self._timed(simulate_trace, key, replay=True)

    def _artifacts(self, compression_artifacts, artifact_cache):
        counts = self.counts
        timed = self._fixed(compression_artifacts, "compress.artifacts")

        def wrapper(cfg, codec_name, *args, **kwargs):
            # A memo miss means this call trains and compresses.  The
            # probe only refreshes the LRU position the call itself
            # would refresh.
            if artifact_cache().get(cfg, codec_name) is None:
                counts["compress.builds"] += 1
            return timed(cfg, codec_name, *args, **kwargs)

        return wrapper

    # ------------------------------------------------------------------
    # Arming
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def armed(self):
        """Install every wrapper; restore the originals on exit."""
        # The package re-exports a ``sweep`` function over the module.
        sweep = importlib.import_module("repro.analysis.sweep")
        from repro.api.results import ResultSet
        from repro.cfg import builder
        from repro.core import manager, residency
        from repro.memory.image import artifact_cache
        from repro.selection import assignment
        from repro.store import cas, executor
        from repro.workloads.suite import WORKLOADS

        store = cas.ExperimentStore
        counts = self.counts

        def count_get(_args, record):
            counts["store.hits" if record is not None
                   else "store.misses"] += 1

        def count_put(_args, _digest):
            counts["store.puts"] += 1

        artifacts = self._artifacts(
            residency.compression_artifacts, artifact_cache
        )
        patches = [
            (WORKLOADS, "create",
             self._fixed(WORKLOADS.create, "workloads.build")),
            (builder, "build_cfg",
             self._fixed(builder.build_cfg, "cfg.build")),
            (manager.CodeCompressionManager, "run",
             self._record_run(manager.CodeCompressionManager.run)),
            (manager, "try_batched_replay",
             self._kernel(manager.try_batched_replay)),
            (sweep, "simulate_trace", self._replay(sweep.simulate_trace)),
            (residency, "compression_artifacts", artifacts),
            (assignment, "compression_artifacts", artifacts),
            (residency, "build_assignment",
             self._fixed(residency.build_assignment, "selection.build")),
            (executor, "plan_cells",
             self._fixed(executor.plan_cells, "store.plan")),
            (store, "get_cell",
             self._fixed(store.get_cell, "store.get", count_get)),
            (store, "get_artifact_bundle",
             self._fixed(store.get_artifact_bundle, "store.get")),
            (executor, "record_to_run",
             self._fixed(executor.record_to_run, "store.decode")),
            (executor, "run_to_record",
             self._fixed(executor.run_to_record, "store.encode")),
            (store, "put_cell",
             self._fixed(store.put_cell, "store.put", count_put)),
            (store, "put_artifact_bundle",
             self._fixed(store.put_artifact_bundle, "store.put")),
            (ResultSet, "canonical_json",
             self._fixed(ResultSet.canonical_json, "api.serialize")),
        ]
        saved = []
        try:
            for owner, name, wrapper in patches:
                # Instance attributes (the registry's ``create``) are
                # shadowed and later deleted; class and module
                # attributes are swapped and later put back.
                saved.append((owner, name, owner.__dict__.get(name)))
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in reversed(saved):
                if original is None:
                    delattr(owner, name)
                else:
                    setattr(owner, name, original)
