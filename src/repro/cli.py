"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands (all built on the :mod:`repro.api` facade):

* ``list``     — every pluggable component family (workloads, codecs,
  strategies, predictors, executors) from the unified registry;
* ``inspect``  — disassembly + CFG + static compression of a workload;
* ``run``      — simulate one workload under one configuration;
* ``sweep``    — k-edge sweep table for one workload;
* ``compare``  — Figure 3 design-space comparison for one workload;
* ``exp``      — run a declarative JSON experiment spec
  (``--spec FILE``), optionally in parallel (``--jobs N``), and write
  the versioned result JSON/CSV;
* ``store``    — the persistent experiment store: ``stats``, ``gc``,
  ``clear`` and ``verify`` (fsck: checksum every blob, quarantine
  corrupt ones and prune dangling refs with ``--repair``);
* ``serve``    — the long-running sweep service (``repro.service``):
  a JSON-over-HTTP job queue with store-backed per-cell dedup, SSE
  progress events, ``/metrics`` (JSON or Prometheus text), a live
  ``/dashboard`` page, graceful drain and a resumable job journal;
* ``trace``    — run one cell with cycle-domain span tracing armed
  (``repro.obs``): prints the execute/stall phase breakdown and writes
  a Perfetto-loadable Chrome trace with ``--out``;
* ``docs``     — generate (or ``--check``) ``docs/cli.md`` from this
  parser.

The performance microbenchmarks and the store, serve and
observability smoke gates check the product from outside it: they live
in ``benchmarks/perf/`` (``run_bench.py``, ``store_smoke.py``,
``serve_smoke.py``, ``obs_smoke.py``) and run through ``make``.

``run``/``sweep``/``compare`` accept ``--hierarchy PRESET`` (the
memory-hierarchy model: ``flat`` is the seed-equivalent default;
``repro list`` enumerates the registered presets).  ``sweep`` and
``compare`` accept ``--jobs N`` (process-parallel across workload
partitions; with a single workload this changes nothing).
``sweep``/``compare``/``exp`` accept ``--store [DIR]`` (serve repeated
cells from the persistent store; DIR defaults to ``$REPRO_STORE_DIR``
or ``~/.cache/repro-store``) and ``--no-cache`` (force recomputation
even when ``$REPRO_STORE_DIR`` is set), plus ``--retries N`` /
``--cell-timeout SECONDS`` (re-attempt failing cells with backoff and
bound each attempt's wall clock; see ``docs/operations.md``).

Any cell that raises or fails oracle validation is listed on stderr
and makes the command exit nonzero — failed cells are never silently
dropped from a table.

All output is plain text, suitable for piping into experiment notes.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import api
from .analysis import EnergyModel, Table, percent
from .cfg import build_cfg, natural_loops
from .compress import (
    CodecError,
    available_codecs,
    compare_codecs,
    resolve_codec_spec,
)
from .core import DECOMPRESSION_STRATEGIES, SimulationConfig
from .memory import available_hierarchies
from .selection import (
    AssignmentError,
    available_assignments,
    validate_assignment,
)
from .strategies import available_predictors
from .workloads import available_workloads, get_workload


def _parse_codec(text: str) -> str:
    """Validate a --codec name or pipeline spec; argparse errors."""
    try:
        return resolve_codec_spec(text)
    except CodecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_assignment(text: str) -> str:
    """Validate an --assignment policy spec; argparse-friendly errors."""
    try:
        validate_assignment(text)
    except AssignmentError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _parse_k_list(text: str) -> List[Optional[int]]:
    """Parse the --k-values token list; argparse-friendly errors."""
    values: List[Optional[int]] = []
    for token in text.split(","):
        try:
            values.append(api.parse_k(token, field_name="k"))
        except api.SpecError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("--k-values is empty")
    return values


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--codec", default="shared-dict", type=_parse_codec,
        metavar="CODEC",
        help="compression codec: a flat codec name "
             f"({', '.join(available_codecs())}) or a layered "
             "pipeline spec such as 'delta|huffman' or "
             "'stride:4|shared-dict' (transform layers feeding an "
             "entropy stage; see docs/pipelines.md; "
             "default: shared-dict)",
    )
    parser.add_argument(
        "--strategy", default="ondemand",
        choices=list(DECOMPRESSION_STRATEGIES),
        help="decompression strategy (default: ondemand)",
    )
    parser.add_argument(
        "--k-compress", type=int, default=8, metavar="K",
        help="k-edge recompression distance; 0 = never recompress "
             "(default: 8)",
    )
    parser.add_argument(
        "--k-decompress", type=int, default=2, metavar="K",
        help="pre-decompression distance (default: 2)",
    )
    parser.add_argument(
        "--predictor", default="online-profile",
        choices=[p for p in available_predictors()
                 if p != "static-profile"],
        help="predictor for pre-single (default: online-profile)",
    )
    parser.add_argument(
        "--budget", type=int, default=None, metavar="BYTES",
        help="optional hard cap on the code footprint",
    )
    parser.add_argument(
        "--hierarchy", default="flat",
        choices=available_hierarchies(),
        help="memory-hierarchy preset: per-level latency, burst "
             "granularity and energy for the front/target memories "
             "(default: flat, the seed-equivalent cost model)",
    )
    parser.add_argument(
        "--assignment", default="uniform", type=_parse_assignment,
        metavar="POLICY",
        help="per-unit codec-assignment policy "
             f"({', '.join(available_assignments())}; parameters "
             "attach with colons, e.g. knapsack:0.9 or "
             "hotness-threshold:0.25:rle; non-uniform policies "
             "profile the workload first; default: uniform)",
    )


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes (parallel across workloads; "
             "default: serial)",
    )
    _add_cache_arguments(parser)
    _add_retry_arguments(parser)


def _add_retry_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="re-attempt each failing cell up to N times with "
             "exponential backoff (default: 0, fail fast)",
    )
    parser.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock budget for one cell; a cell that "
             "exceeds it fails (and is retried under --retries)",
    )


def _retry_from_args(args: argparse.Namespace):
    """The api-layer retry policy, or None (the zero-cost default)."""
    retries = getattr(args, "retries", 0) or 0
    timeout = getattr(args, "cell_timeout", None)
    if retries == 0 and timeout is None:
        return None
    if retries < 0:
        print("error: --retries must be >= 0", file=sys.stderr)
        raise SystemExit(2)
    return api.RetryPolicy(attempts=retries + 1, timeout=timeout)


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", nargs="?", const="", default=None, metavar="DIR",
        help="serve repeated cells from the persistent experiment "
             "store at DIR (no DIR: $REPRO_STORE_DIR or "
             "~/.cache/repro-store)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="never consult the store, even when $REPRO_STORE_DIR "
             "is set",
    )


def _store_from_args(args: argparse.Namespace):
    """The ``store`` argument for the api layer: False disables, a
    path/'' enables, None defers to $REPRO_STORE_DIR."""
    if getattr(args, "no_cache", False):
        return False
    store = getattr(args, "store", None)
    if store is None:
        return None
    return store if store else True


def _report_cell_failures(result) -> int:
    """List failed cells on stderr; the command's exit code.

    One :func:`repro.log.kv` line per failed cell, so scripts can
    ``parse_kv`` the stderr instead of grepping prose.
    """
    from .log import kv

    failed = result.failures()
    if not failed:
        return 0
    print(f"error: {len(failed)} cell(s) failed:", file=sys.stderr)
    for run in failed:
        reason = run.error if run.error is not None \
            else "; ".join(run.validation)
        print(
            "  " + kv(
                "cell.failed", workload=run.workload,
                label=run.config.strategy_name, error=reason,
            ),
            file=sys.stderr,
        )
    return 1


def _assignment_profile(
    args: argparse.Namespace, workload, strategy: Optional[str] = None
):
    """The offline edge profile a non-uniform assignment needs.

    Profile-guided policies rank units by real execution counts; the
    CLI records them with one cheap uncompressed run.  Uniform runs
    skip this (None keeps the config byte-identical to the default),
    as does ``strategy="none"`` — the uncompressed baseline builds no
    image, so an assignment is inert and profiling it would double the
    command's runtime for nothing.
    """
    if getattr(args, "assignment", "uniform") == "uniform":
        return None
    if strategy == "none":
        return None
    try:
        return api.profile_workload(workload)
    except ValueError as exc:
        # E.g. the profiling trace hit the recording cap; fail as a
        # clean CLI error, not a traceback.
        print(f"error: cannot profile {workload.name}: {exc}",
              file=sys.stderr)
        raise SystemExit(1) from None


def _config_from_args(
    args: argparse.Namespace, profile=None
) -> SimulationConfig:
    return SimulationConfig(
        codec=args.codec,
        decompression=args.strategy,
        k_compress=None if args.k_compress == 0 else args.k_compress,
        k_decompress=args.k_decompress,
        predictor=args.predictor,
        memory_budget=args.budget,
        hierarchy=args.hierarchy,
        assignment=args.assignment,
        profile=profile,
        trace_events=False,
        record_trace=False,
    )


def cmd_list(args: argparse.Namespace) -> int:
    print("workloads:")
    for name in available_workloads():
        print(f"  {name:12s} {get_workload(name).description}")
    print()
    for kind, names in sorted(api.list_components().items()):
        if kind == "workloads":
            continue
        print(f"{kind + ':':12s} " + ", ".join(names))
    print(
        "\npipeline spec grammar: any 'layer[:params]|...|entropy' "
        "composition of the transforms above feeding a flat codec is "
        "itself a codec (e.g. --codec 'delta|huffman'); the pipelines "
        "listed are the curated pipeline-search pool.  See "
        "docs/pipelines.md."
    )
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    cfg = build_cfg(workload.program)
    print(f"{workload.name}: {workload.description}")
    print(f"{len(workload.program)} instructions, "
          f"{len(cfg.blocks)} basic blocks, "
          f"{cfg.num_edges} edges, "
          f"{len(natural_loops(cfg))} natural loops, "
          f"{cfg.total_size_bytes()} bytes\n")
    print(cfg.render())
    print()
    table = Table(
        "static compression", ["codec", "ratio", "saving"]
    )
    for name, stats in compare_codecs(
        cfg.blocks, ("shared-dict", "shared-fields", "shared-huffman")
    ).items():
        table.add_row(name, stats.ratio, percent(stats.space_saving))
    print(table.render())
    if args.disasm:
        print()
        print(workload.program.disassemble())
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    profile = _assignment_profile(args, workload, args.strategy)
    run = api.run_cell(workload, _config_from_args(args, profile))
    print(run.result.render())
    if run.validation:
        print("\nVALIDATION FAILED:")
        for problem in run.validation:
            print(f"  {problem}")
        return 1
    print("\nvalidation: OK (oracle accepted the final machine state)")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    k_values = args.k_values
    profile = _assignment_profile(args, workload, args.strategy)
    configs = [
        SimulationConfig(
            codec=args.codec, decompression=args.strategy,
            k_compress=k, k_decompress=args.k_decompress,
            predictor=args.predictor, hierarchy=args.hierarchy,
            assignment=args.assignment, profile=profile,
            trace_events=False, record_trace=False,
        )
        for k in k_values
    ]
    result = api.run_grid(
        [workload], configs, jobs=args.jobs,
        store=_store_from_args(args), retry=_retry_from_args(args),
    )
    energy = EnergyModel.for_hierarchy(args.hierarchy)
    table = Table(
        f"k-edge sweep for '{workload.name}' "
        f"({args.strategy}, {args.codec}, {args.hierarchy})",
        ["k", "avg_saving", "peak_saving", "overhead", "faults",
         "traffic_B", "energy_nJ"],
    )
    for k, run in zip(k_values, result.runs):
        r = run.result
        table.add_row(
            "inf" if k is None else k,
            percent(r.average_saving), percent(r.peak_saving),
            percent(r.cycle_overhead), int(r.counters.faults),
            int(r.counters.target_memory_bytes),
            round(energy.total_energy(r), 1),
        )
    print(table.render())
    return _report_cell_failures(result)


def cmd_compare(args: argparse.Namespace) -> int:
    workload = get_workload(args.workload)
    profile = _assignment_profile(args, workload)
    configs = [
        SimulationConfig(decompression="none", codec="null",
                         label="uncompressed",
                         hierarchy=args.hierarchy,
                         trace_events=False, record_trace=False),
    ]
    for strategy in ("ondemand", "pre-all", "pre-single"):
        configs.append(
            SimulationConfig(
                codec=args.codec, decompression=strategy,
                k_compress=None if args.k_compress == 0
                else args.k_compress,
                k_decompress=args.k_decompress,
                predictor=args.predictor, label=strategy,
                hierarchy=args.hierarchy,
                assignment=args.assignment, profile=profile,
                trace_events=False, record_trace=False,
            )
        )
    result = api.run_grid(
        [workload], configs, jobs=args.jobs,
        store=_store_from_args(args), retry=_retry_from_args(args),
    )
    table = Table(
        f"design space for '{workload.name}' ({args.codec}, "
        f"kc={args.k_compress}, kd={args.k_decompress})",
        ["strategy", "avg_footprint", "avg_saving", "overhead",
         "stall_cycles"],
    )
    for run in result.runs:
        r = run.result
        table.add_row(
            run.config.label, int(r.average_footprint),
            percent(r.average_saving), percent(r.cycle_overhead),
            int(r.counters.stall_cycles),
        )
    print(table.render())
    return _report_cell_failures(result)


def cmd_exp(args: argparse.Namespace) -> int:
    try:
        spec = api.ExperimentSpec.from_file(args.spec)
    except (OSError, api.SpecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.assignment is not None:
        # Override every cell's assignment policy.  Axis overrides
        # beat base fields during expansion, so the override must land
        # in both — a spec sweeping assignment as an axis is still
        # forced onto the requested policy.
        spec.base = {**dict(spec.base), "assignment": args.assignment}
        spec.axes = [
            {**dict(override), "assignment": args.assignment}
            for override in spec.axes
        ]
        try:
            spec.configs()
        except api.SpecError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    executor = args.executor
    result = api.run_experiment(
        spec, executor=executor, jobs=args.jobs,
        store=_store_from_args(args), retry=_retry_from_args(args),
    )

    table = Table(
        f"experiment '{spec.name}' "
        f"({result.meta['executor']} executor, "
        f"jobs={result.meta['jobs']})",
        ["workload", "strategy", "avg_saving", "peak_saving",
         "overhead", "faults", "ok"],
    )
    for run in result.runs:
        r = run.result
        table.add_row(
            run.workload, run.config.strategy_name,
            percent(r.average_saving), percent(r.peak_saving),
            percent(r.cycle_overhead), int(r.counters.faults),
            "yes" if run.ok else "NO",
        )
    elapsed = result.meta["timing"]["elapsed_s"]
    cache = result.meta.get("cache")
    cache_note = (
        f", cache {cache['hits']} hit(s) / {cache['misses']} miss(es)"
        if cache else ""
    )
    table.add_note(
        f"{len(result.runs)} cells over "
        f"{len(result.workloads())} workloads in {elapsed:.2f}s"
        f"{cache_note} (result schema v{api.SCHEMA_VERSION})"
    )
    print(table.render())
    try:
        if args.output:
            result.to_json(args.output)
            print(f"[results written to {args.output}]")
        if args.csv:
            result.to_csv(args.csv)
            print(f"[CSV written to {args.csv}]")
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return 1
    return _report_cell_failures(result)


def _store_root(args: argparse.Namespace) -> str:
    from .store import DEFAULT_STORE_DIR, resolve_store_dir

    resolved = resolve_store_dir(
        args.store if args.store else None
    )
    return resolved or DEFAULT_STORE_DIR


def cmd_store(args: argparse.Namespace) -> int:
    from .store import ExperimentStore, StoreError

    root = _store_root(args)
    try:
        # Inspection commands never create a store: a mistyped --store
        # errors instead of reporting a freshly made empty one.
        store = ExperimentStore(root, create=False)
    except StoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.action == "stats":
        stats = store.stats()
        if getattr(args, "json", False):
            # Machine-readable: the exact dict the service's
            # GET /metrics embeds under "store" (tested for
            # agreement), so scripts never scrape the human text.
            import json as json_module

            print(json_module.dumps(stats, indent=2, sort_keys=True))
            return 0
        print(f"store @ {stats['root']} (format v{stats['format']})")
        print(f"  cells:     {stats['cells']}")
        print(f"  artifacts: {stats['artifacts']}")
        print(f"  jobs:      {stats['jobs']}")
        print(f"  blobs:     {stats['blobs']} "
              f"({stats['blob_bytes']} bytes)")
        print(f"  usage:     {stats['hits']} hits, "
              f"{stats['misses']} misses, {stats['puts']} puts, "
              f"{stats['corrupt_misses']} corrupt miss(es)")
        return 0
    if args.action == "verify":
        report = store.verify(repair=args.repair)
        mode = "repair" if args.repair else "check"
        print(f"verify ({mode}) @ {store.root}")
        print(f"  objects:   {report['objects']} checked, "
              f"{report['corrupt_objects']} corrupt, "
              f"{report['quarantined']} quarantined")
        print(f"  refs:      {report['refs']} checked, "
              f"{report['dangling_refs']} dangling, "
              f"{report['pruned_refs']} pruned")
        print(f"  tmp files: {report['tmp_files']} stale, "
              f"{report['removed_tmp_files']} removed")
        if report["ok"]:
            print("store verify OK")
            return 0
        if args.repair:
            print("store repaired: corrupt blobs moved to quarantine/, "
                  "dangling refs pruned; the next cached sweep "
                  "recomputes exactly those cells")
            return 0
        print("error: store has integrity problems; re-run with "
              "--repair to quarantine and prune them", file=sys.stderr)
        return 1
    if args.action == "gc":
        report = store.gc()
        print(f"gc @ {store.root}: removed "
              f"{report['removed_blobs']} blob(s), freed "
              f"{report['freed_bytes']} bytes")
        return 0
    if args.action == "clear":
        try:
            store.clear()
        except StoreError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"cleared store @ {store.root}")
        return 0
    raise AssertionError(f"unhandled store action {args.action!r}")


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced cell; print phases, optionally write Chrome JSON."""
    from .obs import chrome_trace_json

    workload = get_workload(args.workload)
    profile = _assignment_profile(args, workload, args.strategy)
    config = _config_from_args(args, profile)
    result, tracer = api.run_traced(workload, config)
    print(result.render())
    print("\nphase breakdown (cycles):")
    for name, cycles in (result.phases or {}).items():
        share = (
            cycles / result.total_cycles if result.total_cycles else 0.0
        )
        print(f"  {name:18s} {cycles:10d}  {share:6.1%}")
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(chrome_trace_json(tracer))
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return 1
        print(f"\n[chrome trace written to {args.out} — load it in "
              f"Perfetto or chrome://tracing]")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import JobManager, run_server

    try:
        manager = JobManager(
            store=_store_root(args),
            workers=args.workers,
            inner_jobs=args.jobs or 1,
            retry=_retry_from_args(args),
            queue_size=args.queue_size,
            resume=not args.no_resume,
        )
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    run_server(manager, host=args.host, port=args.port)
    return 0


#: Where ``repro docs`` writes/checks the generated CLI reference.
CLI_DOC_PATH = "docs/cli.md"

_CLI_DOC_HEADER = """\
# CLI reference

Generated from the live argparse tree by `python -m repro.cli docs`
(do **not** edit by hand — `make docs` regenerates and CI checks it is
in sync).  Every subcommand runs as `python -m repro <command> ...`
with `PYTHONPATH=src` (or the package installed).
"""


def _action_invocation(action: argparse.Action) -> str:
    """Readable flag/positional syntax for one argparse action."""
    if not action.option_strings:  # positional
        return action.metavar or action.dest.upper()
    metavar = ""
    if action.nargs != 0:
        name = action.metavar or action.dest.upper()
        metavar = f" [{name}]" if action.nargs == "?" else f" {name}"
    return ", ".join(
        f"{flag}{metavar}" for flag in action.option_strings
    )


def _action_doc_line(action: argparse.Action) -> str:
    """One markdown bullet documenting an argparse action."""
    parts = [f"- `{_action_invocation(action)}` — {action.help or ''}"]
    if action.choices is not None:
        names = ", ".join(str(c) for c in action.choices)
        parts.append(f" (one of: {names})")
    return "".join(parts)


def render_cli_docs() -> str:
    """The full markdown CLI reference, from the live parser tree.

    Deterministic for a given code state (no terminal-width dependent
    argparse formatting), so ``docs/cli.md`` can be checked for sync
    in CI: any flag/subcommand change regenerates the page.
    """
    parser = build_parser()
    lines = [_CLI_DOC_HEADER]
    subactions = [
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    for subaction in subactions:
        helps = {
            choice.dest: choice.help or ""
            for choice in subaction._choices_actions
        }
        for name, sub in subaction.choices.items():
            lines.append(f"## `repro {name}`")
            lines.append("")
            summary = helps.get(name, "")
            if summary:
                lines.append(summary[0].upper() + summary[1:] + ".")
                lines.append("")
            positionals = [
                a for a in sub._actions
                if not a.option_strings
                and not isinstance(a, argparse._SubParsersAction)
            ]
            options = [
                a for a in sub._actions
                if a.option_strings
                and not isinstance(a, argparse._HelpAction)
            ]
            if positionals:
                lines.append("Arguments:")
                lines.append("")
                for action in positionals:
                    lines.append(_action_doc_line(action))
                lines.append("")
            if options:
                lines.append("Options:")
                lines.append("")
                for action in options:
                    lines.append(_action_doc_line(action))
                lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def cmd_docs(args: argparse.Namespace) -> int:
    """Generate (or check) the argparse-derived CLI reference page."""
    text = render_cli_docs()
    path = args.output
    if args.check:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                current = handle.read()
        except OSError as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return 1
        if current != text:
            print(
                f"error: {path} is out of sync with the CLI; "
                f"regenerate with `python -m repro.cli docs`",
                file=sys.stderr,
            )
            return 1
        print(f"{path} is in sync with the CLI")
        return 0
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    print(f"[CLI reference written to {path}]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Access pattern-based code compression (DATE 2005) "
                    "— simulator CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list every pluggable component family"
    ).set_defaults(func=cmd_list)

    inspect_parser = subparsers.add_parser(
        "inspect", help="show a workload's CFG and static compression"
    )
    inspect_parser.add_argument("workload", choices=available_workloads())
    inspect_parser.add_argument(
        "--disasm", action="store_true", help="include full disassembly"
    )
    inspect_parser.set_defaults(func=cmd_inspect)

    run_parser = subparsers.add_parser(
        "run", help="simulate one workload under one configuration"
    )
    run_parser.add_argument("workload", choices=available_workloads())
    _add_config_arguments(run_parser)
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="k-edge sweep table for one workload"
    )
    sweep_parser.add_argument("workload", choices=available_workloads())
    sweep_parser.add_argument(
        "--k-values", default="1,2,4,8,16,inf", type=_parse_k_list,
        metavar="LIST",
        help="comma-separated positive k list; 'inf' or 'none' = never "
             "recompress (default: 1,2,4,8,16,inf)",
    )
    _add_config_arguments(sweep_parser)
    _add_grid_arguments(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    compare_parser = subparsers.add_parser(
        "compare", help="compare the decompression design space"
    )
    compare_parser.add_argument("workload",
                                choices=available_workloads())
    _add_config_arguments(compare_parser)
    _add_grid_arguments(compare_parser)
    compare_parser.set_defaults(func=cmd_compare)

    exp_parser = subparsers.add_parser(
        "exp", help="run a declarative JSON experiment spec"
    )
    exp_parser.add_argument(
        "--spec", required=True, metavar="FILE",
        help="JSON experiment spec (see README: repro.api quickstart)",
    )
    exp_parser.add_argument(
        "--assignment", default=None, type=_parse_assignment,
        metavar="POLICY",
        help="override every cell's codec-assignment policy "
             f"({', '.join(available_assignments())}; colon "
             "parameters accepted, e.g. knapsack:0.9).  Spec cells "
             "carry no offline profile, so non-uniform policies use "
             "the static loop-nesting hotness estimate here — labels "
             "mark such runs '[static]'; run/sweep/compare profile "
             "the workload instead",
    )
    exp_parser.add_argument(
        "--executor", default=None, choices=api.EXECUTORS.names(),
        help="override the spec's executor",
    )
    exp_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="override the spec's worker process count",
    )
    exp_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the versioned result JSON here",
    )
    exp_parser.add_argument(
        "--csv", default=None, metavar="PATH",
        help="write the flat result CSV here",
    )
    _add_cache_arguments(exp_parser)
    _add_retry_arguments(exp_parser)
    exp_parser.set_defaults(func=cmd_exp)

    store_parser = subparsers.add_parser(
        "store", help="manage the persistent experiment store"
    )
    store_parser.add_argument(
        "action", choices=("stats", "gc", "clear", "verify"),
        help="stats: inventory + hit counters; gc: drop unreferenced "
             "blobs; clear: empty the store; verify: fsck every blob "
             "and ref (nonzero exit on damage unless --repair)",
    )
    store_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="store directory (default: $REPRO_STORE_DIR or "
             "~/.cache/repro-store)",
    )
    store_parser.add_argument(
        "--repair", action="store_true",
        help="with verify: quarantine corrupt blobs (to quarantine/), "
             "prune dangling refs and stale temp files",
    )
    store_parser.add_argument(
        "--json", action="store_true",
        help="with stats: print the raw stats dict as JSON (the same "
             "numbers the service's GET /metrics reports under "
             "'store')",
    )
    store_parser.set_defaults(func=cmd_store)

    serve_parser = subparsers.add_parser(
        "serve", help="run the long-running sweep service "
                      "(JSON job API over HTTP; see docs/service.md)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", metavar="ADDR",
        help="bind address (default: 127.0.0.1)",
    )
    serve_parser.add_argument(
        "--port", type=int, default=8642, metavar="PORT",
        help="listen port; 0 picks a free one (default: 8642)",
    )
    serve_parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="experiment store backing the service (default: "
             "$REPRO_STORE_DIR or ~/.cache/repro-store)",
    )
    serve_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent job worker threads (default: 2)",
    )
    serve_parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker *processes* per job for cell execution "
             "(default: in-thread serial)",
    )
    serve_parser.add_argument(
        "--queue-size", type=int, default=64, metavar="N",
        help="bounded job queue depth; a full queue replies 429 "
             "(default: 64)",
    )
    serve_parser.add_argument(
        "--no-resume", action="store_true",
        help="ignore the job journal from previous runs instead of "
             "re-enqueueing unfinished jobs at boot",
    )
    _add_retry_arguments(serve_parser)
    serve_parser.set_defaults(func=cmd_serve)

    docs_parser = subparsers.add_parser(
        "docs", help="generate docs/cli.md from the argparse tree"
    )
    docs_parser.add_argument(
        "--check", action="store_true",
        help="verify the page matches the live CLI instead of writing "
             "(nonzero exit on drift; the `make docs` / CI gate)",
    )
    docs_parser.add_argument(
        "--output", default=CLI_DOC_PATH, metavar="PATH",
        help=f"where to write/check the page (default: {CLI_DOC_PATH})",
    )
    docs_parser.set_defaults(func=cmd_docs)

    trace_parser = subparsers.add_parser(
        "trace", help="simulate one cell with span tracing armed "
                      "(phase breakdown + Chrome trace export)"
    )
    trace_parser.add_argument(
        "action", choices=("run",),
        help="run: trace one workload/config cell",
    )
    trace_parser.add_argument("workload", choices=available_workloads())
    _add_config_arguments(trace_parser)
    trace_parser.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the Chrome trace-event JSON here (load it in "
             "Perfetto or chrome://tracing)",
    )
    trace_parser.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
