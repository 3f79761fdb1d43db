"""Command-line interface of the reproduction.

The CLI mirrors the workflow of the paper's tool chain: read a DFT in Galileo
format, convert it into an I/O-IMC community, run compositional aggregation
and report reliability measures.  Sub-commands:

``analyze``
    Evaluate one declarative query (unreliability / bounds at many mission
    times, MTTF, unavailability) against a tree — one conversion, one
    aggregation, one vectorised transient sweep.  ``--json`` emits the full
    structured result (schema ``repro.study/1``).
``sweep``
    Evaluate one query at many failure-rate samples while running conversion
    and aggregation **once**: the aggregated I/O-IMC keeps a transition ->
    parameter map and only the CTMC generator is rebuilt per sample.
    ``--param lam=0.1:2.0:50`` sweeps a declared Galileo parameter (or a
    basic event by name) over a linspace grid; the per-sample solves run on
    a shared-structure uniformisation kernel and fan out over worker
    processes with ``--processes N`` (rows are bit-identical to a serial
    run).  ``--json`` emits schema ``repro.sweep/3``.
``batch``
    Evaluate the same query over a corpus of ``.dft`` files (shell-style
    globs are expanded) with optional process parallelism, printing per-tree
    rows and aggregate timing.  ``--json`` emits schema ``repro.batch/1``;
    ``--output-jsonl FILE`` streams one ``repro.batch/2`` record per tree to
    disk instead of materialising the rows.
``optimize``
    Russian-doll branch-and-bound over a discrete design space (spare counts,
    repair-crew allocation) minimising the mission-time unreliability under a
    cost budget.  ``PROBLEM`` is a built-in seeded scenario (``cas``, ``cps``)
    or a JSON spec; ``--exhaustive`` disables pruning for differential
    checks.  ``--json`` emits schema ``repro.optimize/1``.
``serve``
    Run the analysis service: a stdlib HTTP server (``POST /analyze``,
    ``/sweep``, ``/batch``; ``GET /healthz``, ``/metrics``) backed by a
    content-addressed skeleton store, so repeated analyses of structurally
    identical trees skip conversion and aggregation entirely.
``cache``
    Inspect (``stats``), empty (``clear``) or prebuild (``warm``) a skeleton
    store directory without starting the server.
``baseline``
    The DIFTree-style modular analysis of the same file, for comparison.
``modules``
    The independent modules of the tree and how DIFTree would cut it.
``community``
    List the I/O-IMC community generated for the tree (one line per member).
``dot``
    Export the fault tree (or the final aggregated I/O-IMC) as Graphviz dot.

Run ``python -m repro --help`` for the full synopsis.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import sys
from typing import Iterable, List, Optional, Tuple

from . import __version__
from .baselines import DiftreeAnalyzer
from .core import (
    BatchStudy,
    ImportanceRanking,
    MeasureResult,
    Study,
    StudyOptions,
    SweepStudy,
    with_rate_parameters,
)
from .core.requests import QuerySpec, SweepSpec
from .core.study import resolve_workers
from .ctmc.builders import CtmdpSkeleton
from .dft import diftree_modules, galileo, independent_modules
from .dft.visualization import to_dot
from .core.aggregation import ORDERING_STRATEGIES
from .errors import AnalysisError, ReproError
from .ioimc import ALGORITHMS, AggregationOptions

#: Every pipeline flag's default is the library's own.
DEFAULTS = StudyOptions()


def _load_tree(path: str):
    if path == "-":
        return galileo.parse(sys.stdin.read(), name="<stdin>")
    return galileo.parse_file(path)


def _add_tree_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "tree",
        help="path to a Galileo .dft file ('-' reads the description from stdin)",
    )


def _analysis_options(args: argparse.Namespace) -> StudyOptions:
    return StudyOptions(
        ordering=args.ordering,
        aggregation=AggregationOptions(method=args.aggregation, minimiser=args.minimiser),
        fuse=not args.no_fuse,
        tolerance=getattr(args, "tolerance", DEFAULTS.tolerance),
    )


def _query_spec(args: argparse.Namespace, bounds: bool) -> QuerySpec:
    return QuerySpec(args.time, bounds, args.mttf, args.unavailability)


def _format_measure_lines(measure: MeasureResult) -> List[str]:
    """Human-readable lines for one evaluated measure."""
    lines: List[str] = []
    if measure.error is not None:
        lines.append(f"{measure.kind}: {measure.error}")
    elif measure.kind == "unreliability":
        assert measure.times is not None and measure.values is not None
        for time, value in zip(measure.times, measure.values):
            lines.append(f"Unreliability(t={time:g}) = {value:.6f}")
    elif measure.kind == "unreliability_bounds":
        assert measure.times is not None
        assert measure.lower is not None and measure.upper is not None
        for time, low, high in zip(measure.times, measure.lower, measure.upper):
            if low == high:
                lines.append(f"Unreliability(t={time:g}) = {low:.6f}")
            else:
                lines.append(f"Unreliability(t={time:g}) in [{low:.6f}, {high:.6f}]")
    elif measure.kind == "importance_ranking":
        assert measure.ranking is not None and measure.gradients is not None
        assert measure.times is not None
        lines.append("Importance ranking: " + " > ".join(measure.ranking))
        for index, time in enumerate(measure.times):
            gradients = ", ".join(
                f"{name}={measure.gradients[name][index]:+.4g}"
                for name in measure.ranking
            )
            lines.append(f"dUnreliability/dRate(t={time:g}): {gradients}")
    elif measure.kind == "mttf":
        lines.append(f"Mean time to failure = {measure.value:.6f}")
    elif measure.kind == "unavailability":
        if measure.steady_state:
            lines.append(f"Steady-state unavailability = {measure.value:.6f}")
        else:
            assert measure.times is not None and measure.values is not None
            for time, value in zip(measure.times, measure.values):
                lines.append(f"Unavailability(t={time:g}) = {value:.6f}")
    else:  # pragma: no cover - future measure kinds
        lines.append(f"{measure.kind}: {measure.to_dict()}")
    return lines


def _measures_text(measures: Iterable[MeasureResult]) -> str:
    return "  ".join(line for measure in measures for line in _format_measure_lines(measure))


def _failed_measures(measure_lists: Iterable[Iterable[MeasureResult]]) -> int:
    return sum(1 for measures in measure_lists for measure in measures if not measure.ok)


# ---------------------------------------------------------------------------
# sub-commands
# ---------------------------------------------------------------------------

def _open_skeleton_cache(args: argparse.Namespace):
    """The SkeletonStore of ``--skeleton-cache DIR``, or None."""
    directory = getattr(args, "skeleton_cache", None)
    if not directory:
        return None
    from .service.store import SkeletonStore

    return SkeletonStore(directory)


def command_analyze(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    if args.importance and not tree.parameters:
        # Rankings differentiate w.r.t. declared rate parameters; attach one
        # per basic event so plain Galileo files can be ranked directly.
        tree = with_rate_parameters(tree)
    study = Study(tree, _analysis_options(args), skeleton_cache=_open_skeleton_cache(args))
    query = _query_spec(args, args.bounds).query(study.is_nondeterministic)
    if args.importance:
        query = query + ImportanceRanking(args.time)
    # Record per-measure failures so e.g. an unsupported MTTF still lets the
    # unreliability values the user also asked for reach the output.
    result = study.evaluate(query, on_error="record")
    failed = [measure for measure in result.measures if not measure.ok]
    if args.json:
        print(result.to_json(indent=2))
    else:
        print(f"Fault tree : {tree.summary()}")
        if study.skeleton_cache is not None:
            # The whole point of the cache is not to run the pipeline; report
            # the cached model shape instead of community/aggregation stats.
            print(
                f"Cache      : {result.options.get('skeleton_cache')} "
                f"({args.skeleton_cache})"
            )
            print(f"Model      : {result.model.kind}, {result.model.states} states")
        else:
            print(f"Community  : {study.community.summary()}")
            print(f"Aggregation: {study.statistics.summary()}")
        for measure in result.measures:
            for line in _format_measure_lines(measure):
                print(line)
    if failed:
        print(f"error: {failed[0].error}", file=sys.stderr)
        return 2
    return 0


def _expand_batch_sources(patterns: Iterable[str]) -> Tuple[List[str], List[str]]:
    """Expand shell-style globs; keep plain paths as-is; dedupe.

    Returns ``(paths, unmatched)`` where ``unmatched`` lists glob patterns
    that matched no file — silently dropping those would let a typo shrink
    the corpus without any signal.
    """
    paths: List[str] = []
    unmatched: List[str] = []
    for pattern in patterns:
        if glob.has_magic(pattern):
            matches = sorted(glob.glob(pattern, recursive=True))
            if not matches:
                unmatched.append(pattern)
            paths.extend(matches)
        else:
            paths.append(pattern)
    return list(dict.fromkeys(paths)), unmatched


def _corpus(patterns: Iterable[str]) -> Optional[List[str]]:
    """The corpus paths, or None after reporting a pattern that matched nothing."""
    paths, unmatched = _expand_batch_sources(patterns)
    for pattern in unmatched:
        print(f"error: pattern matched no files: {pattern}", file=sys.stderr)
    if not paths and not unmatched:
        print("error: no input files matched", file=sys.stderr)
    return None if unmatched or not paths else paths


def command_batch(args: argparse.Namespace) -> int:
    paths = _corpus(args.trees)
    if paths is None:
        return 2
    # Bounds are the batch default measure: they are exact for deterministic
    # trees and still well-defined when a corpus member turns out to be
    # non-deterministic, so one query fits the whole corpus.
    batch = BatchStudy(paths, _query_spec(args, True).query(), _analysis_options(args))
    if args.output_jsonl:
        if args.json:
            print(
                "error: --json and --output-jsonl are mutually exclusive "
                "(the streamed sink holds the rows; read it back with "
                "repro.core.results.read_batch_jsonl)",
                file=sys.stderr,
            )
            return 2
        return _run_batch_streaming(args, batch)
    result = batch.run(processes=args.processes)
    if args.json:
        print(result.to_json(indent=2))
    else:
        name_width = max(len(row.name) for row in result.rows)
        for row in result.rows:
            if not row.ok:
                print(f"{row.name:<{name_width}}  FAILED: {row.error}")
                continue
            assert row.result is not None
            states = row.result.model.states
            values = _measures_text(row.result.measures)
            print(f"{row.name:<{name_width}}  {states:>5} states  {values}  [{row.wall_seconds:.3f}s]")
        print(result.summary())
    measure_failures = _failed_measures(row.result.measures for row in result.rows if row.ok)
    if measure_failures:
        print(
            f"error: {measure_failures} measure(s) could not be evaluated "
            "(see per-tree rows)",
            file=sys.stderr,
        )
    return 0 if result.num_failed == 0 and measure_failures == 0 else 1


def _parse_sweep_axis(spec: str) -> Tuple[str, List[float]]:
    """Parse ``NAME=SPEC`` where SPEC is ``start:stop:count``, a comma list
    or a single value."""
    name, separator, body = (part.strip() for part in spec.partition("="))
    try:
        if not separator or not name or not body:
            raise ValueError
        if ":" in body:
            start, stop, count = body.split(":")
            start, stop, count = float(start), float(stop), int(count)
            if count < 1:
                raise ValueError
            step = (stop - start) / max(count - 1, 1)
            values = [start + step * index for index in range(count)]
        else:
            values = [float(part) for part in body.split(",") if part.strip()]
            if not values:
                raise ValueError
    except ValueError:
        raise ReproError(
            f"cannot parse sweep axis {spec!r}; expected NAME=start:stop:count, "
            "NAME=v1,v2,... or NAME=value"
        ) from None
    return name, values


def command_sweep(args: argparse.Namespace) -> int:
    axes: dict = {}
    for spec in args.param:
        name, values = _parse_sweep_axis(spec)
        if name in axes:
            print(f"error: sweep axis {name!r} given twice", file=sys.stderr)
            return 2
        axes[name] = values
    spec = SweepSpec(axes=axes, query=_query_spec(args, args.bounds), processes=args.processes)
    # Basic-event axes get their parameters and unknown axes fail here,
    # before conversion and aggregation run.
    tree = spec.prepare(_load_tree(args.tree))
    study = SweepStudy(
        tree, _analysis_options(args), skeleton_cache=_open_skeleton_cache(args)
    )
    result = study.run(
        spec.rate_sweep(isinstance(study.skeleton, CtmdpSkeleton)),
        processes=spec.processes,
        gradients=args.gradients,
    )
    if args.json:
        print(result.to_json(indent=2))
    else:
        print(f"Fault tree : {tree.summary()}")
        print(f"Sweep      : {result.summary()}")
        for row in result.rows:
            point = ", ".join(f"{k}={v:g}" for k, v in row.sample.items())
            if not row.ok:
                print(f"[{point}]  FAILED: {row.error}")
                continue
            values = _measures_text(row.measures)
            if row.gradients:
                gradient_text = ", ".join(
                    f"d/d{name}={curve[-1]:+.4g}"
                    for name, curve in sorted(row.gradients.items())
                )
                values = f"{values}  [{gradient_text}]"
            print(f"[{point}]  {values}")
    row_failures = result.num_failed
    measure_failures = _failed_measures(row.measures for row in result.rows if row.ok)
    if row_failures or measure_failures:
        print(
            f"error: {row_failures} sample(s) and {measure_failures} measure(s) "
            "could not be evaluated",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_batch_streaming(args: argparse.Namespace, batch: BatchStudy) -> int:
    """Stream batch rows to a JSONL sink; only counters stay in memory."""
    counters = {"measure_failures": 0}

    def counted(rows):
        # Row/failure totals live on the streamed BatchResult; per-measure
        # failures are only visible row by row, so tally them in passing.
        for row in rows:
            if row.ok and row.result is not None:
                counters["measure_failures"] += _failed_measures([row.result.measures])
            yield row

    from .core.results import write_batch_jsonl

    with open(args.output_jsonl, "w", encoding="utf-8") as handle:
        result = write_batch_jsonl(
            counted(batch.iter_rows(processes=args.processes)),
            handle,
            processes=resolve_workers(args.processes, len(batch)),
        )
    print(
        f"{len(result)} trees analysed ({result.num_failed} failed) in "
        f"{result.wall_seconds:.3f}s wall; rows streamed to {args.output_jsonl} "
        f"(schema repro.batch/2)"
    )
    if counters["measure_failures"]:
        print(
            f"error: {counters['measure_failures']} measure(s) could not be "
            "evaluated (see the per-tree rows in the sink)",
            file=sys.stderr,
        )
    return 0 if result.num_failed == 0 and counters["measure_failures"] == 0 else 1


def _load_design_problem(args: argparse.Namespace):
    """The DesignProblem named by ``repro optimize PROBLEM``.

    ``PROBLEM`` is either a built-in seeded scenario (``cas``, ``cps``) or a
    path to a JSON :class:`~repro.core.requests.DesignSpec` whose tree path
    resolves relative to the spec file.
    """
    import dataclasses

    from .core.requests import DesignSpec

    if args.problem in ("cas", "cps"):
        from .systems import cas_spares_scenario, cps_spares_scenario

        factory = cas_spares_scenario if args.problem == "cas" else cps_spares_scenario
        problem = factory()
    else:
        with open(args.problem, "r", encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except ValueError as error:
                raise AnalysisError(f"{args.problem} is not valid JSON: {error}") from None
        spec = DesignSpec.from_payload(payload)
        tree_path = spec.tree
        if tree_path != "-" and not os.path.isabs(tree_path):
            tree_path = os.path.join(os.path.dirname(os.path.abspath(args.problem)), tree_path)
        problem = spec.problem(_load_tree(tree_path))
    overrides = {}
    if getattr(args, "time", None) is not None:
        overrides["mission_time"] = args.time
    if getattr(args, "budget", None) is not None:
        overrides["budget"] = args.budget
    if overrides:
        problem = dataclasses.replace(problem, **overrides)
    return problem


def command_optimize(args: argparse.Namespace) -> int:
    from .core.optimize import monotonicity_warnings, optimize

    problem = _load_design_problem(args)
    warnings = monotonicity_warnings(problem)
    result = optimize(
        problem,
        options=_analysis_options(args),
        skeleton_cache=_open_skeleton_cache(args),
        exhaustive=args.exhaustive,
        tolerance=args.tolerance,
    )
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(f"Fault tree : {problem.tree.summary()}")
    space = problem.space_size
    budget = "unconstrained" if problem.budget is None else f"budget {problem.budget:g}"
    print(
        f"Design space: {len(problem.choices)} choices, {space} designs "
        f"({result.leaves_feasible} feasible, {budget})"
    )
    print(result.summary())
    for choice in result.best_design:
        print(f"  {choice.name} = {choice.option} (cost {choice.cost:g})")
    if result.nondeterministic:
        print(
            f"Worst-case bounds: [{result.best_lower:.6f}, {result.best_upper:.6f}]"
        )
    for table in result.module_tables:
        print(
            f"Module table {table.module}: {table.records} records over "
            f"({', '.join(table.choices)}), best unreliability "
            f"{table.best_upper:.6f} at cost {table.best_cost:g}"
        )
    if not result.exhaustive:
        print(
            f"Pruning    : {result.pruned_by_cost} by cost, "
            f"{result.pruned_by_table} by module table, "
            f"{result.pruned_by_envelope} by bound envelope "
            f"({result.bound_evaluations} bound evaluations)"
        )
    for choice in result.scheduler:
        print(
            f"Scheduler  : state {choice.state} -> {choice.successor} "
            f"(agreement {choice.agreement:.0%})"
        )
    cache = result.cache
    print(
        f"Evaluations: {cache.get('builds', 0)} skeletons built, "
        f"{cache.get('hits', 0)} cache hits; "
        f"tables {result.timings.get('tables', 0.0):.3f}s, "
        f"search {result.timings.get('search', 0.0):.3f}s, "
        f"total {result.timings.get('total', 0.0):.3f}s"
    )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def command_serve(args: argparse.Namespace) -> int:
    from .service.server import serve

    server = serve(
        args.cache_dir,
        host=args.host,
        port=args.port,
        processes=args.processes,
        options=_analysis_options(args),
        max_cache_bytes=args.max_cache_bytes,
    )
    host, port = server.server_address[:2]
    print(
        f"serving on http://{host}:{port} "
        f"(cache: {args.cache_dir}, {args.processes} worker process"
        f"{'es' if args.processes != 1 else ''})",
        flush=True,
    )
    # SIGTERM (kill, Popen.terminate, a container stop) stops the server as
    # Ctrl-C does, so the pool is shut down too.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
    return 0


def command_cache(args: argparse.Namespace) -> int:
    from .service.store import SkeletonStore

    store = SkeletonStore(args.cache_dir, max_bytes=args.max_cache_bytes)
    if args.cache_command == "stats":
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True))
        else:
            print(f"Cache      : {stats['root']}")
            print(f"Entries    : {stats['entries']}")
            print(f"Total bytes: {stats['total_bytes']}")
            cap = stats["max_bytes"]
            print(f"Byte cap   : {'unlimited' if cap is None else cap}")
            ratio = stats["compression_ratio"]
            print(
                f"Compression: {stats['compression']}, "
                f"{stats['compressed_bytes']} of {stats['payload_bytes']} "
                f"payload bytes"
                + ("" if ratio is None else f" ({ratio}x)")
            )
            print(
                f"Versions   : hash v{stats['hash_version']}, "
                f"format v{stats['format_version']}"
            )
        return 0
    if args.cache_command == "clear":
        removed = store.clear()
        print(
            f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
            f"from {args.cache_dir}"
        )
        return 0
    assert args.cache_command == "warm"
    paths = _corpus(args.trees)
    if paths is None:
        return 2
    counters = store.warm(paths, _analysis_options(args))
    print(
        f"warmed {args.cache_dir}: {counters['built']} built, "
        f"{counters['hits']} already cached, {counters['failed']} failed"
    )
    return 0 if counters["failed"] == 0 else 1


def command_baseline(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    result = DiftreeAnalyzer(tree).analyze(args.time[0])
    for module in result.modules:
        print("  " + module.summary())
    print(result.summary())
    return 0


def command_modules(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    print("Independent modules:", ", ".join(independent_modules(tree)) or "(none)")
    print("DIFTree cut:")
    for module in diftree_modules(tree):
        kind = "dynamic" if module.dynamic else "static"
        detached = f", detaches {', '.join(module.detached)}" if module.detached else ""
        print(f"  {module.root}: {kind}, {module.size} elements{detached}")
    return 0


def command_community(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    study = Study(tree, _analysis_options(args))
    for member in study.community.members:
        print(f"  [{member.kind:<20}] {member.model.summary()}")
    print(study.community.summary())
    return 0


def command_dot(args: argparse.Namespace) -> int:
    tree = _load_tree(args.tree)
    if args.final_model:
        study = Study(tree, _analysis_options(args))
        output = study.final_ioimc.to_dot()
    else:
        output = to_dot(tree)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(output)
    else:
        print(output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Compositional dynamic fault tree analysis via I/O-IMC "
        "(reproduction of Boudali, Crouzen & Stoelinga, DSN 2007).",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--ordering",
            choices=ORDERING_STRATEGIES,
            default=DEFAULTS.ordering,
            help=f"composition ordering strategy (default: {DEFAULTS.ordering}; "
            "'modular' follows the tree's independent-module decomposition, "
            "'linked' composes the smallest communicating pair, "
            "'sequential' folds in conversion order)",
        )
        sub.add_argument(
            "--aggregation",
            choices=["weak", "strong", "tau", "none"],
            default=DEFAULTS.aggregation.method,
            help="aggregation method applied after every composition "
            f"(default: {DEFAULTS.aggregation.method})",
        )
        sub.add_argument(
            "--no-fuse",
            action="store_true",
            help="disable fused maximal progress during composition "
            "(compose-then-reduce baseline)",
        )
        sub.add_argument(
            "--minimiser",
            choices=ALGORITHMS,
            default=DEFAULTS.aggregation.minimiser,
            help=f"bisimulation refinement engine (default: "
            f"{DEFAULTS.aggregation.minimiser}, the incremental signature "
            "refinement; 'signature' is the slower reference implementation "
            "— both compute identical quotients)",
        )

    def add_tolerance(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--tolerance", type=float, default=DEFAULTS.tolerance,
            help="truncation tolerance of the uniformisation series "
            f"(default: {DEFAULTS.tolerance:g})",
        )

    def add_measures(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--time",
            type=float,
            nargs="+",
            default=list(QuerySpec.times),
            help="mission time(s) at which to evaluate the unreliability (default: 1.0); "
            "all times share one vectorised transient sweep",
        )
        sub.add_argument(
            "--mttf", action="store_true", help="also report the mean time to failure"
        )
        sub.add_argument(
            "--unavailability",
            action="store_true",
            help="also report the steady-state unavailability (repairable trees)",
        )
        add_tolerance(sub)
        sub.add_argument(
            "--json",
            action="store_true",
            help="emit the structured result as JSON instead of text",
        )

    def add_skeleton_cache(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--skeleton-cache",
            metavar="DIR",
            default=None,
            help="content-addressed skeleton store directory; a hit on the "
            "tree's structural hash skips conversion, aggregation and "
            "minimisation entirely (the store is created if missing)",
        )

    analyze = subparsers.add_parser(
        "analyze", help="compute unreliability / bounds / MTTF / unavailability"
    )
    _add_tree_argument(analyze)
    add_measures(analyze)
    analyze.add_argument(
        "--bounds",
        action="store_true",
        help="report (min, max) unreliability bounds even for deterministic trees",
    )
    analyze.add_argument(
        "--importance",
        action="store_true",
        help="rank every failure-rate parameter by the analytic gradient of "
        "the (worst-case) unreliability at the mission times; trees without "
        "declared parameters get one per basic event",
    )
    add_skeleton_cache(analyze)
    add_common(analyze)
    analyze.set_defaults(handler=command_analyze)

    sweep = subparsers.add_parser(
        "sweep",
        help="sweep failure-rate parameters while aggregating only once",
    )
    _add_tree_argument(sweep)
    sweep.add_argument(
        "--param",
        action="append",
        required=True,
        metavar="NAME=SPEC",
        help="sweep axis: NAME=start:stop:count (linspace), NAME=v1,v2,... or "
        "NAME=value; NAME is a declared Galileo parameter or a basic event "
        "(which then gets a parameter attached); repeat for a grid",
    )
    add_measures(sweep)
    sweep.add_argument(
        "--bounds",
        action="store_true",
        help="report (min, max) unreliability bounds even for deterministic trees",
    )
    sweep.add_argument(
        "--processes",
        type=int,
        default=SweepSpec.processes,
        help="worker processes for the per-sample solves (default: 1, serial; "
        "rows are bit-identical to a serial run)",
    )
    sweep.add_argument(
        "--gradients",
        action="store_true",
        help="attach analytic d(measure)/d(parameter) curves to every row "
        "(the worst-case bound's gradient on non-deterministic trees)",
    )
    add_skeleton_cache(sweep)
    add_common(sweep)
    sweep.set_defaults(handler=command_sweep)

    optimize = subparsers.add_parser(
        "optimize",
        help="branch-and-bound design-space optimisation under a cost budget",
    )
    optimize.add_argument(
        "problem",
        help="built-in seeded scenario ('cas', 'cps') or path to a JSON "
        "design-problem spec {\"tree\": \"model.dft\", \"budget\": ..., "
        "\"choices\": [{\"kind\": \"spares\"|\"repair\", ...}, ...]}",
    )
    optimize.add_argument(
        "--time",
        type=float,
        default=None,
        help="mission time of the unreliability objective "
        "(default: the problem's own mission time)",
    )
    optimize.add_argument(
        "--budget",
        type=float,
        default=None,
        help="override the problem's cost budget",
    )
    optimize.add_argument(
        "--exhaustive",
        action="store_true",
        help="evaluate every feasible design instead of pruning "
        "(differential reference for the branch-and-bound)",
    )
    add_tolerance(optimize)
    optimize.add_argument(
        "--json",
        action="store_true",
        help="emit the structured result as JSON instead of text "
        "(schema repro.optimize/1)",
    )
    add_skeleton_cache(optimize)
    add_common(optimize)
    optimize.set_defaults(handler=command_optimize)

    batch = subparsers.add_parser(
        "batch", help="analyse a corpus of .dft files (globs allowed)"
    )
    batch.add_argument(
        "trees",
        nargs="+",
        help="paths or glob patterns of Galileo .dft files",
    )
    add_measures(batch)
    batch.add_argument(
        "--processes",
        type=int,
        default=1,
        help="number of worker processes (default: 1, serial)",
    )
    batch.add_argument(
        "--output-jsonl",
        metavar="FILE",
        default=None,
        help="stream one repro.batch/2 JSON record per tree to FILE instead of "
        "materialising all rows in memory",
    )
    add_common(batch)
    batch.set_defaults(handler=command_batch)

    serve = subparsers.add_parser(
        "serve",
        help="run the analysis service (HTTP + content-addressed skeleton store)",
    )
    serve.add_argument(
        "--cache-dir",
        required=True,
        metavar="DIR",
        help="skeleton store directory backing the service (created if missing)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port",
        type=int,
        default=8357,
        help="bind port (default: 8357; 0 picks a free ephemeral port)",
    )
    serve.add_argument(
        "--processes",
        type=int,
        default=0,
        help="worker processes for /analyze, /sweep and /batch evaluations, "
        "each keeping its compiled models warm (default: 0, evaluate in-process)",
    )
    serve.add_argument(
        "--max-cache-bytes",
        type=int,
        default=None,
        help="LRU byte cap of the skeleton store (default: unlimited)",
    )
    add_tolerance(serve)
    add_common(serve)
    serve.set_defaults(handler=command_serve)

    cache = subparsers.add_parser(
        "cache", help="inspect, clear or prebuild a skeleton store directory"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def add_cache_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir",
            required=True,
            metavar="DIR",
            help="skeleton store directory (created if missing)",
        )
        sub.add_argument(
            "--max-cache-bytes",
            type=int,
            default=None,
            help="LRU byte cap to enforce while touching the store",
        )

    cache_stats = cache_sub.add_parser("stats", help="show entry count, disk usage and versions")
    add_cache_dir(cache_stats)
    cache_stats.add_argument(
        "--json", action="store_true", help="emit the stats as JSON"
    )
    cache_stats.set_defaults(handler=command_cache)

    cache_clear = cache_sub.add_parser("clear", help="delete every cached entry")
    add_cache_dir(cache_clear)
    cache_clear.set_defaults(handler=command_cache)

    cache_warm = cache_sub.add_parser(
        "warm", help="prebuild entries for a corpus of .dft files (globs allowed)"
    )
    cache_warm.add_argument(
        "trees", nargs="+", help="paths or glob patterns of Galileo .dft files"
    )
    add_cache_dir(cache_warm)
    add_common(cache_warm)
    cache_warm.set_defaults(handler=command_cache)

    baseline = subparsers.add_parser("baseline", help="run the DIFTree-style modular baseline")
    _add_tree_argument(baseline)
    baseline.add_argument("--time", type=float, nargs="+", default=[1.0])
    baseline.set_defaults(handler=command_baseline)

    modules = subparsers.add_parser("modules", help="show the tree's independent modules")
    _add_tree_argument(modules)
    modules.set_defaults(handler=command_modules)

    community = subparsers.add_parser("community", help="list the generated I/O-IMC community")
    _add_tree_argument(community)
    add_common(community)
    community.set_defaults(handler=command_community)

    dot = subparsers.add_parser("dot", help="export the tree (or final model) as Graphviz dot")
    _add_tree_argument(dot)
    dot.add_argument("--output", "-o", help="write to a file instead of stdout")
    dot.add_argument(
        "--final-model",
        action="store_true",
        help="export the final aggregated I/O-IMC instead of the fault tree",
    )
    add_common(dot)
    dot.set_defaults(handler=command_dot)
    return parser


def main(argv: Optional[Iterable[str]] = None) -> int:
    """Entry point used by ``python -m repro`` and the ``repro`` console script."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
