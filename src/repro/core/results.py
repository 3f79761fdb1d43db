"""Structured, JSON-serialisable analysis results.

The engine returns typed records instead of bare floats, so callers (and
the CLI's ``--json`` mode) get values, bounds and provenance in one place:
:class:`MeasureResult` and :class:`ModelInfo` inside a :class:`StudyResult`
(schema ``repro.study/1``), :class:`BatchRow` / :class:`BatchResult`
(``repro.batch/1``), :class:`SweepRow` / :class:`SweepResult`
(``repro.sweep/3``) and :class:`OptimizeResult` (``repro.optimize/1``).

Each record declares its wire shape once, as the ``WIRE`` layout beside
its fields, and :mod:`repro.core.wire` derives ``to_dict``, ``to_json``
and ``from_dict`` from it: key order, nested groups, derived keys (``ok``,
the aggregates, ``pruning_ratio``) and keys left out while empty.
``from_dict`` of a ``to_dict`` gives an equal record back, and a malformed
payload is an :class:`~repro.errors.AnalysisError` naming the field.

:func:`write_batch_jsonl` streams one ``repro.batch/2`` record per row
(``kind`` ``row``) and a closing :class:`BatchAggregate` (``kind``
``aggregate``), so million-tree corpora never sit in memory;
:func:`read_batch_jsonl` reads the sink back into a :class:`BatchResult`.
"""

from __future__ import annotations

import json
import time as _time
from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import AnalysisError
from .aggregation import CompositionStatistics, StatisticsSummary
from .wire import Derived, Group, Key, Layout, Record, Tag, encode

STUDY_SCHEMA = "repro.study/1"
BATCH_SCHEMA = "repro.batch/1"
#: Per-row schema of the streaming JSONL batch sink.
BATCH_ROW_SCHEMA = "repro.batch/2"
#: ``repro.sweep/2`` adds the shared-structure kernel's per-row
#: instantiate/solve timing split and the worker-process metadata of
#: parallel sweeps; ``repro.sweep/3`` adds the optional per-row parametric
#: ``gradients`` payload (∂measure/∂parameter curves) of gradient-enabled
#: sweeps; rows without gradients are unchanged from ``repro.sweep/2``.
SWEEP_SCHEMA = "repro.sweep/3"
#: Design-space optimisation report of :func:`repro.core.optimize.optimize`:
#: the winning design, its unreliability bounds, Russian-doll module tables,
#: pruning statistics and (for CTMDP designs) the extracted argbest scheduler.
OPTIMIZE_SCHEMA = "repro.optimize/1"


@dataclass(frozen=True)
class MeasureResult(Record):
    """The evaluated value(s) of one measure.

    Timed measures carry parallel ``times``/``values`` tuples (and, for bound
    measures, ``lower``/``upper`` envelopes); time-less measures (MTTF,
    steady-state unavailability) carry a single entry in ``values``.
    """

    kind: str
    times: Optional[Tuple[float, ...]] = None
    values: Optional[Tuple[float, ...]] = None
    lower: Optional[Tuple[float, ...]] = None
    upper: Optional[Tuple[float, ...]] = None
    steady_state: Optional[bool] = None
    #: Parameter name -> gradient curve (∂value/∂parameter at each time),
    #: carried by importance-ranking measures.
    gradients: Optional[Dict[str, Tuple[float, ...]]] = None
    #: Parameters ordered by decreasing |gradient| at the last mission time.
    ranking: Optional[Tuple[str, ...]] = None
    #: Set instead of values when the engine ran with ``on_error="record"``
    #: and this measure could not be evaluated (the others still were).
    error: Optional[str] = None

    WIRE = Layout("measure", "kind", *(Key(name, omit=None) for name in (
        "error", "steady_state", "times", "values", "lower", "upper", "gradients", "ranking"
    )))

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def value(self) -> float:
        """The single scalar value (errors if the measure is a curve)."""
        if self.error is not None:
            raise AnalysisError(f"measure {self.kind!r} failed: {self.error}")
        if self.values is None or len(self.values) != 1:
            raise AnalysisError(
                f"measure {self.kind!r} holds {0 if self.values is None else len(self.values)} "
                "values; use .values / .lower / .upper for curves"
            )
        return self.values[0]

    @property
    def bounds(self) -> Tuple[float, float]:
        """The single (lower, upper) pair (errors if the measure is a curve)."""
        if self.error is not None:
            raise AnalysisError(f"measure {self.kind!r} failed: {self.error}")
        if self.lower is None or self.upper is None or len(self.lower) != 1:
            raise AnalysisError(f"measure {self.kind!r} does not hold a single bound pair")
        return self.lower[0], self.upper[0]


@dataclass(frozen=True)
class ModelInfo(Record):
    """Shape of the final aggregated model a study evaluated its measures on."""

    kind: str  # "ctmc" or "ctmdp"
    states: int
    nondeterministic: bool
    final_ioimc_states: int
    final_ioimc_transitions: int
    community_size: int

    WIRE = Layout("model")


@dataclass(frozen=True)
class StudyResult(Record):
    """Everything one :class:`~repro.core.study.Study` computed for one query.

    ``statistics`` is the run's :class:`CompositionStatistics`, or its
    :class:`StatisticsSummary` when the structure came from a skeleton store
    or from a brief payload.
    """

    tree_name: str
    tree_summary: str
    measures: Tuple[MeasureResult, ...]
    model: ModelInfo
    statistics: Union[CompositionStatistics, StatisticsSummary]
    options: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    WIRE = Layout(
        "study result", Tag("schema", STUDY_SCHEMA),
        Group("tree", Key("name", "tree_name"), Key("summary", "tree_summary")),
        "options", "model", "measures", "statistics", "timings",
    )

    def __iter__(self) -> Iterator[MeasureResult]:
        return iter(self.measures)

    def __getitem__(self, kind: str) -> MeasureResult:
        """The first measure result of the given kind."""
        for measure in self.measures:
            if measure.kind == kind:
                return measure
        raise KeyError(kind)

    def __contains__(self, kind: str) -> bool:
        return any(measure.kind == kind for measure in self.measures)


@dataclass(frozen=True)
class BatchRow(Record):
    """One tree's outcome inside a batch run (a result or an error).

    A row's result is always written brief (no per-step records).
    """

    name: str
    source: Optional[str]
    result: Optional[StudyResult]
    error: Optional[str]
    wall_seconds: float

    WIRE = Layout(
        "batch row", "name", "source", Derived("ok"), "wall_seconds",
        Key("result", omit=None, brief=True), Key("error", omit=None),
    )

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BatchAggregate(Record):
    """The trailing record of a streamed batch run."""

    trees: int
    failed: int
    wall_seconds: float
    tree_seconds: float
    processes: int

    WIRE = Layout("batch aggregate")


@dataclass(frozen=True)
class BatchResult(Record):
    """Per-tree rows plus aggregate timing of one corpus run.

    A result whose rows were streamed to a JSONL sink carries ``rows=()``
    and the sink's aggregate record in ``streamed``, so ``len``,
    ``num_failed`` and ``summary()`` stay truthful either way.
    """

    rows: Tuple[BatchRow, ...]
    wall_seconds: float
    processes: int
    streamed: Optional[BatchAggregate] = None

    WIRE = Layout(
        "batch result", Tag("schema", BATCH_SCHEMA), "rows",
        Group("aggregate", Derived("trees", len), Derived("failed", "num_failed"), "wall_seconds",
              Derived("tree_seconds"), Derived("mean_tree_seconds"), "processes"),
    )

    def __iter__(self) -> Iterator[BatchRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows) if self.streamed is None else self.streamed.trees

    @property
    def num_failed(self) -> int:
        if self.streamed is not None:
            return self.streamed.failed
        return sum(1 for row in self.rows if not row.ok)

    @property
    def num_ok(self) -> int:
        return len(self) - self.num_failed

    @property
    def tree_seconds(self) -> float:
        """Summed per-tree wall time (exceeds ``wall_seconds`` when parallel)."""
        if self.streamed is not None:
            return self.streamed.tree_seconds
        return sum(row.wall_seconds for row in self.rows)

    @property
    def mean_tree_seconds(self) -> float:
        count = len(self)
        return self.tree_seconds / count if count else 0.0

    def summary(self) -> str:
        return (
            f"{len(self)} trees analysed ({self.num_failed} failed) in "
            f"{self.wall_seconds:.3f}s wall ({self.tree_seconds:.3f}s tree time, "
            f"{self.mean_tree_seconds:.3f}s/tree, {self.processes} process"
            f"{'es' if self.processes != 1 else ''})"
        )


# ---------------------------------------------------------------------------
# streaming JSONL batch sink (schema repro.batch/2)
# ---------------------------------------------------------------------------

#: The record types of the sink, by their ``kind`` tag.
_SINK_KINDS = {"row": BatchRow, "aggregate": BatchAggregate}


def _sink_line(kind: str, record: Record) -> str:
    return json.dumps({"schema": BATCH_ROW_SCHEMA, "kind": kind, **encode(record)}) + "\n"


def write_batch_jsonl(
    rows: Iterable[BatchRow], handle: IO[str], processes: int = 1
) -> BatchResult:
    """Stream ``rows`` to ``handle`` as JSONL and return the aggregate result.

    Each row is written (and flushed) as soon as it arrives, so the memory
    footprint is one row, not the corpus.  The returned :class:`BatchResult`
    carries **no rows** (``rows=()``) — the rows live in the sink; use
    :func:`read_batch_jsonl` to load them back — but it keeps the sink's
    aggregate, so ``num_failed`` / ``summary()`` report the streamed corpus.
    """
    count = 0
    failed = 0
    tree_seconds = 0.0
    start = _time.perf_counter()
    for row in rows:
        handle.write(_sink_line("row", row))
        handle.flush()
        count += 1
        if not row.ok:
            failed += 1
        tree_seconds += row.wall_seconds
    wall = _time.perf_counter() - start
    aggregate = BatchAggregate(count, failed, wall, tree_seconds, processes)
    handle.write(_sink_line("aggregate", aggregate))
    handle.flush()
    return BatchResult(rows=(), wall_seconds=wall, processes=processes, streamed=aggregate)


def read_batch_jsonl(handle: IO[str]) -> BatchResult:
    """Reconstruct a :class:`BatchResult` from a ``repro.batch/2`` JSONL sink.

    A malformed line is an :class:`AnalysisError` naming its line number.
    """
    rows: List[BatchRow] = []
    aggregate: Optional[BatchAggregate] = None
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"line {line_number} of the batch sink"
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise AnalysisError(f"{where} is not valid JSON: {error}") from error
        if not isinstance(record, dict):
            raise AnalysisError(f"{where} is not a JSON object")
        schema = record.get("schema")
        if schema != BATCH_ROW_SCHEMA:
            raise AnalysisError(
                f"{where} has schema {schema!r}; expected {BATCH_ROW_SCHEMA!r}"
            )
        kind = record.get("kind")
        if not isinstance(kind, str) or kind not in _SINK_KINDS:
            raise AnalysisError(f"{where} has unknown kind {kind!r}")
        try:
            decoded = _SINK_KINDS[kind].from_dict(record)
        except AnalysisError as error:
            raise AnalysisError(f"{where}: {error}") from error
        if kind == "row":
            rows.append(decoded)
        else:
            aggregate = decoded
    if aggregate is None:
        # Truncated sink (e.g. the run was interrupted): reconstruct the
        # aggregate from the rows that made it to disk.
        return BatchResult(
            rows=tuple(rows),
            wall_seconds=sum(row.wall_seconds for row in rows),
            processes=1,
        )
    return BatchResult(
        rows=tuple(rows), wall_seconds=aggregate.wall_seconds, processes=aggregate.processes
    )


# ---------------------------------------------------------------------------
# rate-sweep results (schema repro.sweep/3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow(Record):
    """The measures of one parameter sample inside a rate sweep.

    ``instantiate_seconds`` / ``solve_seconds`` split the row's wall time
    into rate instantiation (the CSR refill) and the solve (the
    uniformisation series plus any MTTF or steady-state solve) — the
    per-sample numbers the shared-structure kernel optimises.  Samples are
    solved in batches (a serial run or one pool chunk, capped by the
    kernel's stacked-operator memory,
    :data:`repro.ctmc.kernel.BATCH_OPERATOR_BYTES`), so all three
    times are the row's equal share of its batch's refill and solve plus its
    own per-sample work; the measures are bit-identical whatever the batch.
    """

    sample: Dict[str, float]
    measures: Tuple[MeasureResult, ...]
    wall_seconds: float
    error: Optional[str] = None
    instantiate_seconds: Optional[float] = None
    solve_seconds: Optional[float] = None
    #: Parameter name -> gradient curve (∂measure/∂parameter at the query's
    #: mission times), present only on gradient-enabled sweeps.
    gradients: Optional[Dict[str, Tuple[float, ...]]] = None

    WIRE = Layout(
        "sweep row", "sample", Derived("ok"), "wall_seconds",
        Key("instantiate_seconds", omit=None), Key("solve_seconds", omit=None),
        Key("measures", omit=()), Key("gradients", omit=None), Key("error", omit=None),
    )

    @property
    def ok(self) -> bool:
        return self.error is None

    __getitem__ = StudyResult.__getitem__


@dataclass(frozen=True)
class SweepResult(Record):
    """Everything one rate sweep computed: shared pipeline work + all samples."""

    tree_name: str
    parameters: Tuple[str, ...]
    rows: Tuple[SweepRow, ...]
    model: ModelInfo
    options: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    #: Worker processes the samples ran on (1 = serial).
    processes: int = 1

    WIRE = Layout(
        "sweep result", Tag("schema", SWEEP_SCHEMA), Key("tree", "tree_name"),
        "parameters", "options", "model", "rows",
        Group("aggregate", Derived("samples", len), Derived("failed", "num_failed"), "processes"),
        "timings",
    )

    def __iter__(self) -> Iterator[SweepRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def num_ok(self) -> int:
        return sum(1 for row in self.rows if row.ok)

    @property
    def num_failed(self) -> int:
        return len(self.rows) - self.num_ok

    def summary(self) -> str:
        shared = self.timings.get("shared", 0.0)
        samples = self.timings.get("samples", 0.0)
        return (
            f"{len(self.rows)} samples over {', '.join(self.parameters)} "
            f"({self.num_failed} failed); shared pipeline {shared:.3f}s, "
            f"all samples {samples:.3f}s, {self.processes} process"
            f"{'es' if self.processes != 1 else ''}"
        )


# ---------------------------------------------------------------------------
# design-space optimisation results (repro.optimize/1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeChoice(Record):
    """One design choice's selected option in the winning design."""

    name: str
    option_index: int
    option: str
    cost: float

    WIRE = Layout("design choice")


@dataclass(frozen=True)
class ModuleTableInfo(Record):
    """Summary of one Russian-doll module table (innermost-first records)."""

    module: str
    choices: Tuple[str, ...]
    records: int
    best_lower: float
    best_upper: float
    best_cost: float

    WIRE = Layout("module table")


@dataclass(frozen=True)
class SchedulerChoice(Record):
    """One contested CTMDP state's argbest pick in a reported bound.

    ``agreement`` is the fraction of backward-sweep steps whose argbest
    matched the reported (deepest-iterate) ``successor``; 1.0 means the
    scheduler is time-abstract for this state.
    """

    state: int
    successor: int
    agreement: float

    WIRE = Layout("scheduler choice")


@dataclass(frozen=True)
class OptimizeResult(Record):
    """Everything one design-space optimisation computed."""

    tree_name: str
    mission_time: float
    budget: Optional[float]
    exhaustive: bool
    best_design: Tuple[OptimizeChoice, ...]
    #: The objective of the winner: its worst-case unreliability at the
    #: mission time (== ``best_upper``; equals ``best_lower`` for CTMCs).
    best_value: float
    best_lower: float
    best_upper: float
    best_cost: float
    nondeterministic: bool
    #: Exact within-budget assignment count (None when the raw space is too
    #: large to count), the denominator of :attr:`pruning_ratio`.
    leaves_feasible: Optional[int]
    leaves_evaluated: int
    bound_evaluations: int
    pruned_by_cost: int
    pruned_by_table: int
    pruned_by_envelope: int
    module_tables: Tuple[ModuleTableInfo, ...] = ()
    #: Argbest scheduler of the winner's worst-case bound (CTMDP winners).
    scheduler: Tuple[SchedulerChoice, ...] = ()
    #: Argbest scheduler of the root pruning bound (the all-optimistic
    #: completion's lower envelope), when that completion is a CTMDP.
    pruning_scheduler: Tuple[SchedulerChoice, ...] = ()
    warnings: Tuple[str, ...] = ()
    cache: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

    WIRE = Layout(
        "optimize result", Tag("schema", OPTIMIZE_SCHEMA), Key("tree", "tree_name"),
        "mission_time", "budget", "exhaustive",
        Group("best", *(Key(name, "best_" + name)
                        for name in ("design", "value", "lower", "upper", "cost")),
              "nondeterministic"),
        Group("search", "leaves_feasible", "leaves_evaluated", "bound_evaluations",
              "pruned_by_cost", "pruned_by_table", "pruned_by_envelope",
              Derived("pruning_ratio")),
        "module_tables", "scheduler", "pruning_scheduler", "warnings", "cache", "timings",
    )

    @property
    def pruning_ratio(self) -> Optional[float]:
        """Evaluated leaves / feasible leaves (None if the count is unknown)."""
        if not self.leaves_feasible:
            return None
        return self.leaves_evaluated / self.leaves_feasible

    def summary(self) -> str:
        design = ", ".join(
            f"{choice.name}={choice.option}" for choice in self.best_design
        )
        ratio = self.pruning_ratio
        pruning = (
            "exhaustive"
            if self.exhaustive
            else f"{self.leaves_evaluated}/{self.leaves_feasible} leaves"
            + (f" ({ratio:.0%})" if ratio is not None else "")
        )
        return (
            f"best design [{design}] cost {self.best_cost:g}: "
            f"unreliability(t={self.mission_time:g}) = {self.best_value:.6f}; "
            f"{pruning}"
        )
