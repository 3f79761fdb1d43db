"""Structured, JSON-serialisable analysis results.

The engine returns typed result objects instead of bare floats so callers (and
the CLI's ``--json`` mode) get values, bounds and provenance in one place:

* :class:`MeasureResult` — the evaluated values of one measure spec,
* :class:`ModelInfo` — the shape of the final aggregated model,
* :class:`StudyResult` — everything computed for one tree by one query,
* :class:`BatchRow` / :class:`BatchResult` — the corpus runner's output,
* :class:`SweepRow` / :class:`SweepResult` — the rate-sweep engine's output.

``to_dict`` produces plain JSON-safe structures; ``StudyResult.to_json`` is
what ``repro analyze --json`` prints (schema tag ``repro.study/1``).

Streaming sinks: :func:`write_batch_jsonl` emits one self-describing JSON
object per batch row (schema tag ``repro.batch/2``) followed by a final
aggregate record, so million-tree corpora never materialise all rows in
memory; :func:`read_batch_jsonl` reconstructs the equivalent
:class:`BatchResult` (``from_dict`` counterparts exist for every row-level
type, so the round-trip is loss-free at the JSON level).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import IO, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..errors import AnalysisError
from .aggregation import CompositionStatistics

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
class MeasureResult:
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

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"kind": self.kind}
        if self.error is not None:
            payload["error"] = self.error
        if self.steady_state is not None:
            payload["steady_state"] = self.steady_state
        if self.times is not None:
            payload["times"] = list(self.times)
        if self.values is not None:
            payload["values"] = list(self.values)
        if self.lower is not None:
            payload["lower"] = list(self.lower)
        if self.upper is not None:
            payload["upper"] = list(self.upper)
        if self.gradients is not None:
            payload["gradients"] = {
                name: list(curve) for name, curve in self.gradients.items()
            }
        if self.ranking is not None:
            payload["ranking"] = list(self.ranking)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "MeasureResult":
        def floats(key: str) -> Optional[Tuple[float, ...]]:
            raw = payload.get(key)
            return None if raw is None else tuple(float(v) for v in raw)  # type: ignore[union-attr]

        raw_gradients = payload.get("gradients")
        raw_ranking = payload.get("ranking")
        return cls(
            kind=str(payload["kind"]),
            times=floats("times"),
            values=floats("values"),
            lower=floats("lower"),
            upper=floats("upper"),
            steady_state=payload.get("steady_state"),  # type: ignore[arg-type]
            gradients=(
                None
                if raw_gradients is None
                else {
                    str(name): tuple(float(v) for v in curve)
                    for name, curve in raw_gradients.items()  # type: ignore[union-attr]
                }
            ),
            ranking=(
                None
                if raw_ranking is None
                else tuple(str(name) for name in raw_ranking)  # type: ignore[union-attr]
            ),
            error=payload.get("error"),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ModelInfo:
    """Shape of the final aggregated model a study evaluated its measures on."""

    kind: str  # "ctmc" or "ctmdp"
    states: int
    nondeterministic: bool
    final_ioimc_states: int
    final_ioimc_transitions: int
    community_size: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "states": self.states,
            "nondeterministic": self.nondeterministic,
            "final_ioimc_states": self.final_ioimc_states,
            "final_ioimc_transitions": self.final_ioimc_transitions,
            "community_size": self.community_size,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ModelInfo":
        return cls(
            kind=str(payload["kind"]),
            states=int(payload["states"]),  # type: ignore[arg-type]
            nondeterministic=bool(payload["nondeterministic"]),
            final_ioimc_states=int(payload["final_ioimc_states"]),  # type: ignore[arg-type]
            final_ioimc_transitions=int(payload["final_ioimc_transitions"]),  # type: ignore[arg-type]
            community_size=int(payload["community_size"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class RestoredStatistics:
    """Composition statistics read back from serialised form.

    The JSON row of a batch run records the statistics *summary* (peaks and
    final sizes, no per-step records); this stand-in replays exactly that
    payload so a round-trip through the JSONL sink is loss-free at the JSON
    level.  It offers the same read attributes the summary payload carries.
    """

    payload: Dict[str, object]

    def to_dict(self, include_steps: bool = True) -> Dict[str, object]:
        data = dict(self.payload)
        if not include_steps:
            data.pop("steps", None)
        return data

    def __getattr__(self, name: str):
        # Never resolve private/dunder probes through the payload: pickle and
        # deepcopy ask for __setstate__/__deepcopy__ before `payload` exists,
        # which would otherwise recurse through this very method.
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            return self.payload[name]
        except KeyError:
            raise AttributeError(name) from None


@dataclass(frozen=True)
class StudyResult:
    """Everything one :class:`~repro.core.study.Study` computed for one query."""

    tree_name: str
    tree_summary: str
    measures: Tuple[MeasureResult, ...]
    model: ModelInfo
    statistics: Union[CompositionStatistics, RestoredStatistics]
    options: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)

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

    def to_dict(self, include_steps: bool = True) -> Dict[str, object]:
        return {
            "schema": STUDY_SCHEMA,
            "tree": {"name": self.tree_name, "summary": self.tree_summary},
            "options": dict(self.options),
            "model": self.model.to_dict(),
            "measures": [measure.to_dict() for measure in self.measures],
            "statistics": self.statistics.to_dict(include_steps=include_steps),
            "timings": dict(self.timings),
        }

    def to_json(self, indent: Optional[int] = 2, include_steps: bool = True) -> str:
        return json.dumps(self.to_dict(include_steps=include_steps), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StudyResult":
        tree = payload.get("tree", {})
        return cls(
            tree_name=str(tree.get("name", "")),  # type: ignore[union-attr]
            tree_summary=str(tree.get("summary", "")),  # type: ignore[union-attr]
            measures=tuple(
                MeasureResult.from_dict(measure)  # type: ignore[arg-type]
                for measure in payload.get("measures", ())
            ),
            model=ModelInfo.from_dict(payload["model"]),  # type: ignore[arg-type]
            statistics=RestoredStatistics(dict(payload.get("statistics", {}))),  # type: ignore[arg-type]
            options=dict(payload.get("options", {})),  # type: ignore[arg-type]
            timings=dict(payload.get("timings", {})),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class BatchRow:
    """One tree's outcome inside a batch run (a result or an error)."""

    name: str
    source: Optional[str]
    result: Optional[StudyResult]
    error: Optional[str]
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "source": self.source,
            "ok": self.ok,
            "wall_seconds": self.wall_seconds,
        }
        if self.result is not None:
            payload["result"] = self.result.to_dict(include_steps=False)
        if self.error is not None:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BatchRow":
        result = payload.get("result")
        return cls(
            name=str(payload["name"]),
            source=payload.get("source"),  # type: ignore[arg-type]
            result=None if result is None else StudyResult.from_dict(result),  # type: ignore[arg-type]
            error=payload.get("error"),  # type: ignore[arg-type]
            wall_seconds=float(payload.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class BatchResult:
    """Per-tree rows plus aggregate timing of one corpus run.

    A result whose rows were streamed to a JSONL sink carries ``rows=()``
    but keeps the aggregate counters in ``streamed_trees`` /
    ``streamed_failed`` / ``streamed_tree_seconds``, so ``len``,
    ``num_failed`` and ``summary()`` stay truthful either way.
    """

    rows: Tuple[BatchRow, ...]
    wall_seconds: float
    processes: int
    streamed_trees: Optional[int] = None
    streamed_failed: Optional[int] = None
    streamed_tree_seconds: Optional[float] = None

    def __iter__(self) -> Iterator[BatchRow]:
        return iter(self.rows)

    def __len__(self) -> int:
        if not self.rows and self.streamed_trees is not None:
            return self.streamed_trees
        return len(self.rows)

    @property
    def num_failed(self) -> int:
        if not self.rows and self.streamed_failed is not None:
            return self.streamed_failed
        return sum(1 for row in self.rows if not row.ok)

    @property
    def num_ok(self) -> int:
        return len(self) - self.num_failed

    @property
    def tree_seconds(self) -> float:
        """Summed per-tree wall time (exceeds ``wall_seconds`` when parallel)."""
        if not self.rows and self.streamed_tree_seconds is not None:
            return self.streamed_tree_seconds
        return sum(row.wall_seconds for row in self.rows)

    def summary(self) -> str:
        count = len(self)
        mean = self.tree_seconds / count if count else 0.0
        return (
            f"{count} trees analysed ({self.num_failed} failed) in "
            f"{self.wall_seconds:.3f}s wall ({self.tree_seconds:.3f}s tree time, "
            f"{mean:.3f}s/tree, {self.processes} process"
            f"{'es' if self.processes != 1 else ''})"
        )

    def to_dict(self) -> Dict[str, object]:
        count = len(self)
        return {
            "schema": BATCH_SCHEMA,
            "rows": [row.to_dict() for row in self.rows],
            "aggregate": {
                "trees": count,
                "failed": self.num_failed,
                "wall_seconds": self.wall_seconds,
                "tree_seconds": self.tree_seconds,
                "mean_tree_seconds": (self.tree_seconds / count if count else 0.0),
                "processes": self.processes,
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# streaming JSONL batch sink (schema repro.batch/2)
# ---------------------------------------------------------------------------

def batch_row_record(row: BatchRow) -> Dict[str, object]:
    """The self-describing JSONL record of one batch row."""
    payload: Dict[str, object] = {"schema": BATCH_ROW_SCHEMA, "kind": "row"}
    payload.update(row.to_dict())
    return payload


def batch_aggregate_record(
    rows: int, failed: int, wall_seconds: float, tree_seconds: float, processes: int
) -> Dict[str, object]:
    """The trailing aggregate record of a streamed batch run."""
    return {
        "schema": BATCH_ROW_SCHEMA,
        "kind": "aggregate",
        "trees": rows,
        "failed": failed,
        "wall_seconds": wall_seconds,
        "tree_seconds": tree_seconds,
        "processes": processes,
    }


def write_batch_jsonl(
    rows: Iterable[BatchRow], handle: IO[str], processes: int = 1
) -> BatchResult:
    """Stream ``rows`` to ``handle`` as JSONL and return the aggregate result.

    Each row is written (and flushed) as soon as it arrives, so the memory
    footprint is one row, not the corpus.  The returned :class:`BatchResult`
    carries **no rows** (``rows=()``) — the rows live in the sink; use
    :func:`read_batch_jsonl` to load them back — but it keeps the aggregate
    counters, so ``num_failed`` / ``summary()`` report the streamed corpus.
    """
    import time as _time

    count = 0
    failed = 0
    tree_seconds = 0.0
    start = _time.perf_counter()
    for row in rows:
        handle.write(json.dumps(batch_row_record(row)) + "\n")
        handle.flush()
        count += 1
        if not row.ok:
            failed += 1
        tree_seconds += row.wall_seconds
    wall = _time.perf_counter() - start
    handle.write(
        json.dumps(
            batch_aggregate_record(count, failed, wall, tree_seconds, processes)
        )
        + "\n"
    )
    handle.flush()
    return BatchResult(
        rows=(),
        wall_seconds=wall,
        processes=processes,
        streamed_trees=count,
        streamed_failed=failed,
        streamed_tree_seconds=tree_seconds,
    )


def read_batch_jsonl(handle: IO[str]) -> BatchResult:
    """Reconstruct a :class:`BatchResult` from a ``repro.batch/2`` JSONL sink."""
    rows: List[BatchRow] = []
    aggregate: Optional[Dict[str, object]] = None
    for line_number, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as error:
            raise AnalysisError(
                f"line {line_number} of the batch sink is not valid JSON: {error}"
            ) from error
        schema = record.get("schema")
        if schema != BATCH_ROW_SCHEMA:
            raise AnalysisError(
                f"line {line_number} of the batch sink has schema {schema!r}; "
                f"expected {BATCH_ROW_SCHEMA!r}"
            )
        kind = record.get("kind")
        if kind == "row":
            rows.append(BatchRow.from_dict(record))
        elif kind == "aggregate":
            aggregate = record
        else:
            raise AnalysisError(
                f"line {line_number} of the batch sink has unknown kind {kind!r}"
            )
    if aggregate is None:
        # Truncated sink (e.g. the run was interrupted): reconstruct the
        # aggregate from the rows that made it to disk.
        return BatchResult(
            rows=tuple(rows),
            wall_seconds=sum(row.wall_seconds for row in rows),
            processes=1,
        )
    return BatchResult(
        rows=tuple(rows),
        wall_seconds=float(aggregate.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
        processes=int(aggregate.get("processes", 1)),  # type: ignore[arg-type]
    )


# ---------------------------------------------------------------------------
# rate-sweep results (schema repro.sweep/3)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """The measures of one parameter sample inside a rate sweep.

    ``instantiate_seconds`` / ``solve_seconds`` split the row's wall time
    into rate instantiation (CSR refill, plus a full CTMC build when a
    measure needs it) and the uniformisation solve — the per-sample numbers
    the shared-structure kernel optimises.  Samples are solved in batches (a
    serial run or one pool chunk, capped by the kernel's stacked-operator
    memory, :data:`repro.ctmc.kernel.BATCH_OPERATOR_BYTES`), so all three
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

    @property
    def ok(self) -> bool:
        return self.error is None

    def __getitem__(self, kind: str) -> MeasureResult:
        for measure in self.measures:
            if measure.kind == kind:
                return measure
        raise KeyError(kind)

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "sample": dict(self.sample),
            "ok": self.ok,
            "wall_seconds": self.wall_seconds,
        }
        if self.instantiate_seconds is not None:
            payload["instantiate_seconds"] = self.instantiate_seconds
        if self.solve_seconds is not None:
            payload["solve_seconds"] = self.solve_seconds
        if self.measures:
            payload["measures"] = [measure.to_dict() for measure in self.measures]
        if self.gradients is not None:
            payload["gradients"] = {
                name: list(curve) for name, curve in self.gradients.items()
            }
        if self.error is not None:
            payload["error"] = self.error
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepRow":
        def seconds(key: str) -> Optional[float]:
            raw = payload.get(key)
            return None if raw is None else float(raw)  # type: ignore[arg-type]

        raw_gradients = payload.get("gradients")
        return cls(
            sample={str(k): float(v) for k, v in payload.get("sample", {}).items()},  # type: ignore[union-attr]
            measures=tuple(
                MeasureResult.from_dict(measure)  # type: ignore[arg-type]
                for measure in payload.get("measures", ())
            ),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),  # type: ignore[arg-type]
            error=payload.get("error"),  # type: ignore[arg-type]
            instantiate_seconds=seconds("instantiate_seconds"),
            solve_seconds=seconds("solve_seconds"),
            gradients=(
                None
                if raw_gradients is None
                else {
                    str(name): tuple(float(v) for v in curve)
                    for name, curve in raw_gradients.items()  # type: ignore[union-attr]
                }
            ),
        )


@dataclass(frozen=True)
class SweepResult:
    """Everything one rate sweep computed: shared pipeline work + all samples."""

    tree_name: str
    parameters: Tuple[str, ...]
    rows: Tuple[SweepRow, ...]
    model: ModelInfo
    options: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    #: Worker processes the samples ran on (1 = serial).
    processes: int = 1

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

    def values(self, kind: str) -> List[Tuple[Dict[str, float], MeasureResult]]:
        """(sample, measure) pairs of one measure kind over all ok rows."""
        return [(row.sample, row[kind]) for row in self.rows if row.ok]

    def summary(self) -> str:
        shared = self.timings.get("shared", 0.0)
        samples = self.timings.get("samples", 0.0)
        return (
            f"{len(self.rows)} samples over {', '.join(self.parameters)} "
            f"({self.num_failed} failed); shared pipeline {shared:.3f}s, "
            f"all samples {samples:.3f}s, {self.processes} process"
            f"{'es' if self.processes != 1 else ''}"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": SWEEP_SCHEMA,
            "tree": self.tree_name,
            "parameters": list(self.parameters),
            "options": dict(self.options),
            "model": self.model.to_dict(),
            "rows": [row.to_dict() for row in self.rows],
            "aggregate": {
                "samples": len(self.rows),
                "failed": self.num_failed,
                "processes": self.processes,
            },
            "timings": dict(self.timings),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


# ---------------------------------------------------------------------------
# design-space optimisation results (repro.optimize/1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeChoice:
    """One design choice's selected option in the winning design."""

    name: str
    option_index: int
    option: str
    cost: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "option_index": self.option_index,
            "option": self.option,
            "cost": self.cost,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "OptimizeChoice":
        return cls(
            name=str(payload["name"]),
            option_index=int(payload["option_index"]),  # type: ignore[arg-type]
            option=str(payload["option"]),
            cost=float(payload["cost"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class ModuleTableInfo:
    """Summary of one Russian-doll module table (innermost-first records)."""

    module: str
    choices: Tuple[str, ...]
    records: int
    best_lower: float
    best_upper: float
    best_cost: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "choices": list(self.choices),
            "records": self.records,
            "best_lower": self.best_lower,
            "best_upper": self.best_upper,
            "best_cost": self.best_cost,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ModuleTableInfo":
        return cls(
            module=str(payload["module"]),
            choices=tuple(str(name) for name in payload["choices"]),  # type: ignore[union-attr]
            records=int(payload["records"]),  # type: ignore[arg-type]
            best_lower=float(payload["best_lower"]),  # type: ignore[arg-type]
            best_upper=float(payload["best_upper"]),  # type: ignore[arg-type]
            best_cost=float(payload["best_cost"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class SchedulerChoice:
    """One contested CTMDP state's argbest pick in a reported bound.

    ``agreement`` is the fraction of backward-sweep steps whose argbest
    matched the reported (deepest-iterate) ``successor``; 1.0 means the
    scheduler is time-abstract for this state.
    """

    state: int
    successor: int
    agreement: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "successor": self.successor,
            "agreement": self.agreement,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SchedulerChoice":
        return cls(
            state=int(payload["state"]),  # type: ignore[arg-type]
            successor=int(payload["successor"]),  # type: ignore[arg-type]
            agreement=float(payload["agreement"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class OptimizeResult:
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

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": OPTIMIZE_SCHEMA,
            "tree": self.tree_name,
            "mission_time": self.mission_time,
            "budget": self.budget,
            "exhaustive": self.exhaustive,
            "best": {
                "design": [choice.to_dict() for choice in self.best_design],
                "value": self.best_value,
                "lower": self.best_lower,
                "upper": self.best_upper,
                "cost": self.best_cost,
                "nondeterministic": self.nondeterministic,
            },
            "search": {
                "leaves_feasible": self.leaves_feasible,
                "leaves_evaluated": self.leaves_evaluated,
                "bound_evaluations": self.bound_evaluations,
                "pruned_by_cost": self.pruned_by_cost,
                "pruned_by_table": self.pruned_by_table,
                "pruned_by_envelope": self.pruned_by_envelope,
                "pruning_ratio": self.pruning_ratio,
            },
            "module_tables": [table.to_dict() for table in self.module_tables],
            "scheduler": [choice.to_dict() for choice in self.scheduler],
            "pruning_scheduler": [
                choice.to_dict() for choice in self.pruning_scheduler
            ],
            "warnings": list(self.warnings),
            "cache": dict(self.cache),
            "timings": dict(self.timings),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "OptimizeResult":
        schema = payload.get("schema")
        if schema != OPTIMIZE_SCHEMA:
            raise AnalysisError(
                f"unsupported optimize schema {schema!r}; "
                f"expected {OPTIMIZE_SCHEMA!r}"
            )
        best = payload["best"]
        search = payload["search"]
        raw_budget = payload.get("budget")
        raw_feasible = search.get("leaves_feasible")  # type: ignore[union-attr]
        return cls(
            tree_name=str(payload["tree"]),
            mission_time=float(payload["mission_time"]),  # type: ignore[arg-type]
            budget=None if raw_budget is None else float(raw_budget),  # type: ignore[arg-type]
            exhaustive=bool(payload["exhaustive"]),
            best_design=tuple(
                OptimizeChoice.from_dict(entry) for entry in best["design"]  # type: ignore[index]
            ),
            best_value=float(best["value"]),  # type: ignore[index]
            best_lower=float(best["lower"]),  # type: ignore[index]
            best_upper=float(best["upper"]),  # type: ignore[index]
            best_cost=float(best["cost"]),  # type: ignore[index]
            nondeterministic=bool(best["nondeterministic"]),  # type: ignore[index]
            leaves_feasible=None if raw_feasible is None else int(raw_feasible),
            leaves_evaluated=int(search["leaves_evaluated"]),  # type: ignore[index]
            bound_evaluations=int(search["bound_evaluations"]),  # type: ignore[index]
            pruned_by_cost=int(search["pruned_by_cost"]),  # type: ignore[index]
            pruned_by_table=int(search["pruned_by_table"]),  # type: ignore[index]
            pruned_by_envelope=int(search["pruned_by_envelope"]),  # type: ignore[index]
            module_tables=tuple(
                ModuleTableInfo.from_dict(entry)
                for entry in payload.get("module_tables", [])  # type: ignore[union-attr]
            ),
            scheduler=tuple(
                SchedulerChoice.from_dict(entry)
                for entry in payload.get("scheduler", [])  # type: ignore[union-attr]
            ),
            pruning_scheduler=tuple(
                SchedulerChoice.from_dict(entry)
                for entry in payload.get("pruning_scheduler", [])  # type: ignore[union-attr]
            ),
            warnings=tuple(str(entry) for entry in payload.get("warnings", [])),  # type: ignore[union-attr]
            cache={
                str(key): int(value)  # type: ignore[arg-type]
                for key, value in payload.get("cache", {}).items()  # type: ignore[union-attr]
            },
            timings={
                str(key): float(value)  # type: ignore[arg-type]
                for key, value in payload.get("timings", {}).items()  # type: ignore[union-attr]
            },
        )
