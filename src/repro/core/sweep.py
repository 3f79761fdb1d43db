"""Rate sweeps that reuse the aggregated I/O-IMC across all samples.

Sweeping failure *rates* with the plain :class:`~repro.core.study.Study`
re-runs the whole pipeline — conversion, composition, weak-bisimulation
aggregation — once per sample, even though the aggregated model's *structure*
does not depend on the rate values: rates only relabel Markovian transitions.
This module exploits that invariance:

1. declare named rate parameters on the tree (``param`` in Galileo,
   :meth:`~repro.dft.tree.DynamicFaultTree.declare_parameter` /
   :meth:`~repro.dft.builder.FaultTreeBuilder.parameter` in code);
2. the conversion emits :class:`~repro.ioimc.rates.ParametricRate` forms, the
   aggregation carries them through (structurally keyed rate classes keep the
   quotient valid for **every** positive assignment), and the final model is
   captured as a rate-independent skeleton
   (:class:`~repro.ctmc.builders.CtmcSkeleton` /
   :class:`~repro.ctmc.builders.CtmdpSkeleton`);
3. :class:`RateSweep` evaluation does not even instantiate the generator
   per sample: a :class:`~repro.core.study.CompiledModel` (the Study's own
   for a serial run, one per pool worker) keeps the skeleton's uniformised
   CSR pattern, Poisson term cache and matvec workspaces alive, and
   :meth:`~repro.core.study.CompiledModel.evaluate_many` loads a whole batch
   of samples as the diagonal blocks of one stacked operator, so the
   uniformisation series runs once per batch with zero sparse-structure
   allocations.  Samples are embarrassingly parallel: ``run(...,
   processes=N)`` fans them out over a chunked, windowed process pool (each
   chunk one batch) and yields rows in sample order, bit-identical to a
   serial run.

The cost drops from ``O(samples x pipeline)`` to
``O(pipeline + samples x uniformisation)`` — the same amortisation the query
engine already applies to mission times — with the per-sample constant cut
to the refill + solve itself.

Helpers for trees without declared parameters:

* :func:`with_rate_parameters` attaches parameters to named basic events
  (nominal = the event's current rate), so any existing tree can be swept;
* :func:`substitute_parameters` bakes a sample into a plain tree — the naive
  full-pipeline reference path used by the differential tests and benchmarks.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from ..service.store import SkeletonStore

from ..ctmc.builders import CtmcSkeleton, CtmdpSkeleton
from ..ctmc.kernel import CsrBuffer
from ..dft.elements import BasicEvent
from ..dft.hashing import (
    canonical_assignment,
    canonical_parameter_map,
    translate_sample,
)
from ..dft.tree import DynamicFaultTree
from ..errors import AnalysisError, FaultTreeError, ReproError
from .measures import Query
from .results import SweepResult, SweepRow
from .study import (
    CompiledModel,
    QueryLike,
    Study,
    StudyOptions,
    _as_query,
    _query_wants_gradients,
    chunked_pool_map,
    resolve_workers,
)

Sample = Dict[str, float]
AxisLike = Union[float, int, Sequence[float]]


def _check_sample_value(parameter: str, value: object) -> float:
    try:
        number = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise AnalysisError(
            f"sample value for parameter {parameter!r} is not a number: {value!r}"
        ) from None
    if not (number > 0.0 and math.isfinite(number)):
        raise AnalysisError(
            f"rate-sweep samples must be positive finite rates; parameter "
            f"{parameter!r} got {number}"
        )
    return number


@dataclass(frozen=True)
class RateSweep:
    """A declarative rate sweep: parameter samples x a query of measures.

    Build one from an explicit sample list or from a grid::

        RateSweep(Unreliability([1.0]), samples=[{"lam": 0.1}, {"lam": 0.2}])
        RateSweep.grid(Unreliability([1.0]) + MTTF(), lam=np.linspace(0.1, 2, 50))

    Every sample maps *declared* parameter names to positive finite rates;
    parameters a sample leaves out keep their nominal value.
    """

    query: Query
    samples: Tuple[Sample, ...]

    def __init__(self, query: QueryLike, samples: Iterable[Mapping[str, float]]):
        object.__setattr__(self, "query", _as_query(query))
        normalised: List[Sample] = []
        for sample in samples:
            if not sample:
                raise AnalysisError("a rate-sweep sample must assign at least one parameter")
            normalised.append(
                {
                    str(parameter): _check_sample_value(parameter, value)
                    for parameter, value in sample.items()
                }
            )
        if not normalised:
            raise AnalysisError("a rate sweep needs at least one sample")
        object.__setattr__(self, "samples", tuple(normalised))

    @classmethod
    def grid(cls, query: QueryLike, **axes: AxisLike) -> "RateSweep":
        """The cartesian product of per-parameter value axes."""
        if not axes:
            raise AnalysisError("a sweep grid needs at least one parameter axis")
        names = list(axes)
        columns: List[List[float]] = []
        for name in names:
            axis = axes[name]
            if isinstance(axis, (int, float)):
                axis = (axis,)
            values = [float(value) for value in axis]
            if not values:
                raise AnalysisError(f"sweep axis {name!r} has no values")
            columns.append(values)
        samples = [
            dict(zip(names, combination))
            for combination in itertools.product(*columns)
        ]
        return cls(query, samples)

    @property
    def parameters(self) -> Tuple[str, ...]:
        """Sorted union of the parameters any sample assigns."""
        return tuple(sorted({name for sample in self.samples for name in sample}))

    def require_declared(self, tree: DynamicFaultTree) -> None:
        """Raise unless ``tree`` declares every parameter the sweep varies."""
        unknown = [name for name in self.parameters if name not in tree.parameters]
        if unknown:
            raise AnalysisError(
                "the sweep varies parameters the tree does not declare: "
                + ", ".join(sorted(unknown))
                + " (declare them with 'param <name> = <value>;' or "
                "DynamicFaultTree.declare_parameter)"
            )

    def __len__(self) -> int:
        return len(self.samples)


# ---------------------------------------------------------------------------
# per-sample evaluation (shared by the serial path and pool workers)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SweepPlan:
    """Everything a worker needs to evaluate samples, picklable and rate-free.

    One plan is built per run and shipped once per worker process (via the
    pool initializer), so per-chunk pickling moves only the sample dicts.
    """

    skeleton: Union[CtmcSkeleton, CtmdpSkeleton]
    declared: Dict[str, float]
    query: Query
    tolerance: float
    #: One uniformisation rate for the whole grid (>= every sample's natural
    #: maximal exit rate): the kernel then reuses one Poisson term table
    #: across all samples instead of rebuilding it per sample.
    shared_rate: Optional[float] = None
    #: For cached (canonically parametrised) skeletons: user parameter name
    #: -> the canonical per-event parameters it fans out to.  ``None`` means
    #: the samples already name the skeleton's own parameters.
    parameter_map: Optional[Dict[str, Tuple[str, ...]]] = None
    #: Attach per-row parametric gradients (∂measure/∂parameter via the CTMDP
    #: kernel's analytic forward pass) to every row.
    gradients: bool = False

    def assignment_of(self, sample: Mapping[str, float]) -> Dict[str, float]:
        """The skeleton-level assignment of one user sample.

        Unswept declared parameters keep their nominal value, so every
        parametric form is totally assigned.
        """
        assignment = dict(self.declared)
        if self.parameter_map is None:
            assignment.update(sample)
        else:
            assignment.update(translate_sample(sample, self.parameter_map))
        return assignment


def _evaluate_rows(
    model: CompiledModel, plan: _SweepPlan, samples: Sequence[Mapping[str, float]]
) -> List[SweepRow]:
    """The samples' rows from one batched evaluation; errors stay per row.

    A row's times are its share of its batch (a serial run or one pool
    chunk, cut at the kernel's stacked-operator cap) plus its own
    per-sample work.
    """
    evaluations = model.evaluate_many(
        plan.query,
        [plan.assignment_of(sample) for sample in samples],
        tolerance=plan.tolerance,
        on_error="record",
        rate_floor=plan.shared_rate,
        gradients=plan.gradients,
    )
    rows = []
    for sample, evaluation in zip(samples, evaluations):
        wall_seconds = evaluation.load_seconds + evaluation.solve_seconds
        if evaluation.error is not None:
            rows.append(
                SweepRow(
                    sample=dict(sample),
                    measures=(),
                    wall_seconds=wall_seconds,
                    error=str(evaluation.error),
                )
            )
            continue
        rows.append(
            SweepRow(
                sample=dict(sample),
                measures=evaluation.measures,
                wall_seconds=wall_seconds,
                instantiate_seconds=evaluation.load_seconds,
                solve_seconds=evaluation.solve_seconds,
                gradients=evaluation.gradients,
            )
        )
    return rows


def _compile(plan: _SweepPlan, model: Optional[CompiledModel] = None) -> CompiledModel:
    """The plan's compiled model (``model`` if given), its kernels built
    before any row is timed."""
    if model is None:
        model = CompiledModel(plan.skeleton)
    model.kernel
    if plan.gradients or _query_wants_gradients(plan.query):
        model.gradient_kernel
    return model


#: The pool worker's plan and compiled model (built once per process).
_WORKER_STATE: Optional[Tuple[_SweepPlan, CompiledModel]] = None


def _init_sweep_worker(plan: _SweepPlan) -> None:
    """Pool initializer: compile the plan's skeleton once per worker."""
    global _WORKER_STATE
    _WORKER_STATE = (plan, _compile(plan))


def _evaluate_sweep_chunk(samples: Sequence[Sample]) -> List[SweepRow]:
    """Worker entry point: evaluate one chunk on the process-local model."""
    assert _WORKER_STATE is not None
    plan, model = _WORKER_STATE
    return _evaluate_rows(model, plan, samples)


def _scan_shared_rate(plan: _SweepPlan, samples: Sequence[Sample]) -> Optional[float]:
    """The largest natural uniformisation rate over the whole sample grid.

    Scans every sample's maximal exit rate on one scratch CSR buffer (rate
    evaluation only — no stepping matrix is built).  Samples whose rates fail
    to evaluate are skipped here; their rows fail identically with or without
    a shared rate, so the scan never changes which rows error.  Works for
    both skeleton kinds: the buffer only reads states, edges and parameters.
    """
    buffer = CsrBuffer(plan.skeleton)
    shared: Optional[float] = None
    for sample in samples:
        try:
            rate = buffer.max_exit_rate(plan.assignment_of(sample))
        except ReproError:
            continue
        if shared is None or rate > shared:
            shared = rate
    return shared


def iter_sweep_rows(
    plan: _SweepPlan,
    samples: Sequence[Sample],
    processes: Optional[int] = None,
    chunk_size: Optional[int] = None,
    model: Optional[CompiledModel] = None,
) -> Iterator[SweepRow]:
    """Yield one row per sample, in sample order, optionally process-parallel.

    Serially the samples are one batch of :meth:`CompiledModel.evaluate_many`
    on ``model`` (a fresh compile of the plan's skeleton by default).  With
    ``processes > 1`` they run on the chunked, windowed pool of
    :func:`repro.core.study.chunked_pool_map`, like batch corpora, each chunk
    one batch.  Error rows keep their sample's position.  A row does not
    depend on the batch it shares, so parallel rows are bit-identical to
    serial ones.
    """
    workers = resolve_workers(processes, len(samples))
    if workers == 1:
        yield from _evaluate_rows(_compile(plan, model), plan, samples)
        return
    yield from chunked_pool_map(
        _evaluate_sweep_chunk,
        samples,
        workers,
        chunk_size,
        initializer=_init_sweep_worker,
        initargs=(plan,),
    )


class SweepStudy:
    """Plans a rate sweep: one pipeline run, one skeleton, N instantiations.

    With a ``skeleton_cache`` (a :class:`~repro.service.store.SkeletonStore`)
    even that one pipeline run is amortised across processes and sessions: a
    hit on the tree's structural hash loads the canonically parametrised
    skeleton from disk and the sweep's samples are translated onto the
    canonical parameters — conversion, aggregation and minimisation never
    run at all.
    """

    def __init__(
        self,
        tree: DynamicFaultTree,
        options: Optional[StudyOptions] = None,
        skeleton_cache: Optional["SkeletonStore"] = None,
    ):
        self.tree = tree
        self.study = Study(tree, options, skeleton_cache=skeleton_cache)
        self.skeleton_cache = skeleton_cache

    # ------------------------------------------------------------- skeleton
    @property
    def skeleton(self) -> Union[CtmcSkeleton, CtmdpSkeleton]:
        """The rate-independent final-model structure (see :attr:`Study.skeleton`)."""
        return self.study.skeleton

    # ------------------------------------------------------------------ run
    def run(
        self,
        sweep: RateSweep,
        processes: Optional[int] = None,
        chunk_size: Optional[int] = None,
        share_uniformisation: bool = False,
        gradients: bool = False,
    ) -> SweepResult:
        """Evaluate the sweep; sample failures become per-row errors.

        Serially all samples are evaluated in batches on the Study's own
        compiled model (kernels built once, kept across runs); with
        ``processes > 1`` they fan out over a chunked process pool (each
        worker compiles the skeleton once and evaluates each chunk as one
        batch).  Rows always come back in sample order and are
        bit-identical to a serial run.

        ``share_uniformisation=True`` scans the grid for the largest natural
        uniformisation rate and pins that one Lambda for every sample, so the
        kernel's Poisson term table is computed once for the whole grid
        instead of once per sample (the solve itself is unchanged:
        uniformisation is exact for any Lambda >= the maximal exit rate, and
        the differential tests pin agreement with per-sample rates to 1e-9).
        Rows stay bit-identical between serial and parallel runs either way.

        ``gradients=True`` attaches analytic ∂measure/∂parameter curves to
        every row (:attr:`~repro.core.results.SweepRow.gradients`), computed
        by the parametric CTMDP kernel's forward pass at the query's mission
        times — differentiating the worst-case (max) bound on
        non-deterministic models, the plain unreliability on deterministic
        ones.
        """
        sweep.require_declared(self.tree)
        skeleton = self.skeleton
        if self.skeleton_cache is not None:
            # The cached skeleton speaks canonical per-event parameters;
            # translate the user's declared parameters onto them.
            plan_declared = canonical_assignment(self.tree)
            parameter_map: Optional[Dict[str, Tuple[str, ...]]] = (
                canonical_parameter_map(self.tree)
            )
        else:
            plan_declared = dict(self.tree.parameters)
            parameter_map = None
        if gradients and self.skeleton_cache is not None:
            raise AnalysisError(
                "per-row gradients on a cached skeleton would rank the store's "
                "canonical per-event parameters, not the tree's; run the sweep "
                "without a skeleton cache to get gradients"
            )
        workers = resolve_workers(processes, len(sweep.samples))
        plan = _SweepPlan(
            skeleton=skeleton,
            declared=plan_declared,
            query=sweep.query,
            tolerance=self.study.options.tolerance,
            parameter_map=parameter_map,
            gradients=gradients,
        )
        if share_uniformisation:
            shared_rate = _scan_shared_rate(plan, sweep.samples)
            if shared_rate is not None:
                plan = replace(plan, shared_rate=shared_rate)
        samples_start = _time.perf_counter()
        rows = list(
            iter_sweep_rows(
                plan, sweep.samples, workers, chunk_size, self.study._compiled_model()
            )
        )
        samples_seconds = _time.perf_counter() - samples_start

        study_timings = self.study.timings
        skeleton_seconds = study_timings.get("markov", 0.0)
        shared = (
            study_timings.get("conversion", 0.0)
            + study_timings.get("aggregation", 0.0)
            + skeleton_seconds
            + study_timings.get("cache", 0.0)
        )
        timings = {
            "conversion": study_timings.get("conversion", 0.0),
            "aggregation": study_timings.get("aggregation", 0.0),
            "skeleton": skeleton_seconds,
            "shared": shared,
            "samples": samples_seconds,
            "instantiate": sum(row.instantiate_seconds or 0.0 for row in rows),
            "solve": sum(row.solve_seconds or 0.0 for row in rows),
            "total": shared + samples_seconds,
        }
        options = self.study.options.to_dict()
        if self.skeleton_cache is not None:
            timings["cache"] = study_timings["cache"]
            options["skeleton_cache"] = "hit" if self.study._cache_hit else "miss"
        if plan.shared_rate is not None:
            options["shared_uniformisation_rate"] = plan.shared_rate
        if gradients:
            options["gradients"] = True
        return SweepResult(
            tree_name=self.tree.name,
            parameters=sweep.parameters,
            rows=tuple(rows),
            model=self.study._model_info(),
            options=options,
            timings=timings,
            processes=workers,
        )


def sweep(
    tree: DynamicFaultTree,
    rate_sweep: RateSweep,
    options: Optional[StudyOptions] = None,
    processes: Optional[int] = None,
    chunk_size: Optional[int] = None,
    skeleton_cache: Optional["SkeletonStore"] = None,
    share_uniformisation: bool = False,
    gradients: bool = False,
) -> SweepResult:
    """Evaluate ``rate_sweep`` on ``tree`` with a fresh :class:`SweepStudy`."""
    return SweepStudy(tree, options, skeleton_cache=skeleton_cache).run(
        rate_sweep,
        processes=processes,
        chunk_size=chunk_size,
        share_uniformisation=share_uniformisation,
        gradients=gradients,
    )


# ---------------------------------------------------------------------------
# tree helpers (parametrising existing trees / the naive reference path)
# ---------------------------------------------------------------------------

def _rebuild(tree: DynamicFaultTree, name: Optional[str] = None) -> DynamicFaultTree:
    clone = DynamicFaultTree(name if name is not None else tree.name)
    return clone


def with_rate_parameters(
    tree: DynamicFaultTree,
    events: Optional[Union[Iterable[str], Mapping[str, str]]] = None,
) -> DynamicFaultTree:
    """A copy of ``tree`` whose failure rates are bound to named parameters.

    ``events`` may be an iterable of basic-event names (each gets a parameter
    named after the event), a mapping ``event -> parameter`` (events sharing a
    parameter must agree on the nominal rate), or ``None`` for *all* basic
    events.  Already-declared parameters of ``tree`` are preserved.
    """
    if events is None:
        mapping: Dict[str, str] = {
            event.name: event.name for event in tree.basic_events()
        }
    elif isinstance(events, Mapping):
        mapping = dict(events)
    else:
        mapping = {name: name for name in events}

    clone = _rebuild(tree)
    for parameter, nominal in tree.parameters.items():
        clone.declare_parameter(parameter, nominal)
    declared = clone.parameters
    for event_name, parameter in mapping.items():
        element = tree.element(event_name)
        if not isinstance(element, BasicEvent):
            raise FaultTreeError(
                f"cannot attach a rate parameter to {event_name!r}: not a basic event"
            )
        if parameter in declared:
            if declared[parameter] != element.failure_rate:
                raise FaultTreeError(
                    f"events sharing parameter {parameter!r} disagree on the "
                    f"nominal rate ({declared[parameter]} vs {element.failure_rate})"
                )
        else:
            clone.declare_parameter(parameter, element.failure_rate)
            declared[parameter] = element.failure_rate

    for name in tree.names():
        element = tree.element(name)
        if isinstance(element, BasicEvent) and name in mapping:
            element = replace(element, failure_rate_param=mapping[name])
        clone.add(element)
    clone.set_top(tree.top)
    return clone


def substitute_parameters(
    tree: DynamicFaultTree, assignment: Mapping[str, float]
) -> DynamicFaultTree:
    """A plain (parameter-free) copy of ``tree`` with sampled rates baked in.

    This is the naive full-pipeline path a sweep amortises away; the
    differential tests evaluate it per sample and compare against the sweep
    engine's rows.
    """
    declared = tree.parameters
    unknown = [name for name in assignment if name not in declared]
    if unknown:
        raise FaultTreeError(
            "cannot substitute undeclared parameters: " + ", ".join(sorted(unknown))
        )
    values = dict(declared)
    for parameter, value in assignment.items():
        values[parameter] = _check_sample_value(parameter, value)

    clone = _rebuild(tree)
    for name in tree.names():
        element = tree.element(name)
        if isinstance(element, BasicEvent) and element.is_parametric:
            failure = element.failure_rate
            repair = element.repair_rate
            if element.failure_rate_param is not None:
                failure = values[element.failure_rate_param]
            if element.repair_rate_param is not None:
                repair = values[element.repair_rate_param]
            element = replace(
                element,
                failure_rate=failure,
                repair_rate=repair,
                failure_rate_param=None,
                repair_rate_param=None,
            )
        clone.add(element)
    clone.set_top(tree.top)
    return clone
