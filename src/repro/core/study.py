"""The query engine: plan and evaluate measure queries on fault trees.

A :class:`Study` owns the pipeline for one tree —

    DFT  ->  I/O-IMC community  ->  compositional aggregation  ->  CTMC/CTMDP

— caches every intermediate artefact, and evaluates a declarative
:class:`~repro.core.measures.Query` on the final model's rate-independent
skeleton through one :class:`CompiledModel`, whether the skeleton comes from
the Study's own pipeline or from a skeleton store.  The engine plans shared
work across the query's measures:

* one conversion and one aggregation per tree, whatever the query asks for;
* one **vectorised uniformisation sweep** over the union of all requested
  mission times (the matvec series ``pi(0) * P^k`` is shared, only the
  per-time Poisson weights differ — see
  :class:`repro.ctmc.kernel.TransientKernel`);
* for non-deterministic models, one backward value-iteration sweep per bound
  direction over all bound times, with a shared Poisson term cache.

:class:`BatchStudy` lifts the engine over a corpus of trees (Galileo files or
in-memory trees) with optional process-parallelism; the CLI's ``batch``
subcommand is a thin shell around it.
"""

from __future__ import annotations

import time as _time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    TextIO,
    Tuple,
    Union,
)

import numpy as np

from ..ctmc import CTMC, CTMDP
from ..ctmc.builders import (
    CtmcSkeleton,
    CtmdpSkeleton,
    ctmc_skeleton_from_ioimc,
    ctmdp_skeleton_from_ioimc,
)
from ..ctmc.kernel import CsrBuffer, CtmdpKernel, TransientKernel
from ..dft.hashing import canonical_assignment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (service imports us)
    from ..service.store import SkeletonStore
from ..dft import galileo
from ..dft.tree import DynamicFaultTree
from ..errors import AnalysisError, NondeterminismError, ReproError
from ..ioimc.model import IOIMC
from ..ioimc.reduction import AggregationOptions
from . import signals
from .aggregation import (
    CompositionStatistics,
    CompositionalAggregationOptions,
    CompositionalAggregator,
)
from .conversion import Community, ConversionOptions, DftToIoimcConverter
from .measures import (
    MTTF,
    ImportanceRanking,
    Measure,
    Query,
    Unavailability,
    Unreliability,
    UnreliabilityBounds,
)
from .results import (
    BatchResult,
    BatchRow,
    MeasureResult,
    ModelInfo,
    RestoredStatistics,
    StudyResult,
    write_batch_jsonl,
)

QueryLike = Union[Query, Measure, Sequence[Measure]]


@dataclass
class StudyOptions:
    """Options of the full compositional analysis pipeline."""

    conversion: ConversionOptions = field(default_factory=ConversionOptions)
    aggregation: AggregationOptions = field(default_factory=AggregationOptions)
    ordering: str = "linked"
    #: Fuse maximal progress into composition (see the aggregation engine).
    fuse: bool = True
    #: Truncation tolerance of the uniformisation series.
    tolerance: float = 1e-12
    #: Worker processes for collapsing independent module groups of the
    #: ``modular`` plan in parallel (1 = serial; flat orderings ignore it).
    aggregation_processes: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.tolerance < 1.0:
            raise AnalysisError(
                f"the truncation tolerance must be in (0, 1), got {self.tolerance}"
            )
        if int(self.aggregation_processes) < 1:
            raise AnalysisError(
                f"aggregation_processes must be >= 1, got {self.aggregation_processes}"
            )

    def composition_options(self) -> CompositionalAggregationOptions:
        return CompositionalAggregationOptions(
            ordering=self.ordering,
            aggregation=self.aggregation,
            fuse=self.fuse,
            processes=self.aggregation_processes,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "ordering": self.ordering,
            "aggregation": self.aggregation.method,
            "minimiser": self.aggregation.minimiser,
            "fuse": self.fuse,
            "tolerance": self.tolerance,
            "aggregation_processes": self.aggregation_processes,
        }


def _as_query(query: QueryLike) -> Query:
    return query if isinstance(query, Query) else Query(query)


# ---------------------------------------------------------------------------
# model-level evaluation (shared by Study and the rate-sweep engine)
# ---------------------------------------------------------------------------

def _query_bound_times(query: Query) -> Tuple[float, ...]:
    """Sorted union of the mission times of every bound measure in ``query``."""
    return tuple(
        sorted(
            {
                time
                for measure in query
                if isinstance(measure, UnreliabilityBounds)
                for time in measure.times  # type: ignore[union-attr]
            }
        )
    )


def _curves(
    solver: Union[CTMC, CTMDP, TransientKernel, CtmdpKernel],
    query: Query,
    tolerance: float,
    blocks: int = 1,
) -> List[Tuple[Dict[float, float], Dict[float, Tuple[float, float]]]]:
    """Point values and bound curves at the union of all requested times.

    ``solver`` is a concrete model or a kernel with ``blocks`` loaded
    samples (both expose the same curve methods); the result holds one
    ``(point values, bound curves)`` pair per sample.  A deterministic
    solver runs one transient sweep, and its bounds coincide with the point
    values; a non-deterministic one runs one bound-sweep pair and has no
    point values.
    """
    if isinstance(solver, (CTMDP, CtmdpKernel)):
        times = _query_bound_times(query)
        if not times:
            return [({}, {}) for _block in range(blocks)]
        lower, upper = solver.reachability_bounds_curve(
            signals.FAILED_LABEL, times, tolerance=tolerance
        )
        return [
            ({}, {time: bounds for time, bounds in zip(times, zip(lows, highs))})
            for lows, highs in zip(
                np.atleast_2d(lower).tolist(), np.atleast_2d(upper).tolist()
            )
        ]
    times = query.transient_times()
    if not times:
        return [({}, {}) for _block in range(blocks)]
    curves = solver.probability_of_label_curve(
        signals.FAILED_LABEL, times, tolerance=tolerance
    )
    return [
        (
            dict(zip(times, values)),
            {time: (value, value) for time, value in zip(times, values)},
        )
        for values in np.atleast_2d(curves).tolist()
    ]


#: Per-direction gradient payload of the parametric CTMDP kernel:
#: direction ("max"/"min") -> (bound curve by time, parameter -> gradient by
#: time).  Assembled by :func:`gradient_values_from_kernel`, consumed by the
#: importance-ranking branch of :func:`_evaluate_measure`.
GradientValues = Dict[
    str, Tuple[Dict[float, float], Dict[str, Dict[float, float]]]
]


def gradient_values_from_kernel(
    kernel: CtmdpKernel, query: Query, tolerance: float
) -> Optional[GradientValues]:
    """Run one gradient sweep per direction the query's rankings need.

    The kernel must already hold a loaded sample.  Returns ``None`` when the
    query contains no :class:`~repro.core.measures.ImportanceRanking`.
    """
    needed: Dict[str, set] = {}
    for measure in query:
        if isinstance(measure, ImportanceRanking):
            needed.setdefault(measure.direction, set()).update(measure.times)  # type: ignore[arg-type]
    if not needed:
        return None
    payload: GradientValues = {}
    for direction, time_set in sorted(needed.items()):
        times = tuple(sorted(time_set))
        curve, grads = kernel.gradient_curve(
            signals.FAILED_LABEL,
            times,
            maximize=(direction == "max"),
            tolerance=tolerance,
        )
        payload[direction] = (
            {time: float(value) for time, value in zip(times, curve)},
            {
                name: {
                    time: float(grads[i, j]) for i, time in enumerate(times)
                }
                for j, name in enumerate(kernel.parameters)
            },
        )
    return payload


def _evaluate_measure(
    model: Optional[Union[CTMC, CTMDP]],
    measure: Measure,
    point_values: Dict[float, float],
    bound_curves: Dict[float, Tuple[float, float]],
    nondeterministic: bool = False,
    gradient_values: Optional[GradientValues] = None,
) -> MeasureResult:
    nondeterministic = nondeterministic or isinstance(model, CTMDP)
    if isinstance(measure, Unreliability):
        if nondeterministic:
            raise AnalysisError(
                "the model is non-deterministic (CTMDP); use UnreliabilityBounds "
                "to obtain the interval of possible values"
            )
        times: Tuple[float, ...] = measure.times  # type: ignore[assignment]
        return MeasureResult(
            kind=measure.kind,
            times=times,
            values=tuple(point_values[time] for time in times),
        )
    if isinstance(measure, UnreliabilityBounds):
        times = measure.times  # type: ignore[assignment]
        lower = tuple(bound_curves[time][0] for time in times)
        upper = tuple(bound_curves[time][1] for time in times)
        return MeasureResult(kind=measure.kind, times=times, lower=lower, upper=upper)
    if isinstance(measure, ImportanceRanking):
        if gradient_values is None or measure.direction not in gradient_values:
            raise AnalysisError(
                "importance rankings need the parametric gradient engine, "
                "which was not run for this evaluation"
            )
        curve_by_time, per_param = gradient_values[measure.direction]
        if not per_param:
            raise AnalysisError(
                "the model has no declared rate parameters; wrap the tree with "
                "with_rate_parameters(...) to rank its failure rates"
            )
        times = measure.times  # type: ignore[assignment]
        gradients = {
            name: tuple(per_param[name][time] for time in times)
            for name in sorted(per_param)
        }
        last = times[-1]
        ranking = tuple(
            sorted(per_param, key=lambda name: (-abs(per_param[name][last]), name))
        )
        return MeasureResult(
            kind=measure.kind,
            times=times,
            values=tuple(curve_by_time[time] for time in times),
            gradients=gradients,
            ranking=ranking,
        )
    if isinstance(measure, Unavailability):
        if nondeterministic:
            raise AnalysisError(
                "unavailability of non-deterministic models is not supported"
            )
        if measure.steady_state:
            value = model.steady_state_probability_of_label(signals.FAILED_LABEL)
            return MeasureResult(
                kind=measure.kind, values=(float(value),), steady_state=True
            )
        assert measure.time is not None
        return MeasureResult(
            kind=measure.kind,
            times=(measure.time,),
            values=(point_values[measure.time],),
            steady_state=False,
        )
    if isinstance(measure, MTTF):
        if nondeterministic:
            raise AnalysisError("MTTF of non-deterministic models is not supported")
        value = model.mean_time_to_label(signals.FAILED_LABEL)
        return MeasureResult(kind=measure.kind, values=(float(value),))
    raise AnalysisError(f"unsupported measure: {measure!r}")


def _measure_needs_model(measure: Measure) -> bool:
    """True iff ``measure`` reads the generator beyond transient point values."""
    return isinstance(measure, MTTF) or (
        isinstance(measure, Unavailability) and measure.steady_state
    )


def query_needs_model(query: QueryLike) -> bool:
    """True iff evaluating ``query`` needs more than transient point values.

    MTTF and steady-state unavailability read the generator itself; every
    other measure is assembled from the failed-state occupancy curve alone,
    so a purely transient query never builds a concrete CTMC per sample.
    """
    return any(_measure_needs_model(measure) for measure in _as_query(query))


def measures_from_curves(
    model: Optional[Union[CTMC, CTMDP]],
    query: Query,
    point_values: Dict[float, float],
    bound_curves: Dict[float, Tuple[float, float]],
    on_error: str = "raise",
    nondeterministic: bool = False,
    gradient_values: Optional[GradientValues] = None,
) -> Tuple[MeasureResult, ...]:
    """Assemble every measure of ``query`` from precomputed curve values.

    ``model`` may be ``None`` when the query is purely transient (see
    :func:`query_needs_model`); measures that do need the model then fail
    individually under ``on_error="record"``.  ``nondeterministic=True``
    marks a model-free evaluation as a CTMDP one (the kernel path), so
    deterministic-only measures fail with the CTMDP diagnostics rather than
    the missing-model one.  ``gradient_values`` feeds importance rankings.
    """
    if on_error not in ("raise", "record"):
        raise AnalysisError(f"on_error must be 'raise' or 'record', got {on_error!r}")
    evaluated = []
    for measure in query:
        try:
            if model is None and not nondeterministic and _measure_needs_model(measure):
                raise AnalysisError(
                    f"measure {measure.kind!r} needs the concrete Markov model, "
                    "which was not instantiated"
                )
            evaluated.append(
                _evaluate_measure(
                    model,
                    measure,
                    point_values,
                    bound_curves,
                    nondeterministic=nondeterministic,
                    gradient_values=gradient_values,
                )
            )
        except AnalysisError as error:
            if on_error == "raise":
                raise
            evaluated.append(MeasureResult(kind=measure.kind, error=str(error)))
    return tuple(evaluated)


def evaluate_query_on_model(
    model: Union[CTMC, CTMDP],
    query: QueryLike,
    tolerance: float = 1e-12,
    on_error: str = "raise",
    gradient_values: Optional[GradientValues] = None,
) -> Tuple[MeasureResult, ...]:
    """Evaluate every measure of ``query`` directly on a concrete Markov model.

    The concrete-model counterpart of :meth:`CompiledModel.evaluate_many`
    (which every :class:`Study` and sweep uses), kept as an independent
    reference: one vectorised transient sweep over the union of all mission
    times (or one bound-curve sweep pair for CTMDPs), then each measure
    reads its values.
    Importance rankings need ``gradient_values`` from a parametric kernel (a
    concrete model carries evaluated floats, so it cannot be differentiated).
    """
    query = _as_query(query)
    ((point_values, bound_curves),) = _curves(model, query, tolerance)
    return measures_from_curves(
        model,
        query,
        point_values,
        bound_curves,
        on_error=on_error,
        gradient_values=gradient_values,
    )


def _query_wants_gradients(query: Query) -> bool:
    return any(isinstance(measure, ImportanceRanking) for measure in query)


def _degenerate_envelope(skeleton: CtmcSkeleton) -> CtmdpSkeleton:
    """The choice-free CTMDP view of a CTMC skeleton (bounds coincide).

    Used to differentiate deterministic models: the CTMDP kernel's gradient
    sweep works unchanged on a skeleton with no vanishing choices.
    """
    return CtmdpSkeleton(
        num_states=skeleton.num_states,
        initial=skeleton.initial,
        labels=skeleton.labels,
        choices=((),) * skeleton.num_states,
        edges=skeleton.edges,
    )


class Evaluation(NamedTuple):
    """One evaluation of a :class:`CompiledModel` under one rate assignment.

    ``load_seconds`` covers the rate refill (plus a concrete model build when
    a measure reads the generator), ``solve_seconds`` the sweeps — each the
    sample's share of its batch plus its own per-sample work; the optional
    ``gradients`` map each parameter to its gradient curve.  ``error`` is
    the error that failed the sample as a whole (a non-positive rate, or a
    measure under ``on_error="raise"``); its ``measures`` are then empty.
    """

    measures: Tuple[MeasureResult, ...]
    load_seconds: float
    solve_seconds: float
    gradients: Optional[Dict[str, Tuple[float, ...]]] = None
    error: Optional[ReproError] = None


class CompiledModel:
    """A rate-independent skeleton together with its reusable solver kernels.

    The kernel (a :class:`TransientKernel` for CTMC skeletons, reusing a
    prebuilt :class:`~repro.ctmc.kernel.CsrBuffer` when one is given, or a
    :class:`CtmdpKernel`) and the gradient kernel (the CTMDP kernel itself,
    or the choice-free envelope of a CTMC skeleton) are built on first use
    and kept, so every later evaluation only refills rate data.
    ``Study`` (with or without a skeleton cache), sweep rows, the optimiser
    and the service all evaluate skeletons through :meth:`evaluate_many`
    (:meth:`evaluate` is its batch of one).
    """

    __slots__ = ("skeleton", "_buffer", "_kernel", "_gradient_kernel")

    def __init__(
        self,
        skeleton: Union[CtmcSkeleton, CtmdpSkeleton],
        buffer: Optional[CsrBuffer] = None,
    ):
        self.skeleton = skeleton
        self._buffer = buffer
        self._kernel: Optional[Union[TransientKernel, CtmdpKernel]] = None
        self._gradient_kernel: Optional[CtmdpKernel] = None

    @property
    def nondeterministic(self) -> bool:
        return isinstance(self.skeleton, CtmdpSkeleton)

    @property
    def kernel(self) -> Union[TransientKernel, CtmdpKernel]:
        """The skeleton's bound or transient solver (built once)."""
        if self._kernel is None:
            if isinstance(self.skeleton, CtmcSkeleton):
                self._kernel = TransientKernel(self.skeleton, buffer=self._buffer)
            else:
                self._kernel = self.skeleton.ctmdp_kernel()
        return self._kernel

    @property
    def gradient_kernel(self) -> CtmdpKernel:
        """The parametric CTMDP kernel that differentiates this model."""
        if self._gradient_kernel is None:
            kernel = self.kernel
            self._gradient_kernel = (
                kernel
                if isinstance(kernel, CtmdpKernel)
                else _degenerate_envelope(self.skeleton).ctmdp_kernel()  # type: ignore[arg-type]
            )
        return self._gradient_kernel

    def evaluate(
        self,
        query: QueryLike,
        assignment: Optional[Mapping[str, float]] = None,
        tolerance: float = 1e-12,
        on_error: str = "raise",
        rate_floor: Optional[float] = None,
        gradients: bool = False,
    ) -> Evaluation:
        """Evaluate ``query`` under ``assignment``; see :func:`evaluate_skeleton_query`."""
        return evaluate_skeleton_query(
            self, query, assignment, tolerance, on_error, rate_floor, gradients
        )

    def evaluate_many(
        self,
        query: QueryLike,
        assignments: Sequence[Optional[Mapping[str, float]]],
        tolerance: float = 1e-12,
        on_error: str = "raise",
        rate_floor: Optional[float] = None,
        gradients: bool = False,
    ) -> List[Evaluation]:
        """Evaluate ``query`` under every assignment, one evaluation each.

        The assignments run in as few even batches of at most
        :attr:`~repro.ctmc.kernel.CsrBuffer.max_blocks` as they need: the
        kernel loads a batch as the diagonal blocks of one stacked operator
        and runs one uniformisation series (CTMC) or one bound-sweep pair
        (CTMDP) for all of them.  Every block keeps its own uniformisation rate and Poisson
        truncation, so an evaluation is bit-identical whatever batch it
        shares.  Concrete-model measures (MTTF, steady state) and gradient
        sweeps run per sample.  ``rate_floor`` pins the uniformisation rate
        (see :meth:`TransientKernel.load`); ``gradients`` attaches
        per-parameter gradient curves of the max bound to each result.
        A sample that fails as a whole — a non-positive rate, or any measure
        under ``on_error="raise"`` — carries its error in
        :attr:`Evaluation.error` and leaves the others untouched.
        """
        if on_error not in ("raise", "record"):
            raise AnalysisError(f"on_error must be 'raise' or 'record', got {on_error!r}")
        query = _as_query(query)
        assignments = list(assignments)
        kernel = self.kernel
        # As few batches as the cap allows, of even sizes.
        batches = max(1, -(-len(assignments) // kernel.buffer.max_blocks))
        size = max(1, -(-len(assignments) // batches))
        evaluations: List[Evaluation] = []
        for begin in range(0, len(assignments), size):
            evaluations.extend(
                self._evaluate_batch(
                    query,
                    assignments[begin : begin + size],
                    tolerance,
                    on_error,
                    rate_floor,
                    gradients,
                )
            )
        # The stacked operator is rebuilt by the next batch; holding it in
        # between would only add its memory to every model a process keeps.
        kernel.release()
        return evaluations

    def _evaluate_batch(
        self,
        query: Query,
        assignments: List[Optional[Mapping[str, float]]],
        tolerance: float,
        on_error: str,
        rate_floor: Optional[float],
        gradients: bool,
    ) -> List[Evaluation]:
        """One stacked kernel pass; each sample pays an equal share of it."""
        start = _time.perf_counter()
        kernel = self.kernel
        errors: List[Optional[ReproError]] = list(
            kernel.load_many(assignments, rate_floor=rate_floor)
        )
        loaded = _time.perf_counter()
        curves: Iterator = iter(())
        if kernel.blocks:
            try:
                curves = iter(_curves(kernel, query, tolerance, kernel.blocks))
            except ReproError as error:
                errors = [error if known is None else known for known in errors]
        solved = _time.perf_counter()
        load_share = (loaded - start) / len(assignments)
        solve_share = (solved - loaded) / len(assignments)
        evaluations = []
        for assignment, error in zip(assignments, errors):
            row_start = _time.perf_counter()
            measures, model_seconds, row_gradients = (), 0.0, None
            if error is None:
                try:
                    measures, model_seconds, row_gradients = self._finish(
                        query,
                        assignment,
                        *next(curves),
                        tolerance,
                        on_error,
                        rate_floor,
                        gradients,
                    )
                except ReproError as failure:
                    error = failure
            own = _time.perf_counter() - row_start
            evaluations.append(
                Evaluation(
                    measures,
                    load_share + model_seconds,
                    solve_share + own - model_seconds,
                    row_gradients,
                    error,
                )
            )
        return evaluations

    def _finish(
        self,
        query: Query,
        assignment: Optional[Mapping[str, float]],
        point_values: Dict[float, float],
        bound_curves: Dict[float, Tuple[float, float]],
        tolerance: float,
        on_error: str,
        rate_floor: Optional[float],
        gradients: bool,
    ) -> Tuple[Tuple[MeasureResult, ...], float, Optional[Dict[str, Tuple[float, ...]]]]:
        """One sample's own work: ``(measures, model build seconds, gradients)``."""
        concrete: Optional[CTMC] = None
        model_seconds = 0.0
        if not self.nondeterministic and query_needs_model(query):
            start = _time.perf_counter()
            concrete = self.skeleton.instantiate(assignment)  # type: ignore[assignment]
            model_seconds = _time.perf_counter() - start
        gradient_values: Optional[GradientValues] = None
        row_gradients: Optional[Dict[str, Tuple[float, ...]]] = None
        if gradients or _query_wants_gradients(query):
            gradient_kernel = self.gradient_kernel
            gradient_kernel.load(assignment, rate_floor=rate_floor)
            gradient_values = gradient_values_from_kernel(gradient_kernel, query, tolerance)
            if gradients:
                _curve, grads = gradient_kernel.gradient_curve(
                    signals.FAILED_LABEL,
                    query.transient_times(),
                    maximize=True,
                    tolerance=tolerance,
                )
                row_gradients = {
                    name: tuple(float(value) for value in grads[:, j])
                    for j, name in enumerate(gradient_kernel.parameters)
                }
        measures = measures_from_curves(
            concrete,
            query,
            point_values,
            bound_curves,
            on_error=on_error,
            nondeterministic=self.nondeterministic,
            gradient_values=gradient_values,
        )
        return measures, model_seconds, row_gradients


def evaluate_skeleton_query(
    model: CompiledModel,
    query: QueryLike,
    assignment: Optional[Mapping[str, float]] = None,
    tolerance: float = 1e-12,
    on_error: str = "raise",
    rate_floor: Optional[float] = None,
    gradients: bool = False,
) -> Evaluation:
    """Evaluate ``query`` on a compiled skeleton under ``assignment``.

    The batch of one of :meth:`CompiledModel.evaluate_many` — the same code
    every sweep runs — raising the sample's error instead of returning it.
    It is the skeleton counterpart of :func:`evaluate_query_on_model`: a
    concrete model is instantiated only when a measure reads the generator
    itself.

    Every measure the library computes — ``Study`` with or without a
    skeleton cache, sweep rows, the optimiser and the service — runs through
    :meth:`CompiledModel.evaluate_many`, which is what makes a served
    response bit-identical to the in-process result.  This function stays a
    module-level function so profilers can wrap single evaluations by name.
    """
    (evaluation,) = model.evaluate_many(
        query, [assignment], tolerance, on_error, rate_floor, gradients
    )
    if evaluation.error is not None:
        raise evaluation.error
    return evaluation


#: Why a skeleton-cached Study refuses importance rankings.
_CACHED_RANKING_ERROR = (
    "importance rankings on a cached skeleton would rank the store's canonical "
    "per-event parameters, not the tree's; evaluate them on a Study without a "
    "skeleton cache"
)


class Study:
    """Plans and runs the compositional pipeline for one fault tree.

    Every measure is read off the final model's rate-independent skeleton
    through one :class:`CompiledModel`: without a cache the skeleton comes
    from this Study's own pipeline and is evaluated at the tree's nominal
    rates.  With a ``skeleton_cache`` (a
    :class:`~repro.service.store.SkeletonStore`) the pipeline is
    content-addressed: a hit on the tree's structural hash skips conversion,
    aggregation and minimisation entirely and evaluates on the cached
    skeleton under the tree's canonical rate assignment; a miss builds and
    persists the entry for every later tree of the same structure.
    """

    def __init__(
        self,
        tree: DynamicFaultTree,
        options: Optional[StudyOptions] = None,
        skeleton_cache: Optional["SkeletonStore"] = None,
    ):
        self.tree = tree
        self.options = options or StudyOptions()
        self.skeleton_cache = skeleton_cache
        self._community: Optional[Community] = None
        self._final: Optional[IOIMC] = None
        self._statistics: Optional[CompositionStatistics] = None
        self._skeleton: Optional[Union[CtmcSkeleton, CtmdpSkeleton]] = None
        self._markov: Optional[Union[CTMC, CTMDP]] = None
        self._timings: Dict[str, float] = {}
        self._cache_entry = None
        self._cache_hit = False
        self._compiled: Optional[CompiledModel] = None
        self._assignment: Optional[Dict[str, float]] = None

    # ------------------------------------------------------------- pipeline
    @property
    def community(self) -> Community:
        """The I/O-IMC community of the fault tree (cached)."""
        if self._community is None:
            start = _time.perf_counter()
            converter = DftToIoimcConverter(self.tree, self.options.conversion)
            self._community = converter.convert()
            self._timings["conversion"] = _time.perf_counter() - start
        return self._community

    @property
    def final_ioimc(self) -> IOIMC:
        """The single aggregated I/O-IMC of the whole system (cached)."""
        if self._final is None:
            community = self.community
            start = _time.perf_counter()
            aggregator = CompositionalAggregator(
                community.models(),
                self.options.composition_options(),
                community=community,
            )
            self._final, self._statistics = aggregator.run()
            self._timings["aggregation"] = _time.perf_counter() - start
        return self._final

    @property
    def statistics(self) -> CompositionStatistics:
        """Composition statistics (peak intermediate sizes, per-step records)."""
        self.final_ioimc
        assert self._statistics is not None
        return self._statistics

    @property
    def skeleton(self) -> Union[CtmcSkeleton, CtmdpSkeleton]:
        """The final CTMC skeleton, or CTMDP skeleton if non-determinism remains.

        With a skeleton cache this is the store entry's canonically
        parametrised skeleton; otherwise it is extracted once from
        :attr:`final_ioimc`.
        """
        if self.skeleton_cache is not None:
            return self._cached_entry().skeleton
        if self._skeleton is None:
            final = self.final_ioimc
            start = _time.perf_counter()
            try:
                self._skeleton = ctmc_skeleton_from_ioimc(final)
            except NondeterminismError:
                self._skeleton = ctmdp_skeleton_from_ioimc(final)
            self._timings["markov"] = _time.perf_counter() - start
        return self._skeleton

    @property
    def markov_model(self) -> Union[CTMC, CTMDP]:
        """The final CTMC, or CTMDP if non-determinism remains (cached)."""
        if self._markov is None:
            model = self._compiled_model()
            self._markov = model.skeleton.instantiate(self._assignment)
        return self._markov

    @property
    def is_nondeterministic(self) -> bool:
        """True iff the aggregated model is a CTMDP rather than a CTMC."""
        return isinstance(self.skeleton, CtmdpSkeleton)

    def _cached_entry(self):
        """The store entry of this tree's structural class (fetched once)."""
        if self._cache_entry is None:
            assert self.skeleton_cache is not None
            start = _time.perf_counter()
            self._cache_entry, self._cache_hit = self.skeleton_cache.get_or_build(
                self.tree, self.options
            )
            self._timings["cache"] = _time.perf_counter() - start
        return self._cache_entry

    def adopt_entry(self, entry, model: CompiledModel, hit: bool) -> None:
        """Evaluate on an already fetched store entry and its compiled model.

        For a Study with a skeleton cache whose caller holds the entry of
        this tree's structural class in memory (the service's LRU): the
        entry is neither read nor decoded again, and evaluations reuse the
        model's kernels.
        """
        if self.skeleton_cache is None or model.skeleton is not entry.skeleton:
            raise AnalysisError(
                "only a skeleton-cached Study adopts a store entry, with that "
                "entry's compiled model"
            )
        self._cache_entry, self._cache_hit = entry, hit
        self._timings["cache"] = 0.0
        self._compiled = model
        self._assignment = canonical_assignment(self.tree)

    def _compiled_model(self) -> CompiledModel:
        """The skeleton's compiled model, with :attr:`_assignment` its rates.

        A cached skeleton speaks the store's canonical parameters, so it is
        evaluated under the tree's canonical assignment (one tree walk per
        Study); the Study's own skeleton takes its nominal rates (``None``).
        """
        if self._compiled is None:
            if self.skeleton_cache is not None:
                entry = self._cached_entry()
                self._compiled = CompiledModel(entry.skeleton, buffer=entry.buffer)
                self._assignment = canonical_assignment(self.tree)
            else:
                self._compiled = CompiledModel(self.skeleton)
        return self._compiled

    def _model_info(self) -> ModelInfo:
        """The final model's sizes (the store entry's on a cached Study)."""
        if self.skeleton_cache is not None:
            return self._cached_entry().model
        skeleton = self.skeleton
        nondeterministic = isinstance(skeleton, CtmdpSkeleton)
        final = self.final_ioimc
        return ModelInfo(
            kind="ctmdp" if nondeterministic else "ctmc",
            states=skeleton.num_states,
            nondeterministic=nondeterministic,
            final_ioimc_states=final.num_states,
            final_ioimc_transitions=final.num_transitions,
            community_size=len(self.community.members),
        )

    @property
    def timings(self) -> Dict[str, float]:
        """Wall-clock seconds of every pipeline stage run so far."""
        return dict(self._timings)

    # ------------------------------------------------------------ evaluation
    def evaluate(self, query: QueryLike, on_error: str = "raise") -> StudyResult:
        """Evaluate all of ``query``'s measures with shared planned work.

        ``on_error="raise"`` (default) propagates the first measure that
        cannot be evaluated (e.g. MTTF of a non-deterministic model);
        ``on_error="record"`` evaluates every measure independently and
        stores per-measure failures in :attr:`MeasureResult.error`, so one
        unsupported measure does not discard the others' values (the CLI and
        the batch runner use this mode).
        """
        query = _as_query(query)
        model = self._compiled_model()
        start = _time.perf_counter()
        if self.skeleton_cache is not None and _query_wants_gradients(query):
            measures = self._evaluate_without_rankings(model, query, on_error)
        else:
            measures = model.evaluate(
                query,
                self._assignment,
                tolerance=self.options.tolerance,
                on_error=on_error,
            ).measures
        self._timings["evaluation"] = _time.perf_counter() - start
        self._timings["total"] = sum(
            self._timings.get(key, 0.0)
            for key in ("conversion", "aggregation", "markov", "cache", "evaluation")
        )
        options = self.options.to_dict()
        if self.skeleton_cache is None:
            statistics: Union[CompositionStatistics, RestoredStatistics] = self.statistics
        else:
            statistics = RestoredStatistics(dict(self._cached_entry().statistics))
            options["skeleton_cache"] = "hit" if self._cache_hit else "miss"
        return StudyResult(
            tree_name=self.tree.name,
            tree_summary=self.tree.summary(),
            measures=measures,
            model=self._model_info(),
            statistics=statistics,
            options=options,
            timings=self.timings,
        )

    def _evaluate_without_rankings(
        self, model: CompiledModel, query: Query, on_error: str
    ) -> Tuple[MeasureResult, ...]:
        """A cached Study's measures, each importance ranking recorded as failed.

        The store's skeleton is parametrised per basic event, so its
        gradients name canonical parameters rather than the tree's own.
        """
        if on_error == "raise":
            raise AnalysisError(_CACHED_RANKING_ERROR)
        others = [m for m in query if not isinstance(m, ImportanceRanking)]
        evaluated = iter(
            model.evaluate(
                Query(others),
                self._assignment,
                tolerance=self.options.tolerance,
                on_error=on_error,
            ).measures
            if others
            else ()
        )
        return tuple(
            MeasureResult(kind=measure.kind, error=_CACHED_RANKING_ERROR)
            if isinstance(measure, ImportanceRanking)
            else next(evaluated)
            for measure in query
        )


def evaluate(
    tree: DynamicFaultTree,
    query: QueryLike,
    options: Optional[StudyOptions] = None,
) -> StudyResult:
    """Evaluate ``query`` on ``tree`` with a fresh :class:`Study`."""
    return Study(tree, options).evaluate(query)


# ---------------------------------------------------------------------------
# corpus runner
# ---------------------------------------------------------------------------

Source = Union[str, Path, DynamicFaultTree]


@dataclass(frozen=True)
class _BatchItem:
    """One batch work unit: a Galileo file path or an in-memory tree.

    Files are parsed inside the worker (so a corrupt file becomes that row's
    error, not the pool's); in-memory trees travel by pickle, which preserves
    failure rates exactly where a Galileo round-trip would quantise them.
    """

    name: str
    path: Optional[str]
    tree: Optional[DynamicFaultTree]


def _evaluate_batch_chunk(
    jobs: Sequence[Tuple[_BatchItem, Query, Optional[StudyOptions]]]
) -> List[BatchRow]:
    """Worker entry point for chunked scheduling: one pickle per chunk."""
    return [_evaluate_batch_item(job) for job in jobs]


def _evaluate_batch_item(
    job: Tuple[_BatchItem, Query, Optional[StudyOptions]]
) -> BatchRow:
    item, query, options = job
    start = _time.perf_counter()
    try:
        if item.path is not None:
            tree = galileo.parse_file(item.path)
        else:
            assert item.tree is not None
            tree = item.tree
        # Record per-measure failures (an unsupported MTTF must not discard
        # the bounds computed for the same tree); tree-level errors below
        # still fail the whole row.
        result = Study(tree, options).evaluate(query, on_error="record")
        return BatchRow(
            name=item.name,
            source=item.path,
            result=result,
            error=None,
            wall_seconds=_time.perf_counter() - start,
        )
    except (ReproError, OSError, UnicodeDecodeError) as error:
        return BatchRow(
            name=item.name,
            source=item.path,
            result=None,
            error=str(error),
            wall_seconds=_time.perf_counter() - start,
        )


def resolve_workers(processes: Optional[int], num_items: int) -> int:
    """The worker count for ``num_items`` items (1 unless there is work to share)."""
    workers = 1 if processes is None else int(processes)
    if workers < 1:
        raise AnalysisError(f"processes must be >= 1, got {processes}")
    return workers if num_items > 1 else 1


def chunked_pool_map(
    function,
    items: Sequence,
    workers: int,
    chunk_size: Optional[int] = None,
    initializer=None,
    initargs: Tuple = (),
) -> Iterator:
    """Yield ``function(chunk)``'s results over ``items``' chunks, in order.

    ``items`` are cut into chunks of ``chunk_size`` (default: about four per
    worker, so stragglers rebalance, and at most 64) and at most
    ``workers + 2`` chunks are in flight at any time, so huge inputs neither
    materialise all results nor flood the executor.  Batch corpora and
    rate sweeps share this scheduler.
    """
    if chunk_size is None:
        chunk = max(1, min(64, len(items) // (workers * 4) or 1))
    else:
        chunk = int(chunk_size)
        if chunk < 1:
            raise AnalysisError(f"chunk_size must be >= 1, got {chunk_size}")
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    ) as pool:
        pending: Deque = deque()
        next_index = 0
        while next_index < len(items) or pending:
            while next_index < len(items) and len(pending) < workers + 2:
                batch = list(items[next_index : next_index + chunk])
                pending.append(pool.submit(function, batch))
                next_index += len(batch)
            yield from pending.popleft().result()


class BatchStudy:
    """Evaluates one query over many trees (a corpus), optionally in parallel.

    ``sources`` may mix paths to Galileo ``.dft`` files and in-memory
    :class:`~repro.dft.tree.DynamicFaultTree` objects; files are parsed in the
    worker, in-memory trees are pickled to it (rate-exact, no Galileo
    round-trip).
    """

    def __init__(
        self,
        sources: Iterable[Source],
        query: QueryLike,
        options: Optional[StudyOptions] = None,
    ):
        self.query = _as_query(query)
        self.options = options
        self._items: List[_BatchItem] = []
        for source in sources:
            if isinstance(source, DynamicFaultTree):
                self._items.append(_BatchItem(name=source.name, path=None, tree=source))
            else:
                path = str(source)
                self._items.append(_BatchItem(name=Path(path).stem, path=path, tree=None))
        if not self._items:
            raise AnalysisError("a batch study needs at least one tree")
        # Row names must be unambiguous: where two corpus members share a name
        # (a/x.dft and b/x.dft, or two in-memory trees named alike), fall back
        # to the full path; anything still ambiguous (identical paths, equal
        # tree names) gets an index suffix.
        name_counts: Dict[str, int] = {}
        for item in self._items:
            name_counts[item.name] = name_counts.get(item.name, 0) + 1
        resolved = [
            item.path
            if name_counts[item.name] > 1 and item.path is not None
            else item.name
            for item in self._items
        ]
        resolved_counts: Dict[str, int] = {}
        for name in resolved:
            resolved_counts[name] = resolved_counts.get(name, 0) + 1
        self._items = [
            _BatchItem(
                name=name if resolved_counts[name] == 1 else f"{name}#{index}",
                path=item.path,
                tree=item.tree,
            )
            for index, (name, item) in enumerate(zip(resolved, self._items))
        ]

    def __len__(self) -> int:
        return len(self._items)

    def iter_rows(
        self,
        processes: Optional[int] = None,
        chunk_size: Optional[int] = None,
    ) -> Iterator[BatchRow]:
        """Yield per-tree rows as they are produced, in corpus order.

        With ``processes > 1`` the corpus is cut into chunks of ``chunk_size``
        trees (default: a multiple of the worker count) and at most a small
        window of chunks is in flight at any time — so a million-tree corpus
        neither materialises all rows nor floods the executor with futures.
        """
        workers = resolve_workers(processes, len(self._items))
        jobs = [(item, self.query, self.options) for item in self._items]
        if workers == 1:
            for job in jobs:
                yield _evaluate_batch_item(job)
            return
        yield from chunked_pool_map(_evaluate_batch_chunk, jobs, workers, chunk_size)

    def run(
        self,
        processes: Optional[int] = None,
        chunk_size: Optional[int] = None,
        sink: Optional[TextIO] = None,
    ) -> BatchResult:
        """Analyse every tree; ``processes > 1`` fans out over worker processes.

        With a ``sink`` (a writable text handle) rows are streamed to it as
        ``repro.batch/2`` JSONL records instead of being collected — the
        returned :class:`BatchResult` then carries the aggregate only
        (``rows=()``); :func:`repro.core.results.read_batch_jsonl` loads the
        rows back.
        """
        workers = resolve_workers(processes, len(self._items))
        rows_iter = self.iter_rows(processes=workers, chunk_size=chunk_size)
        if sink is not None:
            return write_batch_jsonl(rows_iter, sink, processes=workers)
        start = _time.perf_counter()
        rows = list(rows_iter)
        return BatchResult(
            rows=tuple(rows),
            wall_seconds=_time.perf_counter() - start,
            processes=workers,
        )
