"""Declarative reliability measures and queries.

The analysis engine (:mod:`repro.core.study`) is driven by *measure specs*
rather than one method call per number: a :class:`Query` bundles everything
that should be computed from one fault tree — unreliability at many mission
times, bounds for non-deterministic models, (steady-state) unavailability,
the mean time to failure — so the engine can plan shared work (one conversion
and aggregation per tree, one vectorised uniformisation sweep over *all*
requested mission times).

Measures are immutable values: they compare by content, serialise to plain
dictionaries (for the JSON CLI output and batch provenance) and compose with
``+`` into queries::

    query = Unreliability([0.5, 1.0, 2.0]) + MTTF()
    result = evaluate(tree, query)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..ctmc.transient import validate_times
from ..errors import AnalysisError
from .wire import Derived, Key, Layout, Record

TimesLike = Union[float, int, Sequence[float]]


def _normalise_times(times: TimesLike) -> Tuple[float, ...]:
    if isinstance(times, (int, float)):
        times = (times,)
    normalised = tuple(validate_times(times))
    if not normalised:
        raise AnalysisError("a timed measure needs at least one mission time")
    return normalised


@dataclass(frozen=True)
class Measure(Record):
    """Base class of all measure specs (a single requested quantity)."""

    kind: ClassVar[str] = "measure"
    WIRE = Layout("measure", Derived("kind"))

    def transient_times(self) -> Tuple[float, ...]:
        """Mission times whose transient state distribution this measure needs."""
        return ()

    def __add__(self, other: Union["Measure", "Query"]) -> "Query":
        return Query(self, other)


@dataclass(frozen=True)
class _TimedMeasure(Measure):
    """Shared shape of measures evaluated at a tuple of mission times."""

    times: TimesLike = (1.0,)

    WIRE = Layout("measure", Derived("kind"), "times")

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", _normalise_times(self.times))

    def transient_times(self) -> Tuple[float, ...]:
        return self.times  # type: ignore[return-value]


@dataclass(frozen=True)
class Unreliability(_TimedMeasure):
    """Probability that the system has failed by each mission time."""

    kind: ClassVar[str] = "unreliability"


@dataclass(frozen=True)
class UnreliabilityBounds(_TimedMeasure):
    """(min, max) failure probability over all resolutions of non-determinism.

    On a deterministic model both bounds coincide with the unreliability, so
    this spec is safe to request regardless of whether the aggregated model
    turns out to be a CTMC or a CTMDP.
    """

    kind: ClassVar[str] = "unreliability_bounds"


@dataclass(frozen=True)
class Unavailability(Measure):
    """Unavailability of a repairable system.

    With a ``time`` this is the probability of being failed at that instant;
    without one it is the steady-state (long-run) unavailability.
    """

    kind: ClassVar[str] = "unavailability"
    time: Optional[float] = None

    WIRE = Layout("measure", Derived("kind"), Derived("steady_state"), Key("time", omit=None))

    def __post_init__(self) -> None:
        if self.time is not None:
            object.__setattr__(self, "time", validate_times([self.time])[0])

    @property
    def steady_state(self) -> bool:
        return self.time is None

    def transient_times(self) -> Tuple[float, ...]:
        return () if self.time is None else (self.time,)


@dataclass(frozen=True)
class ImportanceRanking(_TimedMeasure):
    """Birnbaum-style importance of every rate parameter at each mission time.

    The engine differentiates the (bound on the) unreliability with respect to
    every declared rate parameter — exactly, via the parametric-rate linear
    forms, not by finite differences — and ranks the parameters by the
    magnitude of their gradient at the last mission time.  ``direction``
    selects which bound of a non-deterministic model is differentiated
    ("max" = worst-case unreliability, "min" = best case); deterministic
    models give the same answer either way.
    """

    kind: ClassVar[str] = "importance_ranking"
    direction: str = "max"

    WIRE = Layout("measure", Derived("kind"), "times", "direction")

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.direction not in ("max", "min"):
            raise AnalysisError(
                f"importance direction must be 'max' or 'min', not {self.direction!r}"
            )


def objective_measure(nondeterministic: bool, times: TimesLike) -> Measure:
    """The measure a design-space objective should request at ``times``.

    A deterministic (CTMC) candidate design is scored by its plain
    unreliability curve; a candidate whose aggregated model keeps
    non-determinism is scored by its worst-case bound, so the optimiser
    (:mod:`repro.core.optimize`) compares every design by the same
    pessimistic yardstick.
    """
    if nondeterministic:
        return UnreliabilityBounds(times)
    return Unreliability(times)


@dataclass(frozen=True)
class MTTF(Measure):
    """Mean time to failure (expected time until the system first fails)."""

    kind: ClassVar[str] = "mttf"


class Query:
    """An ordered bundle of measures evaluated together on one fault tree.

    Accepts measures (and nested queries, which are flattened) either as
    positional arguments or as a single iterable::

        Query(Unreliability([1.0]), MTTF())
        Query([Unreliability([1.0]), MTTF()])
        Query(m for m in measures)
    """

    __slots__ = ("_measures",)

    def __init__(self, *measures: Union[Measure, "Query", Iterable[Measure]]):
        if (
            len(measures) == 1
            and not isinstance(measures[0], (Measure, Query, str))
            and isinstance(measures[0], Iterable)
        ):
            measures = tuple(measures[0])
        flat: List[Measure] = []
        for entry in measures:
            if isinstance(entry, Query):
                flat.extend(entry.measures)
            elif isinstance(entry, Measure):
                flat.append(entry)
            else:
                raise AnalysisError(f"not a measure: {entry!r}")
        if not flat:
            raise AnalysisError("a query needs at least one measure")
        self._measures = tuple(flat)

    @property
    def measures(self) -> Tuple[Measure, ...]:
        return self._measures

    def transient_times(self) -> Tuple[float, ...]:
        """Sorted union of all mission times needing a transient solution."""
        times = {time for measure in self._measures for time in measure.transient_times()}
        return tuple(sorted(times))

    def to_dict(self) -> Dict[str, object]:
        return {"measures": [measure.to_dict() for measure in self._measures]}

    def __iter__(self) -> Iterator[Measure]:
        return iter(self._measures)

    def __len__(self) -> int:
        return len(self._measures)

    def __add__(self, other: Union[Measure, "Query"]) -> "Query":
        return Query(self, other)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Query) and self._measures == other._measures

    def __hash__(self) -> int:
        return hash(self._measures)

    def __repr__(self) -> str:
        inner = ", ".join(repr(measure) for measure in self._measures)
        return f"Query({inner})"
