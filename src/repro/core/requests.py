"""The questions every entry point puts to the pipeline, each defined once.

A :class:`QuerySpec` asks for the unreliability (or its bounds) at a set of
mission times, optionally with the MTTF and the unavailability; a
:class:`SweepSpec` asks that query at every sample of a rate grid or list;
a :class:`DesignSpec` is a ``repro optimize`` problem file.  The CLI builds
the first two from its flags, the service decodes them from JSON bodies
with ``from_payload`` and the client encodes them with ``to_payload``, so
the field names and the defaults live only here; the wire rules are those
of :mod:`repro.core.wire`, shared with the results.  The checks are strict:
a flag must be a boolean, a time or a rate a number (never a boolean or a
numeric string), ``processes`` an integer, and a field a request does not
define is an error naming it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

from ..ctmc.transient import validate_times
from ..dft.elements import BasicEvent
from ..dft.tree import DynamicFaultTree
from ..errors import AnalysisError
from .measures import MTTF, Query, Unavailability, objective_measure
from .optimize import DesignChoice, DesignProblem
from .sweep import RateSweep, axis_values, require_declared, sample_values, with_rate_parameters
from .wire import Key, Layout, decode, encode


def _list(value: object, what: str) -> Tuple[object, ...]:
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(value, Iterable):
        raise AnalysisError(f"{what} must be a list")
    return tuple(value)


def _flag(name: str, value: object) -> None:
    if not isinstance(value, bool):
        raise AnalysisError(f"{name!r} must be true or false, got {value!r}")


@dataclass(frozen=True)
class QuerySpec:
    """The unreliability, or its bounds, at ``times``; MTTF and unavailability on request."""

    times: Tuple[float, ...] = (1.0,)
    bounds: bool = False
    mttf: bool = False
    unavailability: bool = False

    WIRE = Layout("query", strict=True)

    def __post_init__(self) -> None:
        times = _list(self.times, "query 'times'")
        if not times:
            raise AnalysisError("query 'times' must be a non-empty list of mission times")
        for time in times:
            if isinstance(time, bool) or not isinstance(time, numbers.Real):
                raise AnalysisError(f"query 'times' must be numbers, got {time!r}")
        object.__setattr__(self, "times", tuple(validate_times(times)))
        for name in ("bounds", "mttf", "unavailability"):
            _flag(name, getattr(self, name))

    @classmethod
    def from_payload(cls, payload: object) -> "QuerySpec":
        """Decode a wire ``query`` object."""
        return decode(cls, payload)

    def to_payload(self) -> Dict[str, object]:
        return encode(self)

    def query(self, nondeterministic: bool = False) -> Query:
        """The measures; a non-deterministic model always gets bounds."""
        measures = [objective_measure(self.bounds or nondeterministic, self.times)]
        if self.mttf:
            measures.append(MTTF())
        if self.unavailability:
            measures.append(Unavailability())
        return Query(measures)


@dataclass(frozen=True)
class SweepSpec:
    """A query over exactly one of ``axes`` (parameter -> values, swept as a
    grid) or ``samples`` (a list of parameter -> rate assignments).

    ``processes`` is the worker count of the per-sample solves (see
    :meth:`repro.core.sweep.SweepStudy.run`); a service without a worker
    pool of its own runs them on a per-request pool of that many service
    workers (see :class:`repro.service.app.AnalysisService`).
    """

    axes: Optional[Mapping[str, Tuple[float, ...]]] = None
    samples: Optional[Tuple[Mapping[str, float], ...]] = None
    query: QuerySpec = QuerySpec()
    processes: int = 1

    WIRE = Layout(
        "sweep request", Key("axes", omit=None), Key("samples", omit=None), "query",
        "processes", strict=True,
    )

    def __post_init__(self) -> None:
        if (self.axes is None) == (self.samples is None):
            raise AnalysisError(
                "a sweep needs exactly one of 'axes' (parameter -> value list) "
                "or 'samples' (list of parameter assignments)"
            )
        if self.axes is not None:
            if not isinstance(self.axes, Mapping) or not self.axes:
                raise AnalysisError("'axes' must map parameter names to value lists")
            axes = {str(name): tuple(axis_values(name, axis)) for name, axis in self.axes.items()}
            object.__setattr__(self, "axes", axes)
        else:
            object.__setattr__(self, "samples", sample_values(_list(self.samples, "'samples'")))
        if not isinstance(self.query, QuerySpec):
            raise AnalysisError(f"a sweep's query must be a QuerySpec, got {self.query!r}")
        processes = self.processes
        if isinstance(processes, bool) or not isinstance(processes, int) or processes < 1:
            raise AnalysisError(f"'processes' must be an integer >= 1, got {processes!r}")

    @classmethod
    def from_payload(cls, payload: object, envelope: Sequence[str] = ()) -> "SweepSpec":
        """Decode a sweep request body; ``envelope`` names the fields the
        caller reads itself (the service's ``tree``)."""
        return decode(cls, payload, envelope)

    def to_payload(self) -> Dict[str, object]:
        return encode(self)

    def prepare(self, tree: DynamicFaultTree) -> DynamicFaultTree:
        """``tree`` ready to sweep: a swept name that is a basic event rather
        than a declared parameter gets a parameter of its own name attached to
        that event's failure rate; any other undeclared name is an error,
        raised before anything is built."""
        swept = self.axes or sorted({name for sample in self.samples for name in sample})
        attach = [
            name
            for name in swept
            if name not in tree.parameters
            and name in tree
            and isinstance(tree.element(name), BasicEvent)
        ]
        if attach:
            tree = with_rate_parameters(tree, {name: name for name in attach})
        require_declared(tree, swept)
        return tree

    def rate_sweep(self, nondeterministic: bool = False) -> RateSweep:
        """The :class:`RateSweep` of this spec (bounds on a non-deterministic model)."""
        query = self.query.query(nondeterministic)
        if self.axes is not None:
            return RateSweep.grid(query, **self.axes)
        return RateSweep(query, self.samples)


@dataclass(frozen=True)
class DesignSpec:
    """A ``repro optimize`` problem: the tree file, the mission time, the
    budget (``None``: unconstrained) and the design choices, each a
    :class:`~repro.core.optimize.SpareCountChoice` (``kind`` ``spares``) or
    a :class:`~repro.core.optimize.RepairChoice` (``kind`` ``repair``).
    """

    tree: str
    choices: Tuple[DesignChoice, ...]
    mission_time: float = 1.0
    budget: Optional[float] = None

    WIRE = Layout("design spec", strict=True)

    @classmethod
    def from_payload(cls, payload: object) -> "DesignSpec":
        """Decode a JSON design spec."""
        return decode(cls, payload)

    def problem(self, tree: DynamicFaultTree) -> DesignProblem:
        """The design problem of this spec over ``tree``, the file it names."""
        return DesignProblem(tree, self.choices, self.mission_time, self.budget)
