"""Conversion of closed I/O-IMC into CTMCs or CTMDPs.

After compositional aggregation the analysis layer is left with a *closed*
model: no input actions remain (every signal has been connected and hidden),
only Markovian transitions, urgent internal/output moves and state labels.
Two cases arise (Section 5, step 6 of the paper's algorithm):

* every vanishing state has a single urgent move — the model "reduces to a
  CTMC" and is converted by eliminating the vanishing states;
* some vanishing state offers several urgent moves — the model is a CTMDP and
  only bounds on the measure can be computed.

Both conversions factor through a **skeleton**: the rate-independent
structure (tangible states, labels, vanishing-state elimination, transition
end-points) computed once, plus the per-transition rate values — possibly
symbolic :class:`~repro.ioimc.rates.ParametricRate` forms.  The query
engine extracts the skeleton once per tree (:attr:`repro.core.study.Study.skeleton`)
and evaluates every measure on it through
:class:`~repro.core.study.CompiledModel`, whose solver kernels only refill
rate data per assignment: that is how a study shares one conversion +
aggregation across queries and a sweep across all samples.
:func:`ctmc_from_ioimc`, :func:`ctmdp_from_ioimc` and
:func:`markov_model_from_ioimc` instantiate a concrete model at the nominal
rates for callers that want one (the baselines, and the tests' concrete-model
reference).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

from ..errors import ModelError, NondeterminismError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from .kernel import CtmdpKernel
from ..ioimc.model import IOIMC
from ..ioimc.rates import RateLike, evaluate_rate, rate_parameters
from .ctmc import CTMC
from .ctmdp import CTMDP


def _urgent_successors(model: IOIMC, state: int) -> Tuple[int, ...]:
    """Targets of urgent (output or internal) transitions of ``state``."""
    urgent_ids = model.signature.urgent_ids
    successors = []
    for aid, target in model.interactive_pairs(state):
        if aid in urgent_ids and target != state:
            successors.append(target)
    return tuple(dict.fromkeys(successors))


def _require_closed(model: IOIMC) -> None:
    if model.signature.inputs:
        raise ModelError(
            "the model still has input actions and is therefore not closed: "
            + ", ".join(sorted(model.signature.inputs))
        )


def _instantiate_edge_rate(
    rate: RateLike, assignment: Optional[Mapping[str, float]]
) -> float:
    value = evaluate_rate(rate, assignment) if assignment is not None else float(rate)
    if not value > 0.0:
        raise ModelError(
            f"instantiating a parametric rate produced a non-positive value "
            f"({value}); rate-sweep samples must keep every rate positive"
        )
    return value


class _EdgeParameters:
    """A skeleton's ``parameters``, computed once from its ``edges``."""

    @cached_property
    def parameters(self) -> Tuple[str, ...]:
        """Sorted union of the rate parameters the skeleton depends on."""
        edges = self.edges  # type: ignore[attr-defined]
        return tuple(sorted({name for _s, _t, rate in edges for name in rate_parameters(rate)}))

    def __getstate__(self) -> Dict[str, object]:
        # Pickles carry the fields only, as they did before the cache existed.
        state = dict(self.__dict__)
        state.pop("parameters", None)
        return state


@dataclass(frozen=True)
class CtmcSkeleton(_EdgeParameters):
    """The rate-independent structure of a CTMC extracted from an I/O-IMC.

    ``edges`` holds ``(source, target, rate)`` triples where ``rate`` may be a
    plain float or a :class:`~repro.ioimc.rates.ParametricRate`;
    :meth:`instantiate` evaluates the rates (under an optional parameter
    assignment) into a fresh :class:`CTMC` without touching the structure.
    A CTMC skeleton is the choice-free CTMDP skeleton: its derived
    :attr:`choices` let a :class:`~repro.ctmc.kernel.CtmdpKernel` run on it,
    which is how deterministic models are differentiated.
    """

    num_states: int
    initial: int
    labels: Tuple[FrozenSet[str], ...]
    state_names: Tuple[Optional[str], ...]
    edges: Tuple[Tuple[int, int, RateLike], ...]

    @property
    def choices(self) -> Tuple[Tuple[int, ...], ...]:
        """No state is vanishing (derived, so pickles and store keys keep their fields)."""
        return ((),) * self.num_states

    def instantiate(self, assignment: Optional[Mapping[str, float]] = None) -> CTMC:
        """A concrete CTMC with the rates evaluated under ``assignment``.

        Without an assignment every parametric rate takes its nominal value.
        """
        ctmc = CTMC(max(self.num_states, 1), 0)
        for state in range(self.num_states):
            ctmc.set_labels(state, self.labels[state])
            if self.state_names[state] is not None:
                ctmc.set_state_name(state, self.state_names[state])
        for source, target, rate in self.edges:
            ctmc.add_rate(source, target, _instantiate_edge_rate(rate, assignment))
        ctmc.set_initial(self.initial)
        return ctmc


@dataclass(frozen=True)
class CtmdpSkeleton(_EdgeParameters):
    """The rate-independent structure of a CTMDP (vanishing choices kept)."""

    num_states: int
    initial: int
    labels: Tuple[FrozenSet[str], ...]
    choices: Tuple[Tuple[int, ...], ...]
    edges: Tuple[Tuple[int, int, RateLike], ...]

    def instantiate(self, assignment: Optional[Mapping[str, float]] = None) -> CTMDP:
        ctmdp = CTMDP(self.num_states, self.initial)
        for state in range(self.num_states):
            ctmdp.set_labels(state, self.labels[state])
            if self.choices[state]:
                ctmdp.set_choices(state, self.choices[state])
        for source, target, rate in self.edges:
            ctmdp.add_rate(source, target, _instantiate_edge_rate(rate, assignment))
        return ctmdp

    def ctmdp_kernel(self) -> "CtmdpKernel":
        """A fresh shared-structure bound/gradient solver for this skeleton."""
        from .kernel import CtmdpKernel

        return CtmdpKernel(self)


def ctmdp_skeleton_from_ioimc(model: IOIMC) -> CtmdpSkeleton:
    """Extract the CTMDP structure of a closed I/O-IMC (rates kept symbolic)."""
    _require_closed(model)
    choices: List[Tuple[int, ...]] = []
    edges: List[Tuple[int, int, RateLike]] = []
    labels: List[FrozenSet[str]] = []
    for state in model.states():
        labels.append(model.labels(state))
        urgent = _urgent_successors(model, state)
        choices.append(urgent)
        if not urgent:
            # Maximal progress: urgent moves pre-empt Markovian transitions.
            for rate, target in model.markovian_out(state):
                if target != state:
                    edges.append((state, target, rate))
    return CtmdpSkeleton(
        num_states=model.num_states,
        initial=model.initial,
        labels=tuple(labels),
        choices=tuple(choices),
        edges=tuple(edges),
    )


def ctmdp_from_ioimc(model: IOIMC) -> CTMDP:
    """Interpret a closed I/O-IMC as a CTMDP (vanishing states keep choices)."""
    return ctmdp_skeleton_from_ioimc(model).instantiate()


def ctmc_skeleton_from_ioimc(model: IOIMC) -> CtmcSkeleton:
    """Extract the CTMC structure of a closed, deterministic I/O-IMC.

    Vanishing states (urgent moves only) are eliminated by redirecting their
    incoming transitions to the unique tangible state they lead to.  If any
    vanishing state offers a choice between several urgent moves a
    :class:`~repro.errors.NondeterminismError` is raised — the caller should
    fall back to :func:`ctmdp_skeleton_from_ioimc`.  The elimination depends
    only on the urgent-transition structure, never on rate values, so one
    skeleton is valid for every parameter assignment.
    """
    _require_closed(model)

    nondeterministic = []
    forward: Dict[int, int] = {}
    for state in model.states():
        urgent = _urgent_successors(model, state)
        if len(urgent) > 1:
            nondeterministic.append(state)
        elif len(urgent) == 1:
            forward[state] = urgent[0]
    if nondeterministic:
        raise NondeterminismError(
            "the closed model contains non-deterministic urgent choices in "
            f"{len(nondeterministic)} state(s); analyse it as a CTMDP instead",
            states=tuple(nondeterministic),
        )

    def resolve(state: int) -> int:
        seen = set()
        while state in forward:
            if state in seen:
                raise ModelError(
                    "the model diverges: a cycle of instantaneous internal moves "
                    f"involves state {state}"
                )
            seen.add(state)
            state = forward[state]
        return state

    tangible = [state for state in model.states() if state not in forward]
    index = {state: i for i, state in enumerate(tangible)}

    labels = tuple(model.labels(state) for state in tangible)
    state_names = tuple(model.state_name(state) for state in tangible)
    edges: List[Tuple[int, int, RateLike]] = []
    for state in tangible:
        for rate, target in model.markovian_out(state):
            resolved = resolve(target)
            if resolved == state:
                continue
            edges.append((index[state], index[resolved], rate))
    return CtmcSkeleton(
        num_states=max(len(tangible), 1),
        initial=index[resolve(model.initial)],
        labels=labels if labels else (frozenset(),),
        state_names=state_names if state_names else (None,),
        edges=tuple(edges),
    )


def ctmc_from_ioimc(model: IOIMC) -> CTMC:
    """Interpret a closed, deterministic I/O-IMC as a CTMC.

    See :func:`ctmc_skeleton_from_ioimc` for the vanishing-state elimination;
    this wrapper instantiates the skeleton at the nominal rates.
    """
    return ctmc_skeleton_from_ioimc(model).instantiate()


def markov_model_from_ioimc(model: IOIMC) -> Union[CTMC, CTMDP]:
    """Return a CTMC when possible, otherwise a CTMDP."""
    try:
        return ctmc_from_ioimc(model)
    except NondeterminismError:
        return ctmdp_from_ioimc(model)
