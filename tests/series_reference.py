"""Per-state uniformisation series kept as test oracles.

Production runs every uniformisation series in :mod:`repro.ctmc.kernel`.
This module keeps the series it superseded, so the kernel is always compared
with an independent implementation and never with itself:

* the forward loops over a concrete CTMC (:func:`transient_distributions`,
  :func:`transient_distribution`, :func:`probability_of_label`,
  :func:`probability_of_label_curve`, :func:`probability_reach_label`), which
  step ``current @ P`` with scipy's sparse product and weigh every step
  inside the loop;
* the dense matrix exponential (:func:`transient_distribution_expm`);
* the ``scipy.stats`` Poisson terms (:func:`poisson_terms_reference`);
* the per-state Python backward value iteration of a CTMDP
  (:func:`time_bounded_reachability_curve_reference`) with its cached
  vanishing-state resolver;
* the hand-assembled dense generator solves of the MTTF
  (:func:`mean_time_to_label_dense`) and of the steady state
  (:func:`steady_state_distribution_dense`), each behind its own
  reachability walk;
* :func:`evaluate_query_on_model`, which reads every measure of a query off
  a concrete model through these loops and solves (CTMDP bounds through the
  model's own curve methods).

The benchmarks time some of these as their per-sample baselines.
"""

import math
import weakref
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import linalg as dense_linalg
from scipy import stats

from repro.core import signals
from repro.core.measures import Query, UnreliabilityBounds
from repro.core.results import MeasureResult
from repro.core.study import (
    GradientValues,
    QueryLike,
    Readings,
    _as_query,
    measures_from_curves,
)
from repro.ctmc.ctmc import CTMC
from repro.ctmc.ctmdp import CTMDP, VanishingResolver
from repro.ctmc.steady_state import bottom_strongly_connected_components
from repro.ctmc.transient import SweepWeights, _check_term_arguments, validate_times
from repro.errors import AnalysisError


# --------------------------------------------------------------------------
# CTMC forward series
# --------------------------------------------------------------------------

def poisson_terms_reference(rate: float, tolerance: float) -> np.ndarray:
    """The pre-gammaln term computation (``scipy.stats`` quantile and PMF).

    Kept as the differential baseline for :func:`poisson_terms`: both paths
    must agree to within a few ulps on every index of the shared truncation
    range (the test-suite pins ``<= 1e-12``).
    """
    _check_term_arguments(rate, tolerance)
    if rate == 0.0:
        return np.array([1.0])
    quantile = min(1.0 - tolerance, math.nextafter(1.0, 0.0))
    truncation = max(int(stats.poisson.ppf(quantile, rate)) + 2, 1)
    terms = stats.poisson.pmf(np.arange(truncation + 1), rate)
    return np.asarray(terms, dtype=float)


def transient_distributions(
    ctmc: CTMC,
    times: Sequence[float],
    tolerance: float = 1e-12,
    initial_distribution: Optional[np.ndarray] = None,
) -> np.ndarray:
    """State distributions at each of ``times`` from one uniformisation sweep.

    Returns an array of shape ``(len(times), num_states)`` whose ``i``-th row
    is the distribution at ``times[i]``.  All rows share the matvec series
    ``pi(0) * P^k``; only the Poisson weights differ per time point, so the
    cost is one sweep to the deepest truncation instead of one per time.
    """
    times_list = validate_times(times)
    distribution = (
        ctmc.initial_distribution()
        if initial_distribution is None
        else np.asarray(initial_distribution, dtype=float)
    )
    if distribution.shape != (ctmc.num_states,):
        raise AnalysisError("initial distribution has the wrong dimension")
    if not math.isclose(float(distribution.sum()), 1.0, rel_tol=1e-9, abs_tol=1e-9):
        raise AnalysisError("initial distribution must sum to one")
    if not times_list:
        return np.zeros((0, ctmc.num_states))

    matrix, uniformization_rate = ctmc.uniformized_matrix()
    weights = SweepWeights(uniformization_rate, times_list, tolerance)

    result = np.zeros((len(times_list), ctmc.num_states))
    current = distribution.copy()
    for step in range(weights.depth):
        rows, column = weights.column(step)
        result[rows] += np.outer(column, current)
        if step + 1 < weights.depth:
            current = current @ matrix
    # Renormalise the (tiny) truncated mass so every row is a distribution.
    totals = result.sum(axis=1, keepdims=True)
    np.divide(result, totals, out=result, where=totals > 0.0)
    return result


def transient_distribution(
    ctmc: CTMC,
    time: float,
    tolerance: float = 1e-12,
    initial_distribution: Optional[np.ndarray] = None,
) -> np.ndarray:
    """State distribution of ``ctmc`` at ``time`` via uniformisation."""
    if time < 0.0:
        raise AnalysisError("mission time must be non-negative")
    distributions = transient_distributions(
        ctmc, [time], tolerance=tolerance, initial_distribution=initial_distribution
    )
    return distributions[0]


def transient_distribution_expm(
    ctmc: CTMC,
    time: float,
    initial_distribution: Optional[np.ndarray] = None,
) -> np.ndarray:
    """State distribution at ``time`` via a dense matrix exponential.

    Exact up to floating point error, but dense: intended as an independent
    cross-check for small models in the test-suite, not for production use.
    """
    if time < 0.0:
        raise AnalysisError("mission time must be non-negative")
    distribution = (
        ctmc.initial_distribution()
        if initial_distribution is None
        else np.asarray(initial_distribution, dtype=float)
    )
    generator = ctmc.generator_matrix("csr").toarray()
    return distribution @ dense_linalg.expm(generator * time)


def probability_of_label(
    ctmc: CTMC, label: str, time: float, tolerance: float = 1e-12
) -> float:
    """Probability of being in a ``label``-state at ``time``."""
    distribution = transient_distribution(ctmc, time, tolerance=tolerance)
    return float(sum(distribution[s] for s in ctmc.states_with_label(label)))


def probability_reach_label(
    ctmc: CTMC, label: str, time: float, tolerance: float = 1e-12
) -> float:
    """Probability that a ``label``-state has been *visited* by ``time``.

    For unreliability the failed states of a DFT are absorbing, so visiting and
    occupying coincide; for repairable systems they differ.  The computation
    makes the labelled states absorbing and runs a transient analysis.
    """
    goal = ctmc.states_with_label(label)
    if not goal:
        return 0.0
    absorbing = CTMC(ctmc.num_states, ctmc.initial)
    for state in ctmc.states():
        absorbing.set_labels(state, ctmc.labels(state))
        if state in goal:
            continue
        for target, rate in ctmc.rates_from(state):
            absorbing.add_rate(state, target, rate)
    distribution = transient_distribution(absorbing, time, tolerance=tolerance)
    return float(sum(distribution[state] for state in goal))


def probability_of_label_curve(
    ctmc: CTMC,
    label: str,
    times: Sequence[float],
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Probability of occupying a ``label``-state at each time, one sweep.

    Accumulates the per-time goal mass directly during the sweep instead of
    materialising the full ``(times, states)`` distribution matrix, so the
    memory cost is ``O(states + times)`` — the same as one per-point call —
    no matter how many time points the curve has.
    """
    times_list = validate_times(times)
    goal = ctmc.states_with_label(label)
    if not goal or not times_list:
        return np.zeros(len(times_list))

    matrix, uniformization_rate = ctmc.uniformized_matrix()
    weights = SweepWeights(uniformization_rate, times_list, tolerance)
    goal_indices = np.fromiter(goal, dtype=int)

    goal_mass = np.zeros(len(times_list))
    total_mass = np.zeros(len(times_list))
    current = ctmc.initial_distribution()
    for step in range(weights.depth):
        rows, column = weights.column(step)
        goal_mass[rows] += column * float(current[goal_indices].sum())
        total_mass[rows] += column * float(current.sum())
        if step + 1 < weights.depth:
            current = current @ matrix
    # Renormalise the (tiny) truncated mass, as transient_distributions does.
    np.divide(goal_mass, total_mass, out=goal_mass, where=total_mass > 0.0)
    return goal_mass


# --------------------------------------------------------------------------
# CTMDP backward series
# --------------------------------------------------------------------------

#: Each model's resolver, rebuilt when the model's structure version moves.
_RESOLVERS: "weakref.WeakKeyDictionary[CTMDP, Tuple[int, VanishingResolver]]" = (
    weakref.WeakKeyDictionary()
)


def _vanishing_resolver(model: CTMDP) -> VanishingResolver:
    """The (cached) topological resolver of ``model``'s choice structure."""
    cached = _RESOLVERS.get(model)
    if cached is None or cached[0] != model._version:
        choices = [model.choices(state) for state in model.states()]
        cached = (model._version, VanishingResolver(model.num_states, choices))
        _RESOLVERS[model] = cached
    return cached[1]


def _resolve_vanishing(model: CTMDP, values: np.ndarray, maximize: bool) -> np.ndarray:
    """Propagate values through vanishing states (max/min of successors).

    Acyclic vanishing states resolve in one reverse-topological pass;
    cyclic SCCs iterate with a round cap and a cycle of instantaneous
    internal moves that fails to stabilise is rejected (see
    :class:`VanishingResolver`).
    """
    resolved = np.asarray(values, dtype=float).copy()
    return _vanishing_resolver(model).resolve(resolved, maximize)


def time_bounded_reachability_curve_reference(
    model: CTMDP,
    label: str,
    times: Sequence[float],
    maximize: bool = True,
    tolerance: float = 1e-10,
) -> np.ndarray:
    """Reference implementation of the reachability-bound curve.

    The original per-state Python backward value iteration, kept (like
    :func:`poisson_terms_reference`) as an independent implementation for
    the cross-engine differential tests; the production path is the
    vectorised kernel behind :meth:`CTMDP.time_bounded_reachability_curve`.
    """
    times_list = validate_times(times)
    if not times_list:
        return np.zeros(0)
    goal = model.states_with_label(label)
    if not goal:
        return np.zeros(len(times_list))

    uniformization_rate = max(
        (model.exit_rate(s) for s in model.states() if s not in goal), default=0.0
    )
    values = np.array([1.0 if s in goal else 0.0 for s in model.states()])
    values = _resolve_vanishing(model, values, maximize)
    if uniformization_rate == 0.0:
        return np.full(len(times_list), float(values[model.initial]))

    weights = SweepWeights(uniformization_rate, times_list, tolerance)
    depth = weights.depth
    # Markovian step structure, hoisted out of the sweep: for every
    # tangible non-goal state its stay-probability and jump distribution
    # under the uniformised chain.
    steps: List[Tuple[int, float, Tuple[Tuple[int, float], ...]]] = []
    for state in model.states():
        if state in goal or model.is_vanishing(state):
            continue
        steps.append(
            (
                state,
                1.0 - model.exit_rate(state) / uniformization_rate,
                tuple(
                    (target, rate / uniformization_rate)
                    for target, rate in model.rates_from(state)
                ),
            )
        )

    # Backward value iteration: after k steps ``current`` holds the
    # probability of reaching the goal within k uniformisation steps.
    results = np.zeros(len(times_list))
    accumulated = np.zeros(len(times_list))
    current = values
    for step in range(depth):
        rows, column = weights.column(step)
        results[rows] += column * current[model.initial]
        accumulated[rows] += column
        if step + 1 == depth:
            break
        nxt = current.copy()
        for state, stay, jumps in steps:
            total = stay * current[state]
            for target, probability in jumps:
                total += probability * current[target]
            nxt[state] = total
        current = _resolve_vanishing(model, nxt, maximize)
    # Account for the truncated tail: the remaining Poisson mass
    # contributes at most its weight (upper bound) and at least its
    # weight times the deepest computed iterate — the reach probabilities
    # v_k are non-decreasing in k, so the final iterate is a valid lower
    # bound on every truncated term.  (The minimise branch used to drop
    # the tail entirely, biasing the lower bound down by ~tolerance.)
    if maximize:
        results = np.minimum(1.0, results + (1.0 - accumulated))
    else:
        results = results + (1.0 - accumulated) * float(current[model.initial])
    return np.clip(results, 0.0, 1.0)


# --------------------------------------------------------------------------
# dense generator solves
# --------------------------------------------------------------------------

def _forward_reachable(ctmc: CTMC, start: int, stop=frozenset()) -> set:
    """States reachable from ``start``, entering but not leaving ``stop``."""
    seen = {start}
    frontier = [start]
    while frontier:
        state = frontier.pop()
        if state in stop:
            continue
        for target, _rate in ctmc.rates_from(state):
            if target not in seen:
                seen.add(target)
                frontier.append(target)
    return seen


def mean_time_to_label_dense(ctmc: CTMC, label: str) -> float:
    """Expected time until a ``label``-state is first entered (MTTF).

    Solves ``Q h = -1`` on a dense matrix over the non-``label`` states
    reached before a ``label``-state, after checking that every one of them
    can reach a ``label``-state.
    """
    goal = ctmc.states_with_label(label)
    if not goal:
        raise AnalysisError(f"no state carries label {label!r}")
    if ctmc.initial in goal:
        return 0.0
    reached = sorted(_forward_reachable(ctmc, ctmc.initial, goal) - goal)
    predecessors: Dict[int, List[int]] = {state: [] for state in ctmc.states()}
    for source in ctmc.states():
        for target, _rate in ctmc.rates_from(source):
            predecessors[target].append(source)
    reaches_goal = set(goal)
    frontier = list(goal)
    while frontier:
        for source in predecessors[frontier.pop()]:
            if source not in reaches_goal:
                reaches_goal.add(source)
                frontier.append(source)
    if not reaches_goal.issuperset(reached):
        raise AnalysisError(
            f"states labelled {label!r} are not reached with probability one; "
            "the mean time to failure is infinite"
        )
    index = {state: i for i, state in enumerate(reached)}
    matrix = np.zeros((len(reached), len(reached)))
    for state in reached:
        i = index[state]
        matrix[i, i] = -ctmc.exit_rate(state)
        for target, rate in ctmc.rates_from(state):
            if target in index:
                matrix[i, index[target]] += rate
    hitting = np.linalg.solve(matrix, -np.ones(len(reached)))
    if np.any(hitting < -1e-9):
        raise AnalysisError("mean time to failure computation produced negative times")
    return float(hitting[index[ctmc.initial]])


def steady_state_distribution_dense(ctmc: CTMC) -> np.ndarray:
    """Long-run distribution from a dense solve on the one reachable bottom
    component (``pi Q = 0``, one equation replaced by ``sum(pi) = 1``)."""
    reachable = _forward_reachable(ctmc, ctmc.initial)
    bottoms = [
        component
        for component in bottom_strongly_connected_components(ctmc)
        if component[0] in reachable
    ]
    if len(bottoms) > 1:
        raise AnalysisError(
            "the chain has several reachable terminal components; the long-run "
            "distribution depends on which one is entered"
        )
    (component,) = bottoms
    index = {state: i for i, state in enumerate(component)}
    n = len(component)
    generator = np.zeros((n, n))
    for state in component:
        i = index[state]
        for target, rate in ctmc.rates_from(state):
            generator[i, index[target]] += rate
            generator[i, i] -= rate
    system = generator.T.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    if np.any(pi < -1e-9):
        raise AnalysisError("stationary distribution has negative entries")
    pi = np.clip(pi, 0.0, None)
    distribution = np.zeros(ctmc.num_states)
    distribution[component] = pi / pi.sum()
    return distribution


def steady_state_probability_of_label_dense(ctmc: CTMC, label: str) -> float:
    distribution = steady_state_distribution_dense(ctmc)
    return float(sum(distribution[state] for state in ctmc.states_with_label(label)))


# --------------------------------------------------------------------------
# measures of a concrete model
# --------------------------------------------------------------------------

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
    model: Union[CTMC, CTMDP], query: Query, tolerance: float
) -> Tuple[Dict[float, float], Dict[float, Tuple[float, float]]]:
    """Point values and bound curves at the union of all requested times.

    A CTMC runs one forward sweep of :func:`probability_of_label_curve`, and
    its bounds coincide with the point values; a CTMDP runs its bound-sweep
    pair and has no point values.
    """
    if isinstance(model, CTMDP):
        times = _query_bound_times(query)
        if not times:
            return {}, {}
        lower, upper = model.reachability_bounds_curve(
            signals.FAILED_LABEL, times, tolerance=tolerance
        )
        return {}, {
            time: bounds for time, bounds in zip(times, zip(lower.tolist(), upper.tolist()))
        }
    times = query.transient_times()
    if not times:
        return {}, {}
    values = probability_of_label_curve(
        model, signals.FAILED_LABEL, times, tolerance=tolerance
    ).tolist()
    return (
        dict(zip(times, values)),
        {time: (value, value) for time, value in zip(times, values)},
    )


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
    reference: one transient sweep over the union of all mission times (or
    one bound-curve sweep pair for CTMDPs), the dense MTTF and steady-state
    solves above, then each measure reads its values.
    Importance rankings need ``gradient_values`` from a parametric kernel (a
    concrete model carries evaluated floats, so it cannot be differentiated).
    """
    query = _as_query(query)
    point_values, bound_curves = _curves(model, query, tolerance)
    readings = Readings(point_values, bound_curves)
    if isinstance(model, CTMC):
        readings = Readings(
            point_values,
            bound_curves,
            partial(mean_time_to_label_dense, model, signals.FAILED_LABEL),
            partial(steady_state_probability_of_label_dense, model, signals.FAILED_LABEL),
        )
    return measures_from_curves(
        query,
        readings,
        on_error=on_error,
        nondeterministic=isinstance(model, CTMDP),
        gradient_values=gradient_values,
    )
