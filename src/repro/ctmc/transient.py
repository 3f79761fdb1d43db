"""Transient analysis of CTMCs.

The unreliability of a DFT at mission time ``t`` is the probability of being in
a ``"failed"`` state of the final CTMC at time ``t``.  The work-horse here is
*uniformisation* (also called Jensen's method or randomisation), the standard
numerically robust technique for transient CTMC analysis (Stewart, 1994):

``pi(t) = sum_k PoissonPMF(k; Lambda*t) * pi(0) * P^k`` with
``P = I + Q / Lambda`` and ``Lambda >= max exit rate``.

The series is truncated adaptively once the accumulated Poisson mass exceeds
``1 - tolerance``; the truncation error of the result is then bounded by
``tolerance``.

Curve evaluation (many mission times on one chain) is vectorised: the matvec
series ``pi(0) * P^k`` does not depend on the time point, only the Poisson
weights do, so :func:`transient_distributions` runs a **single** sweep up to
the largest truncation depth and accumulates every time point's result from
the shared iterates.  A 100-point unreliability curve therefore costs one
uniformisation pass instead of 100.

A dense matrix-exponential variant (:func:`transient_distribution_expm`) is
provided as an independent cross-check used by the test-suite on small models.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import linalg as dense_linalg
from scipy import special, stats
from scipy.special import gammaln

from ..errors import AnalysisError
from .ctmc import CTMC


def validate_times(times: Sequence[float]) -> List[float]:
    """Coerce mission times to floats, rejecting non-finite or negative ones.

    The single policy point for every timed evaluation surface (CTMC sweeps,
    CTMDP bound sweeps, measure specs).
    """
    times_list = [float(time) for time in times]
    for time in times_list:
        if not math.isfinite(time) or time < 0.0:
            raise AnalysisError(
                f"mission times must be finite and non-negative, got {time}"
            )
    return times_list


def _poisson_truncation(rates: np.ndarray, tolerance: float) -> np.ndarray:
    """Truncation depths ``K`` with Poisson right-tail mass below ``tolerance``.

    Vectorised over an array of positive rates.  ``K - 2`` is the Poisson
    quantile of ``1 - tolerance``, computed with the formula
    :func:`scipy.stats.poisson.ppf` applies inside ``(0, 1)``
    (``pdtrik`` inverts the CDF, ``pdtr`` settles the boundary value) but
    without its per-call argument handling, which cost ~80us per rate.
    """
    # Tolerances below the float64 epsilon would round 1 - tolerance up to
    # exactly 1.0, where the quantile function diverges; clamp to the largest
    # representable quantile below one (the tail mass is then already beyond
    # double precision).
    quantile = min(1.0 - tolerance, math.nextafter(1.0, 0.0))
    upper = np.ceil(special.pdtrik(quantile, rates))
    lower = np.maximum(upper - 1.0, 0.0)
    quantiles = np.where(special.pdtr(lower, rates) >= quantile, lower, upper)
    return np.maximum(quantiles.astype(np.int64) + 2, 1)


def _check_term_arguments(rate: float, tolerance: float) -> None:
    if not math.isfinite(rate) or rate < 0.0:
        raise AnalysisError("the uniformisation rate times time must be finite and non-negative")
    if not 0.0 < tolerance < 1.0:
        raise AnalysisError(f"the truncation tolerance must be in (0, 1), got {tolerance}")


def poisson_terms_many(rates: Sequence[float], tolerance: float) -> List[np.ndarray]:
    """:func:`poisson_terms` of every rate, with one vectorised pass over all.

    All truncation depths come from one quantile call and all terms from one
    ``gammaln``/``exp`` pass over the concatenated index ranges.  The
    operations are element-wise, so each array is bit-identical to the one
    a pass over that rate alone computes.
    """
    rates = [float(rate) for rate in rates]
    for rate in rates:
        _check_term_arguments(rate, tolerance)
    positive = np.array([rate for rate in rates if rate > 0.0])
    if not len(positive):
        return [np.array([1.0]) for _rate in rates]
    lengths = _poisson_truncation(positive, tolerance) + 1
    ends = lengths.cumsum()
    starts = ends - lengths
    indices = np.arange(int(ends[-1]), dtype=float) - starts.repeat(lengths)
    logs = np.array([math.log(rate) for rate in positive.tolist()])
    log_terms = (
        indices * logs.repeat(lengths)
        - positive.repeat(lengths)
        - gammaln(indices + 1.0)
    )
    flat = np.exp(log_terms)
    arrays = iter([flat[start:end] for start, end in zip(starts.tolist(), ends.tolist())])
    return [next(arrays) if rate > 0.0 else np.array([1.0]) for rate in rates]


def poisson_terms(rate: float, tolerance: float) -> np.ndarray:
    """Poisson probabilities ``PMF(0..K; rate)`` with tail mass below ``tolerance``.

    The truncation point ``K`` is chosen via the Poisson quantile function so
    that the neglected right tail is at most ``tolerance``; the probabilities
    themselves are evaluated in log space as
    ``exp(k log(rate) - rate - gammaln(k + 1))`` in one vectorised pass —
    stable also for large ``rate``, and far cheaper than a per-term
    :func:`scipy.stats.poisson.pmf` call over the whole index range.  (Left
    truncation is not applied — skipped leading terms would still require the
    corresponding matrix-vector products, so nothing would be saved.)
    """
    return poisson_terms_many([rate], tolerance)[0]


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


class PoissonTermCache:
    """Memoises :func:`poisson_terms` arrays within one evaluation sweep.

    A curve evaluation (or a min/max CTMDP bound pair, which shares the
    uniformisation rate) asks for the same ``rate * time`` products repeatedly;
    the quantile + PMF evaluations are the only scipy work in the hot path and
    are worth sharing.
    """

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: Dict[Tuple[float, float], np.ndarray] = {}

    def get(self, rate: float, tolerance: float) -> np.ndarray:
        return self.get_many([rate], tolerance)[0]

    def get_many(self, rates: Sequence[float], tolerance: float) -> List[np.ndarray]:
        """The term arrays of ``rates``, every missing one in one vectorised pass."""
        cache = self._cache
        try:
            return [cache[(rate, tolerance)] for rate in rates]
        except KeyError:
            missing = list({rate for rate in rates if (rate, tolerance) not in cache})
            for rate, terms in zip(missing, poisson_terms_many(missing, tolerance)):
                cache[(rate, tolerance)] = terms
            return [cache[(rate, tolerance)] for rate in rates]

    def clear(self) -> None:
        """Drop all memoised term arrays (start of a new evaluation sweep)."""
        self._cache.clear()


class SweepWeights:
    """Per-time Poisson weight arrays for one shared uniformisation sweep.

    Stored ragged (one term array per time point) rather than as a dense
    ``(times, depth)`` matrix: one mission time with a deep truncation must
    not inflate memory for every other time point.  :meth:`column` yields, for
    sweep step ``k``, the time-point rows whose truncation is still active
    together with their weights; rows are ordered by truncation depth
    (descending), so the active set is always a prefix.
    """

    __slots__ = ("depth", "_rows", "_arrays", "_active")

    def __init__(
        self,
        uniformization_rate: float,
        times: Sequence[float],
        tolerance: float,
        term_cache: Optional[PoissonTermCache] = None,
    ) -> None:
        cache = term_cache if term_cache is not None else PoissonTermCache()
        arrays = [cache.get(uniformization_rate * time, tolerance) for time in times]
        lengths = np.array([len(array) for array in arrays], dtype=int)
        self.depth = int(lengths.max())
        order = np.argsort(-lengths, kind="stable")
        self._rows = order
        self._arrays = [arrays[row] for row in order]
        # active[k] = number of time points whose truncation exceeds step k.
        histogram = np.bincount(lengths, minlength=self.depth + 1)
        self._active = len(arrays) - np.cumsum(histogram)

    def column(self, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """(row indices, weights) of the time points still active at ``step``."""
        count = int(self._active[step])
        values = np.fromiter(
            (self._arrays[i][step] for i in range(count)), dtype=float, count=count
        )
        return self._rows[:count], values


def transient_distributions(
    ctmc: CTMC,
    times: Sequence[float],
    tolerance: float = 1e-12,
    initial_distribution: Optional[np.ndarray] = None,
    term_cache: Optional[PoissonTermCache] = None,
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
    weights = SweepWeights(uniformization_rate, times_list, tolerance, term_cache)

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
    term_cache: Optional[PoissonTermCache] = None,
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
    weights = SweepWeights(uniformization_rate, times_list, tolerance, term_cache)
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


def unreliability_curve(
    ctmc: CTMC, label: str, times, tolerance: float = 1e-12
) -> np.ndarray:
    """Probability of occupying a ``label``-state for each time in ``times``."""
    return probability_of_label_curve(ctmc, label, times, tolerance=tolerance)
