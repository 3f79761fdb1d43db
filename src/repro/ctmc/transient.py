"""Transient analysis of CTMCs.

The unreliability of a DFT at mission time ``t`` is the probability of being in
a ``"failed"`` state of the final CTMC at time ``t``.  It is computed by
*uniformisation* (also called Jensen's method or randomisation), the standard
numerically robust technique for transient CTMC analysis (Stewart, 1994):

``pi(t) = sum_k PoissonPMF(k; Lambda*t) * pi(0) * P^k`` with
``P = I + Q / Lambda`` and ``Lambda >= max exit rate``.

The series is truncated once the accumulated Poisson mass exceeds
``1 - tolerance``; the truncation error of the result is then bounded by
``tolerance``.  The iterates ``pi(0) * P^k`` do not depend on the time point,
only the Poisson weights do, so a curve over many mission times costs one
series to the deepest truncation.

This module holds the Poisson weights (:func:`poisson_terms` and its
vectorised, cached variants) and the public entry points over a concrete
:class:`~repro.ctmc.ctmc.CTMC`.  The series itself runs in one place,
:class:`~repro.ctmc.kernel.TransientKernel`: every function here that takes
a chain ends in a call on the chain's cached kernel, the same series every
:class:`~repro.core.study.Study` and rate sweep steps.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import special
from scipy.special import gammaln

from ..errors import AnalysisError
from .ctmc import CTMC


def validate_times(times: Sequence[float], tolerance: Optional[float] = None) -> List[float]:
    """Coerce mission times to floats, rejecting non-finite or negative ones.

    The single policy point for every timed evaluation surface (CTMC sweeps,
    CTMDP bound sweeps, measure specs).  A curve entry point passes its
    truncation ``tolerance`` too, so a bad one raises whether or not the
    curve ends up computing a Poisson term.
    """
    times_list = [float(time) for time in times]
    for time in times_list:
        if not math.isfinite(time) or time < 0.0:
            raise AnalysisError(
                f"mission times must be finite and non-negative, got {time}"
            )
    if tolerance is not None:
        _check_tolerance(tolerance)
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
    # NaN beyond Λt ~ 1e11; a depth past int64 would wrap in the cast below.
    unrepresentable = ~(quantiles < 2.0 ** 62)
    if unrepresentable.any():
        raise AnalysisError(
            f"the uniformisation series at Λt = {rates[unrepresentable][0]:g} is too "
            "deep: no truncation depth below 2**62 could be computed"
        )
    return np.maximum(quantiles.astype(np.int64) + 2, 1)


#: The most bytes one float64 Poisson term table may take.  A pass over
#: several rates holds a few temporaries of this size, and the series behind
#: a table this deep would take far longer than any caller waits, so a deeper
#: request (Λt of about 3e7 and up at the default tolerance) is an error
#: before anything is allocated.
TERM_TABLE_BYTES = 1 << 28


def _check_tolerance(tolerance: float) -> None:
    if not 0.0 < tolerance < 1.0:
        raise AnalysisError(f"the truncation tolerance must be in (0, 1), got {tolerance}")


def _check_term_arguments(rate: float, tolerance: float) -> None:
    if not math.isfinite(rate) or rate < 0.0:
        raise AnalysisError("the uniformisation rate times time must be finite and non-negative")
    _check_tolerance(tolerance)


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
    if 8 * int(lengths.sum()) > TERM_TABLE_BYTES:
        deepest = int(lengths.argmax())
        raise AnalysisError(
            f"the uniformisation series at Λt = {positive[deepest]:g} is too deep: "
            f"truncation depth {int(lengths[deepest]) - 1}, while one term table "
            f"holds at most {TERM_TABLE_BYTES // 8} Poisson terms"
        )
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

    No production series uses this class any more: it serves the per-state
    reference series kept as test oracles, and perfbench counts calls of
    :meth:`column` as series steps.

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
    ) -> None:
        cache = PoissonTermCache()
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
) -> np.ndarray:
    """State distributions at each of ``times`` from one uniformisation sweep.

    Returns an array of shape ``(len(times), num_states)`` whose ``i``-th row
    is the distribution at ``times[i]``, started from
    ``initial_distribution`` (default: all mass on the initial state).
    """
    return ctmc.transient_distributions(
        times, tolerance=tolerance, initial_distribution=initial_distribution
    )


def transient_distribution(
    ctmc: CTMC,
    time: float,
    tolerance: float = 1e-12,
    initial_distribution: Optional[np.ndarray] = None,
) -> np.ndarray:
    """State distribution of ``ctmc`` at ``time`` via uniformisation."""
    return ctmc.transient_distribution(
        time, tolerance=tolerance, initial_distribution=initial_distribution
    )


def probability_reach_label(
    ctmc: CTMC, label: str, time: float, tolerance: float = 1e-12
) -> float:
    """Probability that a ``label``-state has been *visited* by ``time``.

    For unreliability the failed states of a DFT are absorbing, so visiting and
    occupying coincide; for repairable systems they differ.  The computation
    makes the labelled states absorbing and runs a transient analysis.
    """
    validate_times([time], tolerance)
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
    return absorbing.probability_of_label(label, time, tolerance=tolerance)


def probability_of_label_curve(
    ctmc: CTMC,
    label: str,
    times: Sequence[float],
    tolerance: float = 1e-12,
) -> np.ndarray:
    """Probability of occupying a ``label``-state at each time, one sweep.

    The series records only the goal and total mass of each iterate, so the
    memory cost is ``O(states + times)`` no matter how many time points the
    curve has.
    """
    return ctmc.probability_of_label_curve(label, times, tolerance=tolerance)
