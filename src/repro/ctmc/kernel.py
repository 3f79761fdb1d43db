"""Shared-structure uniformisation kernel for repeated rate instantiations.

A rate sweep instantiates the same :class:`~repro.ctmc.builders.CtmcSkeleton`
hundreds of times with different parameter assignments.  The skeleton's
*structure* — which states exist, which transitions connect them, where the
``failed`` label sits — never changes between samples; only the transition
rates do.  Building a fresh :class:`~repro.ctmc.ctmc.CTMC` and a fresh scipy
CSR matrix per sample therefore re-pays, on every sample, sparse setup work
whose result is bit-for-bit identical in everything except the ``data`` array.

This module eliminates that rebuild:

* :class:`CsrBuffer` precomputes the CSR *pattern* (``indptr``/``indices``)
  of the uniformised matrix ``P = I + Q/Lambda`` once, together with a
  vectorised linear-form representation of every edge rate
  (``rate_e = const_e + sum_p coeff_ep * param_p``).  Refilling under a new
  assignment is two dense matvecs and a scatter-add into the **same**
  ``data`` array — zero sparse-structure allocations.  The buffer also keeps
  the matvec operator the solver actually steps with: a preallocated dense
  copy of ``P`` for small chains (sparse dispatch overhead dwarfs the
  arithmetic there) or a once-built CSR of ``P^T`` whose data is refreshed by
  a precomputed permutation (``x @ P`` through scipy would otherwise
  construct a fresh transposed matrix on *every* step).
* :class:`TransientKernel` owns one buffer plus the Poisson term cache and
  the ``pi(0) * P^k`` workspace, and evaluates label-probability curves with
  the same adaptive-truncation sweep as
  :func:`repro.ctmc.transient.probability_of_label_curve`.

The rate-sweep engine (:mod:`repro.core.sweep`) drives one kernel per worker
process; after the first sample every further sample costs only the refill
and the uniformisation sweep itself.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import sparse

from ..errors import AnalysisError, ModelError
from ..ioimc.rates import ParametricRate
from .builders import CtmcSkeleton, CtmdpSkeleton
from .ctmdp import VanishingResolver
from .transient import PoissonTermCache, validate_times

#: Below this state count the kernel steps with a preallocated dense matrix:
#: a CSR matvec costs ~10-20us of scipy dispatch regardless of size, which
#: dominates the arithmetic of aggregated DFT models (tens of states).
#: Overridable per buffer (``dense_limit=``).
DENSE_STATE_LIMIT = 256


def resolve_dense_limit(dense_limit: Optional[int] = None) -> int:
    """The effective dense/sparse crossover for a new buffer.

    An explicit ``dense_limit`` argument wins over the module default.
    """
    if dense_limit is None:
        return DENSE_STATE_LIMIT
    limit = int(dense_limit)
    if limit < 0:
        raise AnalysisError(f"the dense state limit must be >= 0, got {limit}")
    return limit


class CsrBuffer:
    """Preallocated CSR pattern of a skeleton's uniformised matrix.

    The pattern (``indptr``/``indices``, including a diagonal entry per row)
    and the scatter map from skeleton edges into ``data`` slots are computed
    once in :meth:`__init__`; :meth:`refill` only evaluates the edge rates
    under an assignment and rewrites ``data`` (and the dense or transposed
    stepping operator) in place.  ``structure_builds`` and ``refills`` count
    exactly that split, so regression tests can pin "no pattern rebuild
    after the first sample".
    """

    __slots__ = (
        "skeleton",
        "matrix",
        "dense",
        "transposed",
        "structure_builds",
        "refills",
        "uniformisation_rate",
        "_params",
        "_const",
        "_coeffs",
        "_nominals",
        "_slots",
        "_sources",
        "_targets",
        "_diag",
        "_dense_slots",
        "_dense_diag",
        "_transpose_perm",
        "_edge_values",
        "_exit",
    )

    def __init__(
        self,
        skeleton: Union[CtmcSkeleton, CtmdpSkeleton],
        dense_limit: Optional[int] = None,
    ):
        # The buffer only reads num_states / edges / parameters, which CTMC
        # and CTMDP skeletons share: vanishing states of a CTMDP skeleton
        # simply have no outgoing edges, so their uniformised rows come out
        # as identity rows and the backward kernel overwrites them through
        # its vanishing-state resolver.
        dense_limit = resolve_dense_limit(dense_limit)
        self.skeleton = skeleton
        num_states = skeleton.num_states
        edges = skeleton.edges

        # --- CSR pattern: per row the sorted unique targets plus the diagonal.
        row_targets: List[set] = [set() for _ in range(num_states)]
        for source, target, _rate in edges:
            row_targets[source].add(target)
        indptr = np.zeros(num_states + 1, dtype=np.int64)
        indices: List[int] = []
        diag = np.empty(num_states, dtype=np.int64)
        slot_of: Dict[Tuple[int, int], int] = {}
        for row in range(num_states):
            columns = sorted(row_targets[row] | {row})
            base = len(indices)
            for offset, column in enumerate(columns):
                if column == row:
                    diag[row] = base + offset
                else:
                    slot_of[(row, column)] = base + offset
            indices.extend(columns)
            indptr[row + 1] = len(indices)
        self._diag = diag
        self._slots = np.fromiter(
            (slot_of[(source, target)] for source, target, _rate in edges),
            dtype=np.int64,
            count=len(edges),
        )
        self._sources = np.fromiter(
            (source for source, _target, _rate in edges),
            dtype=np.int64,
            count=len(edges),
        )
        self._targets = np.fromiter(
            (target for _source, target, _rate in edges),
            dtype=np.int64,
            count=len(edges),
        )

        # --- vectorised linear forms: rate_e = const_e + coeffs[e] @ params.
        params = skeleton.parameters
        index = {name: position for position, name in enumerate(params)}
        const = np.zeros(len(edges))
        coeffs = np.zeros((len(edges), len(params)))
        nominals = np.zeros(len(params))
        for edge, (_source, _target, rate) in enumerate(edges):
            if isinstance(rate, ParametricRate):
                const[edge] = rate.const
                for name, coefficient in rate.coeffs.items():
                    coeffs[edge, index[name]] = coefficient
                    nominals[index[name]] = rate.nominals[name]
            else:
                const[edge] = float(rate)
        self._params = params
        self._const = const
        self._coeffs = coeffs
        self._nominals = nominals
        self._edge_values = np.empty(len(edges))
        self._exit = np.empty(num_states)

        data = np.zeros(len(indices))
        self.matrix = sparse.csr_matrix(
            (data, np.asarray(indices, dtype=np.int64), indptr),
            shape=(num_states, num_states),
        )

        # --- the stepping operator (refreshed in place by every refill).
        if num_states <= dense_limit:
            self.dense: Optional[np.ndarray] = np.zeros((num_states, num_states))
            self._dense_slots = self._sources * num_states + self._targets
            self._dense_diag = np.arange(num_states, dtype=np.int64) * (num_states + 1)
            self.transposed: Optional[sparse.csr_matrix] = None
            self._transpose_perm = None
        else:
            self.dense = None
            self._dense_slots = None
            self._dense_diag = None
            # CSC of P shares the pattern of CSR of P^T; tag the data with
            # positions once to learn the CSR -> transposed-CSR permutation.
            tagged = sparse.csr_matrix(
                (np.arange(len(indices), dtype=np.int64), self.matrix.indices, indptr),
                shape=(num_states, num_states),
            ).tocsc()
            self._transpose_perm = np.asarray(tagged.data, dtype=np.int64)
            self.transposed = sparse.csr_matrix(
                (np.zeros(len(indices)), tagged.indices, tagged.indptr),
                shape=(num_states, num_states),
            )

        self.uniformisation_rate = 1.0
        self.structure_builds = 1
        self.refills = 0

    def _evaluate_rates(self, assignment: Optional[Dict[str, float]]) -> np.ndarray:
        """Evaluate every edge rate under ``assignment`` into the shared scratch.

        Raises :class:`~repro.errors.ModelError` if any edge rate evaluates
        to a non-positive value, exactly like the non-buffered
        :meth:`CtmcSkeleton.instantiate` path.
        """
        values = self._edge_values
        if len(self._params):
            if assignment is None:
                point = self._nominals
            else:
                point = np.fromiter(
                    (
                        assignment.get(name, nominal)
                        for name, nominal in zip(self._params, self._nominals)
                    ),
                    dtype=float,
                    count=len(self._params),
                )
            np.dot(self._coeffs, point, out=values)
            values += self._const
        else:
            values[:] = self._const
        if not np.all(values > 0.0):
            worst = float(values.min()) if len(values) else 0.0
            raise ModelError(
                f"instantiating a parametric rate produced a non-positive value "
                f"({worst}); rate-sweep samples must keep every rate positive"
            )
        return values

    def _accumulate_exit(self, values: np.ndarray) -> Tuple[np.ndarray, float]:
        """Per-state exit rates of the evaluated edges, plus the natural Lambda.

        The single accumulation point behind :meth:`max_exit_rate` and
        :meth:`refill`, so the two cannot drift: both scatter the same edge
        values into the shared scratch and apply the same ``Lambda = 1.0``
        fallback for a chain with no transitions at all.
        """
        exit_rates = self._exit
        exit_rates[:] = 0.0
        np.add.at(exit_rates, self._sources, values)
        rate = float(exit_rates.max()) if len(exit_rates) else 0.0
        return exit_rates, (rate if rate > 0.0 else 1.0)

    def max_exit_rate(self, assignment: Optional[Dict[str, float]] = None) -> float:
        """The natural uniformisation rate (max exit rate) under ``assignment``.

        Only the evaluation scratch is touched — the matrix data and the
        stepping operator keep whatever the last :meth:`refill` wrote — so a
        sweep can scan its whole grid for the largest Lambda before refilling
        (the shared-rate path of :class:`TransientKernel`).
        """
        return self._accumulate_exit(self._evaluate_rates(assignment))[1]

    def refill(
        self,
        assignment: Optional[Dict[str, float]] = None,
        rate_floor: Optional[float] = None,
    ) -> Tuple[sparse.csr_matrix, float]:
        """Rewrite the matrix data for ``assignment``; return (matrix, Lambda).

        ``rate_floor`` raises the uniformisation rate to at least that value:
        uniformisation is exact for any Lambda >= the maximal exit rate, and a
        sweep that fixes one Lambda for a whole grid reuses one Poisson term
        table across all samples (see :meth:`TransientKernel.load`).

        A failed refill (non-positive rate) leaves the buffer reusable — the
        next refill rewrites everything.
        """
        values = self._evaluate_rates(assignment)

        exit_rates, rate = self._accumulate_exit(values)
        if rate_floor is not None and float(rate_floor) > rate:
            rate = float(rate_floor)

        data = self.matrix.data
        data[:] = 0.0
        np.add.at(data, self._slots, values)
        data /= rate
        # Edges never target their own source (the skeleton eliminates
        # self-loops), so the diagonal slots received no scatter contribution.
        data[self._diag] = 1.0 - exit_rates / rate

        if self.dense is not None:
            flat = self.dense.reshape(-1)
            flat[:] = 0.0
            np.add.at(flat, self._dense_slots, values)
            flat /= rate
            flat[self._dense_diag] = data[self._diag]
        else:
            self.transposed.data[:] = data[self._transpose_perm]

        self.uniformisation_rate = rate
        self.refills += 1
        return self.matrix, rate

    def step(self, current: np.ndarray, workspace: np.ndarray) -> np.ndarray:
        """One uniformised step ``current @ P`` using the in-place operator.

        Returns the resulting vector — ``workspace`` on the dense path (the
        caller swaps the two buffers), a fresh array on the sparse path.
        """
        if self.dense is not None:
            np.matmul(current, self.dense, out=workspace)
            return workspace
        # CSR-of-P^T matvec: computes x @ P without scipy materialising a
        # transposed matrix per step (which `vector @ csr` would do).
        return self.transposed @ current

    def step_forward(self, current: np.ndarray, workspace: np.ndarray) -> np.ndarray:
        """One backward value-iteration step ``P @ current``.

        The CTMDP kernel sweeps values backwards, so it multiplies from the
        left — the plain CSR (or the dense copy) is already the right
        operator, no transpose needed.  Returns ``workspace`` on the dense
        path, a fresh array on the sparse path.
        """
        if self.dense is not None:
            np.matmul(self.dense, current, out=workspace)
            return workspace
        return self.matrix @ current


class TransientKernel:
    """One skeleton's reusable transient solver across many rate samples.

    Owns the shared CSR buffer, the Poisson term cache and the ``pi(0)``
    workspace; :meth:`load` switches the kernel to a parameter assignment
    and :meth:`probability_of_label_curve` runs the uniformisation sweep on
    the in-place refreshed matrix.  ``dense_limit`` overrides the
    dense/sparse stepping crossover of the underlying buffer.
    """

    __slots__ = (
        "skeleton",
        "buffer",
        "term_cache",
        "_goal",
        "_work_a",
        "_work_b",
        "_loaded",
        "_loaded_rate",
    )

    def __init__(
        self,
        skeleton: CtmcSkeleton,
        dense_limit: Optional[int] = None,
        buffer: Optional[CsrBuffer] = None,
    ):
        self.skeleton = skeleton
        if buffer is not None:
            # A prebuilt buffer (e.g. the CSR pattern a skeleton store cached
            # alongside the skeleton) skips the pattern build entirely.
            if buffer.skeleton is not skeleton:
                raise ModelError(
                    "the CSR buffer was preallocated for a different skeleton"
                )
            self.buffer = buffer
        else:
            self.buffer = CsrBuffer(skeleton, dense_limit=dense_limit)
        self.term_cache = PoissonTermCache()
        self._goal: Dict[str, np.ndarray] = {}
        self._work_a = np.zeros(skeleton.num_states)
        self._work_b = np.zeros(skeleton.num_states)
        self._loaded = False
        self._loaded_rate: Optional[float] = None

    # ----------------------------------------------------------- structure
    @property
    def structure_builds(self) -> int:
        """How many times the CSR pattern was built (pinned to one)."""
        return self.buffer.structure_builds

    @property
    def refills(self) -> int:
        """How many rate instantiations reused the shared pattern."""
        return self.buffer.refills

    def goal_indices(self, label: str) -> np.ndarray:
        """Sorted state indices carrying ``label`` (cached; structure-only)."""
        cached = self._goal.get(label)
        if cached is None:
            cached = np.fromiter(
                (
                    state
                    for state, labels in enumerate(self.skeleton.labels)
                    if label in labels
                ),
                dtype=np.int64,
            )
            self._goal[label] = cached
        return cached

    # ------------------------------------------------------------- samples
    def load(
        self,
        assignment: Optional[Dict[str, float]] = None,
        rate_floor: Optional[float] = None,
    ) -> float:
        """Refill the shared matrix for ``assignment``; return Lambda.

        With a ``rate_floor`` (>= every sample's natural maximal exit rate)
        the uniformisation rate is pinned across samples, so the Poisson term
        table of each requested time survives from one load to the next — a
        grid sweep then builds its term arrays once instead of per sample.
        """
        _matrix, rate = self.buffer.refill(
            None if assignment is None else dict(assignment), rate_floor=rate_floor
        )
        # Every rate*time cache key changes with the uniformisation rate, so
        # entries from a sample with a different Lambda would accumulate
        # forever without ever hitting.  With an unchanged Lambda (a shared
        # rate floor, or samples that happen to agree) the cached term arrays
        # are exactly the ones the next curve evaluation needs — keep them.
        if rate != self._loaded_rate:
            self.term_cache.clear()
            self._loaded_rate = rate
        self._loaded = True
        return rate

    def probability_of_label_curve(
        self,
        label: str,
        times: Sequence[float],
        tolerance: float = 1e-12,
    ) -> np.ndarray:
        """Probability of occupying a ``label``-state at each time, one sweep.

        The numerical scheme is identical to
        :func:`repro.ctmc.transient.probability_of_label_curve`; only the
        matrix comes from the shared buffer (call :meth:`load` first), the
        Poisson term arrays are cached across samples, and the per-time
        weights are applied after the shared matvec series instead of inside
        the step loop.
        """
        if not self._loaded:
            raise AnalysisError(
                "the transient kernel has no sample loaded; call load() first"
            )
        times_list = validate_times(times)
        goal = self.goal_indices(label)
        if not len(goal) or not times_list:
            return np.zeros(len(times_list))

        buffer = self.buffer
        rate = buffer.uniformisation_rate
        terms = [self.term_cache.get(rate * time, tolerance) for time in times_list]
        depth = max(len(array) for array in terms)

        # Shared matvec series: per step only the goal and total masses are
        # needed, so record those two scalars instead of every iterate.
        goal_series = np.empty(depth)
        total_series = np.empty(depth)
        current = self._work_a
        current[:] = 0.0
        current[self.skeleton.initial] = 1.0
        workspace = self._work_b
        for step in range(depth):
            goal_series[step] = current[goal].sum()
            total_series[step] = current.sum()
            if step + 1 < depth:
                previous = current
                current = buffer.step(current, workspace)
                workspace = previous

        goal_mass = np.fromiter(
            (array @ goal_series[: len(array)] for array in terms),
            dtype=float,
            count=len(terms),
        )
        total_mass = np.fromiter(
            (array @ total_series[: len(array)] for array in terms),
            dtype=float,
            count=len(terms),
        )
        # Renormalise the (tiny) truncated mass, as transient_distributions does.
        np.divide(goal_mass, total_mass, out=goal_mass, where=total_mass > 0.0)
        return goal_mass

    def point_values(
        self,
        label: str,
        times: Sequence[float],
        assignment: Optional[Dict[str, float]] = None,
        tolerance: float = 1e-12,
    ) -> Dict[float, float]:
        """Load ``assignment`` and map each time to its label probability."""
        self.load(assignment)
        times_list = validate_times(times)
        curve = self.probability_of_label_curve(label, times_list, tolerance)
        return dict(zip(times_list, (float(value) for value in curve)))


class CtmdpKernel:
    """One CTMDP skeleton's reusable bound solver across many rate samples.

    The backward-sweep analogue of :class:`TransientKernel`: the uniformised
    CSR pattern and the vectorised linear-form rate table live in a shared
    :class:`CsrBuffer`, :meth:`load` refills the data in place per sample, and
    :meth:`time_bounded_reachability_curve` replaces the per-state Python
    value iteration of :meth:`repro.ctmc.ctmdp.CTMDP` with sparse (or small-
    dense) matvecs plus a topologically-ordered vanishing-state resolution
    (:class:`~repro.ctmc.ctmdp.VanishingResolver`).

    Because every edge rate is an exact linear form
    ``rate_e = const_e + coeffs[e] @ params``, the derivative of the
    uniformised generator w.r.t. each parameter is a *constant* sparse
    matrix; :meth:`gradient_curve` rides an ``(states x params)`` derivative
    block along the same sweep and returns the gradient of the bound curve
    w.r.t. every failure-rate parameter in one extra pass (Birnbaum-style
    component importance).

    Numerical conventions (both differ from the reference engine only within
    the truncation tolerance, which the differential tests pin):

    * the uniformisation rate is the maximal exit rate over *all* tangible
      states (label-independent, so one Lambda serves every label and both
      bound directions, and the Poisson term cache survives across them);
    * the truncated Poisson tail adds ``1 - accumulated`` on the maximise
      branch and ``(1 - accumulated) * v_final`` on the minimise branch — the
      iterates are non-decreasing in the step count, so the deepest computed
      iterate is a valid lower bound on every truncated term.
    """

    __slots__ = (
        "skeleton",
        "buffer",
        "resolver",
        "term_cache",
        "_goal",
        "_update",
        "_work_a",
        "_work_b",
        "_loaded",
        "_loaded_rate",
    )

    def __init__(
        self,
        skeleton: CtmdpSkeleton,
        dense_limit: Optional[int] = None,
    ):
        self.skeleton = skeleton
        self.buffer = CsrBuffer(skeleton, dense_limit=dense_limit)
        self.resolver = VanishingResolver(skeleton.num_states, skeleton.choices)
        self.term_cache = PoissonTermCache()
        self._goal: Dict[str, np.ndarray] = {}
        self._update: Dict[str, np.ndarray] = {}
        self._work_a = np.zeros(skeleton.num_states)
        self._work_b = np.zeros(skeleton.num_states)
        self._loaded = False
        self._loaded_rate: Optional[float] = None

    # ----------------------------------------------------------- structure
    @property
    def structure_builds(self) -> int:
        """How many times the CSR pattern was built (pinned to one)."""
        return self.buffer.structure_builds

    @property
    def refills(self) -> int:
        """How many rate instantiations reused the shared pattern."""
        return self.buffer.refills

    @property
    def parameters(self) -> Tuple[str, ...]:
        """The skeleton's sorted rate-parameter names (gradient column order)."""
        return self.buffer._params

    def goal_indices(self, label: str) -> np.ndarray:
        """Sorted state indices carrying ``label`` (cached; structure-only)."""
        cached = self._goal.get(label)
        if cached is None:
            cached = np.fromiter(
                (
                    state
                    for state, labels in enumerate(self.skeleton.labels)
                    if label in labels
                ),
                dtype=np.int64,
            )
            self._goal[label] = cached
        return cached

    def update_indices(self, label: str) -> np.ndarray:
        """Tangible non-``label`` states — the rows the matvec step rewrites.

        Goal states stay absorbing at value 1 and vanishing states are
        rewritten by the resolver, so neither takes the Markovian update.
        """
        cached = self._update.get(label)
        if cached is None:
            choices = self.skeleton.choices
            cached = np.fromiter(
                (
                    state
                    for state, labels in enumerate(self.skeleton.labels)
                    if label not in labels and not choices[state]
                ),
                dtype=np.int64,
            )
            self._update[label] = cached
        return cached

    # ------------------------------------------------------------- samples
    def max_exit_rate(self, assignment: Optional[Dict[str, float]] = None) -> float:
        """The natural uniformisation rate under ``assignment`` (scan only)."""
        return self.buffer.max_exit_rate(assignment)

    def load(
        self,
        assignment: Optional[Dict[str, float]] = None,
        rate_floor: Optional[float] = None,
    ) -> float:
        """Refill the shared matrix for ``assignment``; return Lambda.

        Exactly like :meth:`TransientKernel.load`: with a ``rate_floor``
        (>= every sample's natural maximal exit rate) the Poisson term table
        survives from one sample to the next.
        """
        _matrix, rate = self.buffer.refill(
            None if assignment is None else dict(assignment), rate_floor=rate_floor
        )
        if rate != self._loaded_rate:
            self.term_cache.clear()
            self._loaded_rate = rate
        self._loaded = True
        return rate

    # --------------------------------------------------------------- curves
    def _initial_values(self, goal: np.ndarray, maximize: bool) -> np.ndarray:
        values = np.zeros(self.skeleton.num_states)
        values[goal] = 1.0
        self.resolver.resolve(values, maximize)
        return values

    def time_bounded_reachability_curve(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
        term_cache: Optional[PoissonTermCache] = None,
    ) -> np.ndarray:
        """Optimal reach-``label`` probability at each of ``times``, one sweep.

        All time points share one backward value iteration up to the deepest
        Poisson truncation; the per-time weights are applied to the recorded
        initial-state series afterwards (the backward analogue of
        :meth:`TransientKernel.probability_of_label_curve`).
        """
        curve, _gradients = self._sweep(
            label, times, maximize, tolerance, term_cache, with_gradients=False
        )
        return curve

    def gradient_curve(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
        term_cache: Optional[PoissonTermCache] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The bound curve plus its gradient w.r.t. every rate parameter.

        Returns ``(curve, gradients)`` where ``gradients[i, j]`` is the
        partial derivative of ``curve[i]`` w.r.t. ``self.parameters[j]``,
        computed forward-mode: ``dP/dparam_j`` is a constant sparse matrix
        (linear-form rates), so a ``(states x params)`` derivative block
        propagates alongside the value iteration, following the max/min
        successor selection through vanishing states.  The uniformisation
        rate is held fixed under differentiation, which is exact in the limit
        because the uniformised value is Lambda-invariant for any
        Lambda >= the maximal exit rate.
        """
        curve, gradients = self._sweep(
            label, times, maximize, tolerance, term_cache, with_gradients=True
        )
        assert gradients is not None
        return curve, gradients

    def reachability_bounds_curve(
        self,
        label: str,
        times: Sequence[float],
        tolerance: float = 1e-10,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(minimum, maximum) reach-``label`` curves over ``times``.

        Both directions share the loaded sample, the uniformisation rate and
        therefore every cached Poisson term array.
        """
        lower = self.time_bounded_reachability_curve(
            label, times, maximize=False, tolerance=tolerance
        )
        upper = self.time_bounded_reachability_curve(
            label, times, maximize=True, tolerance=tolerance
        )
        return lower, upper

    def optimal_choices(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
    ) -> Dict[int, Tuple[int, float]]:
        """The scheduler behind the bound: per-state argbest of the sweep.

        Re-runs the backward value iteration of
        :meth:`time_bounded_reachability_curve` with the resolver recording,
        at every step, which successor each contested vanishing state (more
        than one choice) picks.  Returns ``{state: (chosen, agreement)}``
        where ``chosen`` is the successor selected at the deepest iterate —
        the long-horizon decision the reported bound actually takes — and
        ``agreement`` is the fraction of sweep steps whose argbest matched
        it, a stability indicator across the time horizon (1.0 = the same
        choice at every step, i.e. a genuinely time-abstract scheduler).
        """
        if not self._loaded:
            raise AnalysisError(
                "the CTMDP kernel has no sample loaded; call load() first"
            )
        times_list = validate_times(times)
        choices = self.skeleton.choices
        contested = [
            state
            for state in range(self.skeleton.num_states)
            if len(choices[state]) > 1
        ]
        if not contested or not times_list:
            return {}
        goal = self.goal_indices(label)
        if not len(goal):
            return {}
        values = np.zeros(self.skeleton.num_states)
        values[goal] = 1.0
        choice_now = np.full(self.skeleton.num_states, -1, dtype=np.int64)
        self.resolver.resolve(values, maximize, choice_out=choice_now)
        counts: Dict[int, Dict[int, int]] = {state: {} for state in contested}

        def record() -> None:
            for state in contested:
                picked = int(choice_now[state])
                counts[state][picked] = counts[state].get(picked, 0) + 1

        record()
        steps = 1
        if len(self.buffer._sources):
            buffer = self.buffer
            rate = buffer.uniformisation_rate
            terms = [self.term_cache.get(rate * time, tolerance) for time in times_list]
            depth = max(len(array) for array in terms)
            update = self.update_indices(label)
            current = self._work_a
            current[:] = values
            workspace = self._work_b
            for _step in range(depth - 1):
                nxt = buffer.step_forward(current, workspace)
                current[update] = nxt[update]
                self.resolver.resolve(current, maximize, choice_out=choice_now)
                record()
                steps += 1
        return {
            state: (
                int(choice_now[state]),
                counts[state][int(choice_now[state])] / steps,
            )
            for state in contested
        }

    def _sweep(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool,
        tolerance: float,
        term_cache: Optional[PoissonTermCache],
        with_gradients: bool,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if not self._loaded:
            raise AnalysisError(
                "the CTMDP kernel has no sample loaded; call load() first"
            )
        times_list = validate_times(times)
        num_params = len(self.buffer._params)
        empty = np.zeros((len(times_list), num_params)) if with_gradients else None
        if not times_list:
            return np.zeros(0), empty
        goal = self.goal_indices(label)
        if not len(goal):
            return np.zeros(len(times_list)), empty
        values = self._initial_values(goal, maximize)
        initial = self.skeleton.initial
        if not len(self.buffer._sources):
            # No Markovian transitions anywhere: nothing ever moves.
            return np.full(len(times_list), float(values[initial])), empty

        buffer = self.buffer
        rate = buffer.uniformisation_rate
        cache = term_cache if term_cache is not None else self.term_cache
        terms = [cache.get(rate * time, tolerance) for time in times_list]
        depth = max(len(array) for array in terms)
        update = self.update_indices(label)

        gradients = with_gradients and num_params > 0
        current = self._work_a
        current[:] = values
        workspace = self._work_b
        series = np.empty(depth)
        if gradients:
            derivative = np.zeros((self.skeleton.num_states, num_params))
            derivative_series = np.empty((depth, num_params))
            scatter = np.empty_like(derivative)
            sources = buffer._sources
            targets = buffer._targets
            coeffs = buffer._coeffs
        for step in range(depth):
            series[step] = current[initial]
            if gradients:
                derivative_series[step] = derivative[initial]
            if step + 1 == depth:
                break
            nxt = buffer.step_forward(current, workspace)
            if gradients:
                # d(P v)/dparam = P dv + (dP/dparam) v, and dP/dparam has
                # off-diagonal entries coeff_e/Lambda with the matching
                # -sum(coeff)/Lambda on the diagonal, so its action on v is a
                # scatter of coeff_e * (v[target] - v[source]) / Lambda.
                contrib = coeffs * ((current[targets] - current[sources]) / rate)[:, None]
                scatter[:] = 0.0
                np.add.at(scatter, sources, contrib)
                if buffer.dense is not None:
                    propagated = buffer.dense @ derivative
                else:
                    propagated = buffer.matrix @ derivative
                derivative[update] = propagated[update] + scatter[update]
            current[update] = nxt[update]
            self.resolver.resolve(
                current, maximize, companion=derivative if gradients else None
            )

        results = np.fromiter(
            (array @ series[: len(array)] for array in terms),
            dtype=float,
            count=len(terms),
        )
        accumulated = np.fromiter(
            (array.sum() for array in terms), dtype=float, count=len(terms)
        )
        tail = 1.0 - accumulated
        gradient_rows: Optional[np.ndarray] = None
        if with_gradients:
            gradient_rows = np.zeros((len(times_list), num_params))
            if gradients:
                for row, array in enumerate(terms):
                    gradient_rows[row] = array @ derivative_series[: len(array)]
        if maximize:
            raw = results + tail
            if gradient_rows is not None:
                # min(1, .) clips: where the tail pushed past 1 the bound is
                # locally constant, so its gradient vanishes.
                gradient_rows[raw > 1.0] = 0.0
            results = np.minimum(1.0, raw)
        else:
            results = results + tail * float(series[depth - 1])
            if gradient_rows is not None and gradients:
                gradient_rows += tail[:, None] * derivative_series[depth - 1]
        return np.clip(results, 0.0, 1.0), gradient_rows
