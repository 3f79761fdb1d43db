"""Continuous-time Markov chains (CTMC).

The final model produced by compositional aggregation of a DFT is (in the
absence of non-determinism) a CTMC whose states carry labels such as
``"failed"``.  This module provides the explicit CTMC representation together
with the measures needed by the paper:

* transient state probabilities (for unreliability at a mission time),
* steady-state probabilities (for unavailability of repairable systems),
* mean time to absorption (mean time to failure).

Every measure runs on :class:`~repro.ctmc.kernel.TransientKernel`, the
package's one uniformisation series and generator solver: the chain builds
a kernel of its own edges on the first measure call and keeps it until a
mutator changes the chain.  States, rates, labels and that cached kernel
live in :class:`_MarkovModel`, which :class:`~repro.ctmc.ctmdp.CTMDP`
shares: a CTMC is the CTMDP without vanishing choice states.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np
from scipy import sparse

from ..errors import ModelError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from .kernel import TransientKernel


class _MarkovModel:
    """What a concrete CTMC and CTMDP share: states, rates, labels, a kernel.

    Every mutator bumps a structure version, so the kernel :meth:`_kernel`
    caches is rebuilt exactly when the model changed.  A subclass names the
    kernel its edges build in :meth:`_new_kernel`.
    """

    def __init__(self, num_states: int, initial: int = 0):
        if num_states <= 0:
            raise ModelError(f"a {type(self).__name__} needs at least one state")
        if not 0 <= initial < num_states:
            raise ModelError(f"initial state {initial} out of range")
        self._num_states = num_states
        self._initial = initial
        self._rates: List[Dict[int, float]] = [dict() for _ in range(num_states)]
        self._labels: List[FrozenSet[str]] = [frozenset() for _ in range(num_states)]
        self._version = 0
        self._engine: Optional[Tuple[int, object]] = None

    # ------------------------------------------------------------------ build
    def add_rate(self, source: int, target: int, rate: float) -> None:
        """Add a transition rate (parallel transitions accumulate)."""
        self._check(source)
        self._check(target)
        if not rate > 0.0:
            raise ModelError(f"rates must be positive, got {rate}")
        self._check_tangible(source)
        if source == target:
            # A rate back to the same state has no observable effect.
            return
        self._rates[source][target] = self._rates[source].get(target, 0.0) + rate
        self._version += 1

    def _check_tangible(self, source: int) -> None:
        """Raise if ``source`` may not carry rates (every state may, here)."""

    def set_labels(self, state: int, labels: Iterable[str]) -> None:
        self._check(state)
        self._labels[state] = frozenset(labels)
        self._version += 1

    def set_initial(self, state: int) -> None:
        self._check(state)
        self._initial = state
        self._version += 1

    # ---------------------------------------------------------------- queries
    @property
    def num_states(self) -> int:
        return self._num_states

    @property
    def initial(self) -> int:
        return self._initial

    def states(self) -> range:
        return range(self._num_states)

    def labels(self, state: int) -> FrozenSet[str]:
        self._check(state)
        return self._labels[state]

    def exit_rate(self, state: int) -> float:
        self._check(state)
        return sum(self._rates[state].values())

    def states_with_label(self, label: str) -> FrozenSet[int]:
        return frozenset(s for s in self.states() if label in self._labels[s])

    # ---------------------------------------------------------------- kernel
    def _edges(self) -> Tuple[Tuple[int, int, float], ...]:
        return tuple(
            (source, target, rate)
            for source, row in enumerate(self._rates)
            for target, rate in row.items()
        )

    def _new_kernel(self):
        raise NotImplementedError

    def _kernel(self):
        """The (cached) kernel of this model's edges, its one sample loaded."""
        cached = self._engine
        if cached is None or cached[0] != self._version:
            kernel = self._new_kernel()
            kernel.load()
            cached = (self._version, kernel)
            self._engine = cached
        return cached[1]

    def _check(self, state: int) -> None:
        if not 0 <= state < self._num_states:
            raise ModelError(f"state {state} out of range (0..{self._num_states - 1})")


class CTMC(_MarkovModel):
    """An explicit-state labelled continuous-time Markov chain."""

    def __init__(self, num_states: int, initial: int = 0):
        super().__init__(num_states, initial)
        self._state_names: List[Optional[str]] = [None] * num_states

    def set_state_name(self, state: int, name: str) -> None:
        self._check(state)
        self._state_names[state] = name
        self._version += 1

    # ---------------------------------------------------------------- queries
    @property
    def num_transitions(self) -> int:
        return sum(len(row) for row in self._rates)

    def state_name(self, state: int) -> str:
        self._check(state)
        name = self._state_names[state]
        return name if name is not None else str(state)

    def rates_from(self, state: int) -> Iterator[Tuple[int, float]]:
        self._check(state)
        return iter(self._rates[state].items())

    def is_absorbing(self, state: int) -> bool:
        self._check(state)
        return not self._rates[state]

    def max_exit_rate(self) -> float:
        return max((self.exit_rate(s) for s in self.states()), default=0.0)

    # ---------------------------------------------------------------- matrices
    def generator_matrix(self, sparse_format: str = "csr") -> sparse.spmatrix:
        """The infinitesimal generator ``Q`` (rows sum to zero)."""
        rows: List[int] = []
        cols: List[int] = []
        data: List[float] = []
        for source in self.states():
            exit_rate = 0.0
            for target, rate in self._rates[source].items():
                rows.append(source)
                cols.append(target)
                data.append(rate)
                exit_rate += rate
            if exit_rate > 0.0:
                rows.append(source)
                cols.append(source)
                data.append(-exit_rate)
        matrix = sparse.coo_matrix(
            (data, (rows, cols)), shape=(self._num_states, self._num_states)
        )
        return matrix.asformat(sparse_format)

    def uniformized_matrix(self, uniformization_rate: Optional[float] = None) -> Tuple[sparse.spmatrix, float]:
        """The uniformized DTMC matrix ``P = I + Q / Lambda`` and the rate used."""
        rate = uniformization_rate if uniformization_rate is not None else self.max_exit_rate()
        if rate <= 0.0:
            rate = 1.0  # chain with no transitions at all
        identity = sparse.identity(self._num_states, format="csr")
        matrix = identity + self.generator_matrix("csr") / rate
        return matrix.tocsr(), rate

    def initial_distribution(self) -> np.ndarray:
        distribution = np.zeros(self._num_states)
        distribution[self._initial] = 1.0
        return distribution

    def indicator(self, states: Sequence[int]) -> np.ndarray:
        vector = np.zeros(self._num_states)
        for state in states:
            self._check(state)
            vector[state] = 1.0
        return vector

    # ---------------------------------------------------------------- measures
    def _new_kernel(self) -> "TransientKernel":
        from .builders import CtmcSkeleton
        from .kernel import TransientKernel

        return TransientKernel(
            CtmcSkeleton(
                num_states=self._num_states,
                initial=self._initial,
                labels=tuple(self._labels),
                state_names=tuple(self._state_names),
                edges=self._edges(),
            )
        )

    def transient_distribution(
        self,
        time: float,
        tolerance: float = 1e-12,
        initial_distribution: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """State distribution at ``time`` via uniformisation."""
        return self.transient_distributions(
            [time], tolerance=tolerance, initial_distribution=initial_distribution
        )[0]

    def transient_distributions(
        self,
        times: Sequence[float],
        tolerance: float = 1e-12,
        initial_distribution: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """State distributions at all ``times`` from one uniformisation sweep.

        Returns an array of shape ``(len(times), num_states)``; the start is
        ``initial_distribution`` (default: all mass on the initial state).
        """
        return self._kernel().transient_distributions(
            times, tolerance=tolerance, initial_distribution=initial_distribution
        )

    def probability_of_label(self, label: str, time: float, tolerance: float = 1e-12) -> float:
        """Probability of being in a ``label``-state at ``time``."""
        return float(self.probability_of_label_curve(label, [time], tolerance=tolerance)[0])

    def probability_of_label_curve(
        self, label: str, times: Sequence[float], tolerance: float = 1e-12
    ) -> np.ndarray:
        """Probability of being in a ``label``-state at each time (one sweep)."""
        return self._kernel().probability_of_label_curve(label, times, tolerance=tolerance)

    def steady_state_distribution(self) -> np.ndarray:
        """Long-run distribution (see :meth:`TransientKernel.steady_state_distribution`)."""
        return self._kernel().steady_state_distribution()

    def steady_state_probability_of_label(self, label: str) -> float:
        return self._kernel().steady_state_probability_of_label(label)

    def mean_time_to_label(self, label: str) -> float:
        """Expected time until a ``label``-state is first entered (MTTF).

        Raises :class:`~repro.errors.AnalysisError` if a ``label``-state is not
        reached with probability one from the initial state.
        """
        return self._kernel().mean_time_to_label(label)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CTMC(states={self.num_states}, transitions={self.num_transitions})"
