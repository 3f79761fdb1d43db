"""Continuous-time Markov decision processes with vanishing choice states.

When a DFT contains inherent non-determinism (Section 4.4 of the paper, e.g.
an FDEP trigger that fails two inputs of a PAND gate "simultaneously"), the
aggregated closed model is not a CTMC: some *vanishing* states offer a
non-deterministic choice between several immediate internal moves.  The paper
follows Baier et al. (2005) and computes *bounds* on the reliability measure —
the best and worst value over all resolutions of the non-determinism.

The model class here is tailored to exactly that structure:

* **tangible** states carry Markovian transitions and let time pass,
* **vanishing** states carry a non-empty set of instantaneous successor
  states; the scheduler picks one, no time passes.

Time-bounded reachability bounds are computed by uniformisation-based value
iteration: the tangible dynamics are uniformised with a global rate and, after
every step, vanishing states take the max (or min) over their successors'
values.  For time-abstract schedulers this is exact up to the Poisson
truncation error; it is reported as the optimistic/pessimistic bound pair used
in the benchmarks.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import AnalysisError, ModelError
from ..graph import strongly_connected_components
from .transient import PoissonTermCache, SweepWeights, validate_times


class VanishingResolver:
    """Vanishing-state max/min propagation in reverse-topological order.

    Precomputed once per choice structure: the SCC condensation of the
    vanishing-state dependency graph (vanishing state -> its vanishing
    successors).  Acyclic vanishing states are grouped into dependency
    *levels* — every state of a level depends only on strictly lower levels —
    and each level resolves in one vectorised segmented reduction, so a chain
    of n vanishing states costs O(n) work instead of the O(n^2) round-robin
    fixpoint it used to.  Genuinely cyclic SCCs (cycles of instantaneous
    internal moves) keep the iterate-with-round-cap treatment, scoped to the
    SCC instead of the whole state space.
    """

    __slots__ = ("_plan", "num_vanishing")

    #: Below this many states a level is resolved with plain Python scalars:
    #: a segmented numpy reduction costs a few microseconds of dispatch per
    #: level, which dominates on the 1-2 state levels of deep chains.
    _SCALAR_LEVEL_LIMIT = 8

    def __init__(self, num_states: int, choices: Sequence[Tuple[int, ...]]):
        vanishing = [state for state in range(num_states) if choices[state]]
        self.num_vanishing = len(vanishing)
        self._plan: List[tuple] = []
        if not vanishing:
            return
        # The vanishing-state dependency graph: tangible successors end a
        # dependency chain, so they are not part of it.
        graph: List[Sequence[int]] = [()] * num_states
        for state in vanishing:
            graph[state] = [target for target in choices[state] if choices[target]]
        order = [
            tuple(sorted(members))
            for members in strongly_connected_components(graph, roots=vanishing)
        ]
        unit_of: Dict[int, int] = {}
        for unit, members in enumerate(order):
            for state in members:
                unit_of[state] = unit
        # Dependency level of each SCC: 0 when its choices lead only to
        # tangible (or same-SCC) states, else 1 + the deepest successor level.
        # Tarjan emits SCCs successors-first, so levels resolve in one pass.
        levels: List[int] = []
        grouped: Dict[int, Tuple[List[int], List[Tuple[int, ...]]]] = {}
        for unit, members in enumerate(order):
            level = 0
            cyclic = len(members) > 1
            for state in members:
                for target in choices[state]:
                    if target == state:
                        cyclic = True
                    elif choices[target] and unit_of[target] != unit:
                        level = max(level, levels[unit_of[target]] + 1)
            levels.append(level)
            singles, cycles = grouped.setdefault(level, ([], []))
            if cyclic:
                cycles.append(members)
            else:
                singles.append(members[0])
        for level in sorted(grouped):
            singles, cycles = grouped[level]
            if singles:
                self._plan.append(self._wave(singles, choices))
            for members in cycles:
                self._plan.append(
                    ("cycle", tuple((state, choices[state]) for state in members))
                )

    @classmethod
    def _wave(cls, states: List[int], choices: Sequence[Tuple[int, ...]]) -> tuple:
        targets = np.fromiter(
            (target for state in states for target in choices[state]), dtype=np.int64
        )
        counts = np.fromiter(
            (len(choices[state]) for state in states), dtype=np.int64, count=len(states)
        )
        offsets = np.zeros(len(states), dtype=np.int64)
        np.cumsum(counts[:-1], out=offsets[1:])
        scalar = (
            tuple((state, choices[state]) for state in states)
            if len(states) < cls._SCALAR_LEVEL_LIMIT
            else None
        )
        # Every state's k-th successor as column k, padded with its first
        # successor (max and min ignore a repeat): a stack of blocks takes a
        # running max/min over the columns, where a segmented reduction
        # would dispatch once per segment and block.
        width = int(counts.max())
        columns = np.array(
            [
                list(choices[state]) + [choices[state][0]] * (width - len(choices[state]))
                for state in states
            ],
            dtype=np.int64,
        ).T
        return (
            "wave",
            np.asarray(states, dtype=np.int64),
            targets,
            offsets,
            counts,
            scalar,
            columns,
        )

    def resolve(
        self,
        values: np.ndarray,
        maximize: bool,
        companion: Optional[np.ndarray] = None,
        choice_out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Overwrite vanishing states with their optimal successor value.

        ``values`` is mutated in place (and returned); it is one
        ``(num_states,)`` vector or a ``(blocks, num_states)`` stack of them,
        each resolved on its own (max/min are exact, so a stacked reduction
        gives every block the value it gets alone).  ``companion`` is an
        optional ``(num_states, k)`` array whose rows follow the same
        successor selection — the CTMDP kernel's gradient block rides along
        through it.  ``choice_out`` is an optional ``(num_states,)`` integer
        array that receives, for every vanishing state, the first successor
        attaining the optimum — the per-state argbest the scheduler
        extraction records.  Both need a single vector.
        """
        tracking = companion is not None or choice_out is not None
        if tracking and values.ndim != 1:
            raise AnalysisError("successor tracking resolves one vector at a time")
        reducer = np.maximum if maximize else np.minimum
        for entry in self._plan:
            if entry[0] == "wave":
                _tag, states, targets, offsets, counts, scalar, columns = entry
                if values.ndim > 1:
                    best = values[:, columns[0]]
                    for column in columns[1:]:
                        reducer(best, values[:, column], out=best)
                    values[:, states] = best
                elif scalar is not None and not tracking:
                    best_of = max if maximize else min
                    for state, successors in scalar:
                        values[state] = best_of(values[t] for t in successors)
                else:
                    picked = values[targets]
                    best = reducer.reduceat(picked, offsets)
                    if tracking:
                        # First successor attaining the optimum, per segment.
                        matches = np.where(
                            picked == np.repeat(best, counts),
                            np.arange(len(targets)),
                            len(targets),
                        )
                        chosen = targets[np.minimum.reduceat(matches, offsets)]
                        if companion is not None:
                            companion[states] = companion[chosen]
                        if choice_out is not None:
                            choice_out[states] = chosen
                    values[states] = best
            elif values.ndim == 1:
                self._resolve_cycle(values, maximize, entry[1], companion, choice_out)
            else:
                for row in values:
                    self._resolve_cycle(row, maximize, entry[1], None)
        return values

    @staticmethod
    def _resolve_cycle(
        values: np.ndarray,
        maximize: bool,
        members: Tuple[Tuple[int, Tuple[int, ...]], ...],
        companion: Optional[np.ndarray],
        choice_out: Optional[np.ndarray] = None,
    ) -> None:
        best_of = max if maximize else min
        for _round in range(len(members) + 1):
            changed = False
            for state, targets in members:
                best = best_of(values[target] for target in targets)
                if not np.isclose(best, values[state], rtol=0.0, atol=1e-15):
                    values[state] = best
                    changed = True
            if not changed:
                break
        else:
            raise AnalysisError(
                "vanishing states do not stabilise: the model contains a cycle of "
                "instantaneous internal moves"
            )
        if companion is not None or choice_out is not None:
            # Follow the converged selection; rows need as many hops to settle
            # as the cycle's diameter, hence the same round cap.
            for _round in range(len(members) + 1):
                for state, targets in members:
                    chosen = targets[0]
                    for target in targets:
                        if values[target] == values[state]:
                            chosen = target
                            break
                    if companion is not None:
                        companion[state] = companion[chosen]
                    if choice_out is not None:
                        choice_out[state] = chosen


class CTMDP:
    """A CTMC enriched with vanishing non-deterministic choice states."""

    def __init__(self, num_states: int, initial: int = 0):
        if num_states <= 0:
            raise ModelError("a CTMDP needs at least one state")
        if not 0 <= initial < num_states:
            raise ModelError(f"initial state {initial} out of range")
        self._num_states = num_states
        self._initial = initial
        self._rates: List[Dict[int, float]] = [dict() for _ in range(num_states)]
        self._choices: List[Tuple[int, ...]] = [() for _ in range(num_states)]
        self._labels: List[FrozenSet[str]] = [frozenset() for _ in range(num_states)]
        # Structure version: bumped by every mutator so the cached resolver
        # and backward-sweep kernel are rebuilt exactly when needed.
        self._version = 0
        self._resolver: Optional[Tuple[int, VanishingResolver]] = None
        self._engine: Optional[Tuple[int, object]] = None

    # ------------------------------------------------------------------ build
    def add_rate(self, source: int, target: int, rate: float) -> None:
        self._check(source)
        self._check(target)
        if not rate > 0.0:
            raise ModelError(f"rates must be positive, got {rate}")
        if self._choices[source]:
            raise ModelError(
                f"state {source} is a vanishing choice state and cannot carry rates"
            )
        if source == target:
            return
        self._rates[source][target] = self._rates[source].get(target, 0.0) + rate
        self._version += 1

    def set_choices(self, source: int, targets: Iterable[int]) -> None:
        """Declare ``source`` vanishing with the given instantaneous successors."""
        self._check(source)
        target_tuple = tuple(dict.fromkeys(targets))
        for target in target_tuple:
            self._check(target)
        if not target_tuple:
            raise ModelError("a vanishing state needs at least one successor")
        if self._rates[source]:
            raise ModelError(
                f"state {source} carries Markovian rates and cannot be vanishing"
            )
        self._choices[source] = target_tuple
        self._version += 1

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

    def is_vanishing(self, state: int) -> bool:
        self._check(state)
        return bool(self._choices[state])

    def choices(self, state: int) -> Tuple[int, ...]:
        self._check(state)
        return self._choices[state]

    def rates_from(self, state: int) -> Sequence[Tuple[int, float]]:
        self._check(state)
        return tuple(self._rates[state].items())

    def exit_rate(self, state: int) -> float:
        self._check(state)
        return sum(self._rates[state].values())

    def states_with_label(self, label: str) -> FrozenSet[int]:
        return frozenset(s for s in self.states() if label in self._labels[s])

    @property
    def has_nondeterminism(self) -> bool:
        return any(len(choice) > 1 for choice in self._choices)

    # --------------------------------------------------------------- analysis
    def _vanishing_resolver(self) -> VanishingResolver:
        """The (cached) topological resolver of this model's choice structure."""
        cached = self._resolver
        if cached is None or cached[0] != self._version:
            cached = (self._version, VanishingResolver(self._num_states, self._choices))
            self._resolver = cached
        return cached[1]

    def _resolve_vanishing(self, values: np.ndarray, maximize: bool) -> np.ndarray:
        """Propagate values through vanishing states (max/min of successors).

        Acyclic vanishing states resolve in one reverse-topological pass;
        cyclic SCCs iterate with a round cap and a cycle of instantaneous
        internal moves that fails to stabilise is rejected (see
        :class:`VanishingResolver`).
        """
        resolved = np.asarray(values, dtype=float).copy()
        return self._vanishing_resolver().resolve(resolved, maximize)

    def _kernel(self):
        """The (cached) shared-structure backward-sweep kernel of this model."""
        from .builders import CtmdpSkeleton
        from .kernel import CtmdpKernel

        cached = self._engine
        if cached is None or cached[0] != self._version:
            skeleton = CtmdpSkeleton(
                num_states=self._num_states,
                initial=self._initial,
                labels=tuple(self._labels),
                choices=tuple(self._choices),
                edges=tuple(
                    (source, target, rate)
                    for source, row in enumerate(self._rates)
                    for target, rate in row.items()
                ),
            )
            kernel = CtmdpKernel(skeleton)
            kernel.load()
            cached = (self._version, kernel)
            self._engine = cached
        return cached[1]

    def time_bounded_reachability_curve(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
        term_cache: Optional[PoissonTermCache] = None,
    ) -> np.ndarray:
        """Optimal reach-``label`` probability at each of ``times``, one sweep.

        The backward value-iteration iterates do not depend on the time point,
        only the Poisson weights do, so all time points share one sweep up to
        the deepest truncation (the curve analogue of
        :func:`repro.ctmc.transient.transient_distributions`).  The sweep runs
        on the vectorised :class:`~repro.ctmc.kernel.CtmdpKernel`;
        :meth:`time_bounded_reachability_curve_reference` keeps the original
        per-state Python engine for differential testing.
        """
        return self._kernel().time_bounded_reachability_curve(
            label, times, maximize=maximize, tolerance=tolerance, term_cache=term_cache
        )

    def time_bounded_reachability_curve_reference(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
        term_cache: Optional[PoissonTermCache] = None,
    ) -> np.ndarray:
        """Reference implementation of the reachability-bound curve.

        The original per-state Python backward value iteration, kept (like
        :func:`repro.ctmc.transient.poisson_terms_reference`) as an
        independent implementation for the cross-engine differential tests;
        the production path is the vectorised kernel behind
        :meth:`time_bounded_reachability_curve`.
        """
        times_list = validate_times(times)
        if not times_list:
            return np.zeros(0)
        goal = self.states_with_label(label)
        if not goal:
            return np.zeros(len(times_list))

        uniformization_rate = max(
            (self.exit_rate(s) for s in self.states() if s not in goal), default=0.0
        )
        values = np.array([1.0 if s in goal else 0.0 for s in self.states()])
        values = self._resolve_vanishing(values, maximize)
        if uniformization_rate == 0.0:
            return np.full(len(times_list), float(values[self._initial]))

        weights = SweepWeights(uniformization_rate, times_list, tolerance, term_cache)
        depth = weights.depth
        # Markovian step structure, hoisted out of the sweep: for every
        # tangible non-goal state its stay-probability and jump distribution
        # under the uniformised chain.
        steps: List[Tuple[int, float, Tuple[Tuple[int, float], ...]]] = []
        for state in self.states():
            if state in goal or self._choices[state]:
                continue
            steps.append(
                (
                    state,
                    1.0 - self.exit_rate(state) / uniformization_rate,
                    tuple(
                        (target, rate / uniformization_rate)
                        for target, rate in self._rates[state].items()
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
            results[rows] += column * current[self._initial]
            accumulated[rows] += column
            if step + 1 == depth:
                break
            nxt = current.copy()
            for state, stay, jumps in steps:
                total = stay * current[state]
                for target, probability in jumps:
                    total += probability * current[target]
                nxt[state] = total
            current = self._resolve_vanishing(nxt, maximize)
        # Account for the truncated tail: the remaining Poisson mass
        # contributes at most its weight (upper bound) and at least its
        # weight times the deepest computed iterate — the reach probabilities
        # v_k are non-decreasing in k, so the final iterate is a valid lower
        # bound on every truncated term.  (The minimise branch used to drop
        # the tail entirely, biasing the lower bound down by ~tolerance.)
        if maximize:
            results = np.minimum(1.0, results + (1.0 - accumulated))
        else:
            results = results + (1.0 - accumulated) * float(current[self._initial])
        return np.clip(results, 0.0, 1.0)

    def time_bounded_reachability(
        self,
        label: str,
        time: float,
        maximize: bool = True,
        tolerance: float = 1e-10,
    ) -> float:
        """Optimal probability of residing in a ``label``-state at ``time``.

        The goal states are made absorbing first (so the value is the
        probability of having reached the goal by ``time``, matching the
        unreliability semantics of absorbing DFT failure states).
        """
        curve = self.time_bounded_reachability_curve(
            label, [time], maximize=maximize, tolerance=tolerance
        )
        return float(curve[0])

    def optimal_scheduler(
        self,
        label: str,
        times: Sequence[float],
        maximize: bool = True,
        tolerance: float = 1e-10,
    ) -> Dict[int, Tuple[int, float]]:
        """Which successor each contested choice state picks in the bound.

        Delegates to :meth:`repro.ctmc.kernel.CtmdpKernel.optimal_choices`:
        for every vanishing state with more than one successor, the successor
        the backward sweep's argbest selects at the deepest iterate, together
        with the fraction of sweep steps that agreed with it (1.0 means the
        same choice at every step — a time-abstract scheduler).
        """
        return self._kernel().optimal_choices(
            label, times, maximize=maximize, tolerance=tolerance
        )

    def reachability_bounds_curve(
        self, label: str, times: Sequence[float], tolerance: float = 1e-10
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(minimum, maximum) reach-``label`` probability curves over ``times``.

        The min and max sweeps share one Poisson term cache (they use the same
        uniformisation rate, so every weight array is computed once).
        """
        cache = PoissonTermCache()
        lower = self.time_bounded_reachability_curve(
            label, times, maximize=False, tolerance=tolerance, term_cache=cache
        )
        upper = self.time_bounded_reachability_curve(
            label, times, maximize=True, tolerance=tolerance, term_cache=cache
        )
        return lower, upper

    def reachability_bounds(
        self, label: str, time: float, tolerance: float = 1e-10
    ) -> Tuple[float, float]:
        """(minimum, maximum) probability of having reached ``label`` by ``time``."""
        lower, upper = self.reachability_bounds_curve(label, [time], tolerance=tolerance)
        return float(lower[0]), float(upper[0])

    # ---------------------------------------------------------------- helpers
    def _check(self, state: int) -> None:
        if not 0 <= state < self._num_states:
            raise ModelError(f"state {state} out of range (0..{self._num_states - 1})")

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        vanishing = sum(1 for s in self.states() if self._choices[s])
        return (
            f"CTMDP(states={self.num_states}, vanishing={vanishing}, "
            f"nondeterministic={self.has_nondeterminism})"
        )
