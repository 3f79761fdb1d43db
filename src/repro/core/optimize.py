"""Russian-doll branch-and-bound over discrete DFT design spaces.

The paper's modular I/O-IMC decomposition makes every independent module an
independently solvable subproblem — exactly the structure Russian Doll Search
(Verfaillie, Lemaitre & Schiex, AAAI'96) exploits.  This module searches a
*design space* over a dynamic fault tree — how many spares each spare gate
keeps, which basic events get a repair crew, how a maintenance budget is
allocated — for the design minimising the (worst-case) unreliability at a
mission time under a cost constraint:

1. **Tables, innermost-first** (:func:`optimize`, table phase): every
   independent module that carries design choices is solved exhaustively on
   its own small state space, recording each local option combination's
   failure-probability bounds and cost.  Nested choice-bearing modules become
   super-variables of their enclosing module's table, as in the original
   Russian-doll scheme.
2. **Global branch-and-bound** (search phase): designs are enumerated
   depth-first, best-declared-option-first.  A partial assignment is pruned
   when (a) it cannot stay within budget, (b) the recorded table bound of a
   top-level module already exceeds the incumbent (OR-top systems: the system
   fails whenever an independent top-level module does), or (c) the lower
   bound of its *optimistic completion* — every unassigned choice taken at
   its most reliable declared option, evaluated through the CTMDP kernel's
   lower envelope (`CtmdpKernel.reachability_bounds_curve`) — exceeds the
   incumbent by more than a 1e-9 safety slack.
3. **Leaves through the cache**: fully-assigned designs evaluate through the
   content-addressed skeleton path (:class:`~repro.service.store.SkeletonStore`
   or an in-memory equivalent), so structurally identical candidates — and the
   optimistic completions the bound already built — pay the pipeline once.

Soundness of rule (c) rests on a *monotonicity* contract: every choice's
options must be declared from least to most reliable **for the system**, and
improving a component must never increase the system failure probability.
Coherent (AND/OR/voting/spare) contexts satisfy this; a component feeding a
non-first PAND/SEQ input or an inhibitor can violate it (making a component
fail later can flip a priority race towards system failure).
:func:`monotonicity_warnings` flags such placements, and
``optimize(..., exhaustive=True)`` is always available as the assumption-free
fallback — the property suite pins pruned == exhaustive on seeded spaces.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass, replace as _dc_replace
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..dft.elements import (
    BasicEvent,
    Element,
    InhibitionConstraint,
    OrGate,
    PandGate,
    SeqGate,
    SpareGate,
)
from ..dft.hashing import canonical_assignment
from ..dft.modules import _independent_module_members, module_members, module_subtree
from ..dft.tree import DynamicFaultTree
from ..errors import AnalysisError
from . import signals
from .aggregation import QuotientMemo
from .results import (
    ModuleTableInfo,
    OptimizeChoice,
    OptimizeResult,
    SchedulerChoice,
)
from .measures import Unreliability, UnreliabilityBounds
from .study import CompiledModel, StudyOptions
from .wire import Key, Layout, Tag

#: Pruning slack: a partial assignment is discarded only when its optimistic
#: lower bound exceeds the incumbent by more than this, so bound-vs-leaf
#: numerical noise (~ solver tolerance, 1e-12) can never prune the optimum.
PRUNE_SLACK = 1e-9

#: Feasible-leaf counting walks the raw assignment space; beyond this size the
#: exact count (and hence the pruning ratio) is reported as unknown instead of
#: spending longer counting than searching.
_COUNT_LIMIT = 1_000_000


# ---------------------------------------------------------------------------
# design choices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpareCountChoice:
    """How many spares a spare gate — or a shared pool of gates — keeps.

    The base tree declares the *maximal* configuration (every candidate spare
    present); option ``counts[i]`` truncates the gate's spare list to its
    first ``counts[i]`` entries, and spares orphaned by the truncation are
    garbage-collected from the candidate tree.  ``gate`` accepts a tuple of
    gates for a shared pool (e.g. two pumps drawing on the same cold spares);
    all listed gates are truncated together.  Declare ``counts`` from least
    to most reliable (ascending) — the last option is the optimistic one the
    pruning bound assumes.
    """

    gate: Union[str, Tuple[str, ...]]
    counts: Tuple[int, ...]
    costs: Tuple[float, ...]

    WIRE = Layout(
        "spares choice", Tag("kind", "spares"), Key("gate", aliases=("gates",)), "counts", "costs",
        strict=True,
    )

    def __post_init__(self) -> None:
        gates = (self.gate,) if isinstance(self.gate, str) else tuple(self.gate)
        object.__setattr__(self, "gate", gates[0] if len(gates) == 1 else gates)
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if not gates:
            raise AnalysisError("a spare-count choice needs at least one gate")
        if len(self.counts) != len(self.costs) or not self.counts:
            raise AnalysisError(
                f"spare-count choice on {gates}: counts and costs must be "
                "non-empty parallel tuples"
            )
        if any(count < 1 for count in self.counts):
            raise AnalysisError(
                f"spare-count choice on {gates}: a spare gate needs >= 1 spare"
            )

    @property
    def gates(self) -> Tuple[str, ...]:
        return (self.gate,) if isinstance(self.gate, str) else self.gate

    @property
    def name(self) -> str:
        return "spares:" + "+".join(self.gates)

    @property
    def num_options(self) -> int:
        return len(self.counts)

    def cost(self, option: int) -> float:
        return self.costs[option]

    def describe(self, option: int) -> str:
        count = self.counts[option]
        return f"{count} spare" + ("" if count == 1 else "s")

    def apply(self, elements: Dict[str, Element], option: int) -> None:
        count = self.counts[option]
        for gate in self.gates:
            element = elements[gate]
            assert isinstance(element, SpareGate)
            elements[gate] = _dc_replace(element, spares=element.spares[:count])

    def affected(self, tree: DynamicFaultTree) -> Set[str]:
        names: Set[str] = set()
        for gate in self.gates:
            element = tree.element(gate)
            assert isinstance(element, SpareGate)
            names.add(gate)
            names.update(element.spares)
        return names


@dataclass(frozen=True)
class RepairChoice:
    """Which repair rate (if any) a basic event gets.

    ``rates[i]`` is the repair rate of option ``i`` — ``None`` means no
    repair crew.  Declare the options from least to most reliable
    (``None`` first, then ascending rates); the last option is the optimistic
    one the pruning bound assumes.
    """

    event: str
    rates: Tuple[Optional[float], ...]
    costs: Tuple[float, ...]

    WIRE = Layout("repair choice", Tag("kind", "repair"), "event", "rates", "costs", strict=True)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "rates",
            tuple(None if r is None else float(r) for r in self.rates),
        )
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if len(self.rates) != len(self.costs) or not self.rates:
            raise AnalysisError(
                f"repair choice on {self.event!r}: rates and costs must be "
                "non-empty parallel tuples"
            )

    @property
    def name(self) -> str:
        return f"repair:{self.event}"

    @property
    def num_options(self) -> int:
        return len(self.rates)

    def cost(self, option: int) -> float:
        return self.costs[option]

    def describe(self, option: int) -> str:
        rate = self.rates[option]
        return "no repair" if rate is None else f"repair rate {rate:g}"

    def apply(self, elements: Dict[str, Element], option: int) -> None:
        element = elements[self.event]
        assert isinstance(element, BasicEvent)
        elements[self.event] = _dc_replace(
            element, repair_rate=self.rates[option], repair_rate_param=None
        )

    def affected(self, tree: DynamicFaultTree) -> Set[str]:
        return {self.event}


DesignChoice = Union[SpareCountChoice, RepairChoice]


@dataclass(frozen=True)
class DesignProblem:
    """A discrete design space over one fault tree plus the objective.

    The objective is the worst-case unreliability at ``mission_time``
    (plain unreliability when the aggregated model is a CTMC, the upper
    envelope when non-determinism survives), minimised subject to
    ``sum(cost of chosen options) <= budget`` (``None`` = unconstrained).
    """

    tree: DynamicFaultTree
    choices: Tuple[DesignChoice, ...]
    mission_time: float = 1.0
    budget: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "choices", tuple(self.choices))
        if not self.choices:
            raise AnalysisError("a design problem needs at least one choice")
        if not self.mission_time > 0.0:
            raise AnalysisError("the mission time must be positive")
        seen: Set[str] = set()
        for choice in self.choices:
            if choice.name in seen:
                raise AnalysisError(f"duplicate design choice {choice.name!r}")
            seen.add(choice.name)
            if isinstance(choice, SpareCountChoice):
                for gate in choice.gates:
                    if gate not in self.tree:
                        raise AnalysisError(f"unknown spare gate {gate!r}")
                    element = self.tree.element(gate)
                    if not isinstance(element, SpareGate):
                        raise AnalysisError(f"{gate!r} is not a spare gate")
                    if max(choice.counts) > len(element.spares):
                        raise AnalysisError(
                            f"spare gate {gate!r} declares {len(element.spares)} "
                            f"candidate spares but the choice asks for "
                            f"{max(choice.counts)}"
                        )
            else:
                if choice.event not in self.tree:
                    raise AnalysisError(f"unknown basic event {choice.event!r}")
                if not isinstance(self.tree.element(choice.event), BasicEvent):
                    raise AnalysisError(f"{choice.event!r} is not a basic event")

    @property
    def space_size(self) -> int:
        size = 1
        for choice in self.choices:
            size *= choice.num_options
        return size

    def assignment_cost(self, assignment: Sequence[int]) -> float:
        return sum(
            choice.cost(option) for choice, option in zip(self.choices, assignment)
        )


def apply_design(
    problem: DesignProblem, assignment: Sequence[int]
) -> DynamicFaultTree:
    """The concrete fault tree of one fully-assigned design.

    Applies every choice's selected option to the base tree's elements, then
    garbage-collects elements no longer reachable from the top event (spares
    truncated out of every gate) so structurally identical designs hash — and
    therefore cache — identically.
    """
    base = problem.tree
    if len(assignment) != len(problem.choices):
        raise AnalysisError(
            f"assignment has {len(assignment)} entries for "
            f"{len(problem.choices)} choices"
        )
    elements: Dict[str, Element] = {
        name: base.element(name) for name in base.names()
    }
    for choice, option in zip(problem.choices, assignment):
        if not 0 <= option < choice.num_options:
            raise AnalysisError(
                f"choice {choice.name!r} has no option {option}"
            )
        choice.apply(elements, option)
    full = DynamicFaultTree(name=base.name)
    for param, nominal in base.parameters.items():
        full.declare_parameter(param, nominal)
    for name in base.names():
        full.add(elements[name])
    full.set_top(base.top)
    live = module_members(full, full.top)
    if len(live) == len(full):
        return full
    pruned = DynamicFaultTree(name=base.name)
    for name in base.names():
        if name not in live:
            continue
        element = elements[name]
        if isinstance(element, BasicEvent):
            for param in (element.failure_rate_param, element.repair_rate_param):
                if param is not None and param not in pruned.parameters:
                    pruned.declare_parameter(param, base.parameter(param))
        pruned.add(element)
    pruned.set_top(base.top)
    return pruned


def monotonicity_warnings(problem: DesignProblem) -> Tuple[str, ...]:
    """Advisory list of choice placements that can break pruning soundness.

    Improving a component that feeds a *non-first* PAND/SEQ input, or that
    acts as an inhibitor, can *increase* the system failure probability
    (delaying one failure can flip a priority race towards the failing
    order), which invalidates the optimistic-completion lower bound.  The
    first input of a PAND is always safe: making it fail later only shrinks
    the set of failure orderings.
    """
    tree = problem.tree
    warnings: List[str] = []
    for choice in problem.choices:
        # Only the elements the choice rewires change behaviour: the gate's
        # output and the candidate spares' activation.  Elements *below* them
        # (e.g. a spare gate's primary) keep their failure law, so the check
        # asks which order-sensitive inputs contain an affected element — not
        # what the affected elements contain.
        cones = choice.affected(tree)
        for name in tree.names():
            element = tree.element(name)
            if isinstance(element, (PandGate, SeqGate)):
                for position, child in enumerate(element.inputs):
                    if position == 0:
                        continue
                    if tree.descendants(child) & cones:
                        warnings.append(
                            f"choice {choice.name!r} affects input "
                            f"{position + 1} of {type(element).__name__} "
                            f"{name!r}; improving it may not be monotone — "
                            f"pruning can be unsound (use exhaustive=True "
                            f"to verify)"
                        )
            elif isinstance(element, InhibitionConstraint):
                if tree.descendants(element.inhibitor) & cones:
                    warnings.append(
                        f"choice {choice.name!r} affects the inhibitor of "
                        f"{name!r}; improving it may not be monotone"
                    )
    return tuple(warnings)


# ---------------------------------------------------------------------------
# evaluation through the content-addressed skeleton path
# ---------------------------------------------------------------------------

class _Evaluator:
    """Leaf/bound evaluation with one compiled model per structural class.

    Every candidate tree resolves to its structural class's skeleton entry —
    through a :class:`~repro.service.store.SkeletonStore` when one is given
    (so candidates persist across runs), through an in-memory dict otherwise —
    compiled once, so re-bounding the same optimistic completion costs a
    single uniformisation sweep.  Without a store the builds of one run
    share one :class:`~repro.core.aggregation.QuotientMemo`, as a store's
    builds share the store's.
    """

    def __init__(
        self,
        options: Optional[StudyOptions],
        store,
        tolerance: float,
    ) -> None:
        self.options = options or StudyOptions()
        self.store = store
        self.tolerance = tolerance
        self._models: Dict[str, CompiledModel] = {}
        self._quotients = QuotientMemo()
        self.builds = 0
        self.cache_hits = 0

    def model_for(self, tree: DynamicFaultTree) -> CompiledModel:
        from ..service.store import build_entry, cache_key

        key = cache_key(tree, self.options)
        model = self._models.get(key)
        if model is not None:
            self.cache_hits += 1
            return model
        if self.store is not None:
            entry, hit = self.store.get_or_build(tree, self.options)
            if hit:
                self.cache_hits += 1
            else:
                self.builds += 1
        else:
            entry = build_entry(tree, self.options, key=key, quotient_memo=self._quotients)
            self.builds += 1
        model = self._models[key] = CompiledModel(entry.skeleton, buffer=entry.buffer)
        return model

    def unreliability(
        self, tree: DynamicFaultTree, time: float
    ) -> Tuple[float, float, bool]:
        """(lower, upper, nondeterministic) failure probability at ``time``."""
        model = self.model_for(tree)
        measure = UnreliabilityBounds if model.nondeterministic else Unreliability
        (result,) = model.evaluate(
            measure([time]), canonical_assignment(tree), tolerance=self.tolerance
        ).measures
        if model.nondeterministic:
            return result.lower[0], result.upper[0], True
        return result.values[0], result.values[0], False

    def scheduler(
        self, tree: DynamicFaultTree, time: float, maximize: bool
    ) -> Tuple[SchedulerChoice, ...]:
        """The argbest scheduler of ``tree``'s bound (empty for CTMCs)."""
        model = self.model_for(tree)
        if not model.nondeterministic:
            return ()
        kernel = model.kernel
        kernel.load(canonical_assignment(tree))
        picks = kernel.optimal_choices(  # type: ignore[union-attr]
            signals.FAILED_LABEL, [time], maximize=maximize, tolerance=self.tolerance
        )
        return tuple(
            SchedulerChoice(state=state, successor=chosen, agreement=agreement)
            for state, (chosen, agreement) in sorted(picks.items())
        )


# ---------------------------------------------------------------------------
# module grouping and Russian-doll tables
# ---------------------------------------------------------------------------

@dataclass
class _ModuleTable:
    """The recorded subproblem of one choice-bearing independent module."""

    root: str
    #: Positions (into ``problem.choices``) this table enumerates — the
    #: module's own choices plus those of every nested choice-bearing module
    #: (the Russian-doll super-variables).
    positions: Tuple[int, ...]
    #: Local option combination -> (lower, upper, cost) at the mission time.
    records: Dict[Tuple[int, ...], Tuple[float, float, float]]

    def best_lower(self, partial: Mapping[int, int]) -> float:
        """Min recorded lower bound over combinations consistent with ``partial``."""
        best = math.inf
        for combo, (lower, _upper, _cost) in self.records.items():
            if all(
                combo[slot] == partial[position]
                for slot, position in enumerate(self.positions)
                if position in partial
            ):
                best = min(best, lower)
        return best


def _inner_modules(tree: DynamicFaultTree) -> Dict[str, FrozenSet[str]]:
    """The members of every independent module but the top, innermost first."""
    return {
        root: members
        for root, members in _independent_module_members(tree).items()
        if root != tree.top
    }


def _choice_positions_by_module(
    problem: DesignProblem,
) -> Tuple[Dict[str, List[int]], List[int]]:
    """Innermost containing module of every choice (and the search order).

    Returns ``(by_module, order)`` where ``by_module`` maps a module root to
    the positions whose affected elements lie entirely inside it (innermost
    wins; the top module does not count — a choice only it contains is
    global), and ``order`` lists all positions innermost-module-first, which
    is the Russian-doll variable order the search assigns in.
    """
    tree = problem.tree
    members = _inner_modules(tree)
    by_module: Dict[str, List[int]] = {}
    rank: Dict[int, int] = {}
    for position, choice in enumerate(problem.choices):
        affected = choice.affected(tree)
        for index, (root, inside) in enumerate(members.items()):
            if affected <= inside:
                by_module.setdefault(root, []).append(position)
                rank[position] = index
                break
        else:
            rank[position] = len(members)
    order = sorted(range(len(problem.choices)), key=lambda p: (rank[p], p))
    return by_module, order


def _build_tables(
    problem: DesignProblem,
    by_module: Dict[str, List[int]],
    evaluator: _Evaluator,
) -> Dict[str, _ModuleTable]:
    """Solve every choice-bearing module exhaustively, innermost-first.

    A module's table ranges over its own choices *and* those of any nested
    choice-bearing module, so an outer table's records already embed the
    inner subproblem — the defining trick of Russian Doll Search.
    """
    tree = problem.tree
    members = _inner_modules(tree)
    optimistic = tuple(choice.num_options - 1 for choice in problem.choices)
    tables: Dict[str, _ModuleTable] = {}
    for root in members:  # innermost-first by construction
        positions = sorted(
            position
            for inner, inner_positions in by_module.items()
            if members[inner] <= members[root]
            for position in inner_positions
        )
        if not positions:
            continue
        records: Dict[Tuple[int, ...], Tuple[float, float, float]] = {}
        combo = [0] * len(positions)
        while True:
            assignment = list(optimistic)
            for slot, position in enumerate(positions):
                assignment[position] = combo[slot]
            candidate = apply_design(problem, assignment)
            subtree = module_subtree(candidate, root)
            lower, upper, _nondet = evaluator.unreliability(
                subtree, problem.mission_time
            )
            cost = sum(
                problem.choices[position].cost(combo[slot])
                for slot, position in enumerate(positions)
            )
            records[tuple(combo)] = (lower, upper, cost)
            for slot in range(len(positions) - 1, -1, -1):
                combo[slot] += 1
                if combo[slot] < problem.choices[positions[slot]].num_options:
                    break
                combo[slot] = 0
            else:
                break
        tables[root] = _ModuleTable(
            root=root, positions=tuple(positions), records=records
        )
    return tables


def _top_level_tables(
    problem: DesignProblem, tables: Dict[str, _ModuleTable]
) -> Tuple[_ModuleTable, ...]:
    """Tables usable for the OR-top prescreen: direct inputs of an OR top.

    The system then fails whenever one of these independent modules does, so
    any recorded module lower bound is a system lower bound.
    """
    top = problem.tree.element(problem.tree.top)
    if not isinstance(top, OrGate):
        return ()
    return tuple(
        tables[child] for child in top.inputs if child in tables
    )


def _count_feasible(problem: DesignProblem) -> Optional[int]:
    """Exact number of within-budget assignments (None beyond the limit)."""
    if problem.space_size > _COUNT_LIMIT:
        return None
    budget = problem.budget
    if budget is None:
        return problem.space_size
    choices = problem.choices
    suffix_min = [0.0] * (len(choices) + 1)
    for position in range(len(choices) - 1, -1, -1):
        suffix_min[position] = suffix_min[position + 1] + min(
            choices[position].costs
        )

    def count(position: int, cost: float) -> int:
        if cost + suffix_min[position] > budget + 1e-9:
            return 0
        if position == len(choices):
            return 1
        return sum(
            count(position + 1, cost + choices[position].cost(option))
            for option in range(choices[position].num_options)
        )

    return count(0, 0.0)


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------

def optimize(
    problem: DesignProblem,
    options: Optional[StudyOptions] = None,
    skeleton_cache=None,
    exhaustive: bool = False,
    tolerance: float = 1e-12,
) -> OptimizeResult:
    """Minimise worst-case unreliability over ``problem``'s design space.

    Runs the Russian-doll table phase and the pruned branch-and-bound
    described in the module docstring; ``exhaustive=True`` disables the
    bound-based pruning (keeping only the budget filter) and evaluates every
    feasible leaf — both modes enumerate in the same order and update the
    incumbent strictly, so they return the identical optimal design whenever
    the pruning bounds are sound.

    ``skeleton_cache`` accepts a :class:`~repro.service.store.SkeletonStore`;
    without one an in-memory content-addressed cache deduplicates the
    structurally identical candidates within this call.
    """
    start_total = _time.perf_counter()
    evaluator = _Evaluator(options, skeleton_cache, tolerance)
    warnings = monotonicity_warnings(problem)
    by_module, order = _choice_positions_by_module(problem)

    start_tables = _time.perf_counter()
    tables: Dict[str, _ModuleTable] = {}
    if not exhaustive:
        tables = _build_tables(problem, by_module, evaluator)
    prescreen = _top_level_tables(problem, tables)
    table_seconds = _time.perf_counter() - start_tables

    choices = problem.choices
    budget = problem.budget
    optimistic = tuple(choice.num_options - 1 for choice in choices)
    suffix_min = [0.0] * (len(order) + 1)
    for depth in range(len(order) - 1, -1, -1):
        suffix_min[depth] = suffix_min[depth + 1] + min(
            choices[order[depth]].costs
        )

    best_value = math.inf
    best_assignment: Optional[Tuple[int, ...]] = None
    best_bounds = (math.inf, math.inf)
    best_nondet = False
    leaves_evaluated = 0
    bound_evaluations = 0
    pruned_by_cost = 0
    pruned_by_table = 0
    pruned_by_envelope = 0
    bound_cache: Dict[Tuple[int, ...], float] = {}

    def envelope_lower(assigned: Dict[int, int]) -> float:
        """Lower bound of the optimistic completion (cached per completion)."""
        nonlocal bound_evaluations
        completion = tuple(
            assigned.get(position, optimistic[position])
            for position in range(len(choices))
        )
        cached = bound_cache.get(completion)
        if cached is not None:
            return cached
        bound_evaluations += 1
        lower, _upper, _nondet = evaluator.unreliability(
            apply_design(problem, completion), problem.mission_time
        )
        bound_cache[completion] = lower
        return lower

    def search(depth: int, assigned: Dict[int, int], cost: float) -> None:
        nonlocal best_value, best_assignment, best_bounds, best_nondet
        nonlocal leaves_evaluated, pruned_by_cost, pruned_by_table
        nonlocal pruned_by_envelope
        if budget is not None and cost + suffix_min[depth] > budget + 1e-9:
            pruned_by_cost += 1
            return
        if depth == len(order):
            assignment = tuple(assigned[position] for position in range(len(choices)))
            lower, upper, nondet = evaluator.unreliability(
                apply_design(problem, assignment), problem.mission_time
            )
            leaves_evaluated += 1
            if upper < best_value:
                best_value = upper
                best_assignment = assignment
                best_bounds = (lower, upper)
                best_nondet = nondet
            return
        if not exhaustive and depth > 0 and best_assignment is not None:
            prescreened = max(
                (table.best_lower(assigned) for table in prescreen),
                default=-math.inf,
            )
            if prescreened > best_value + PRUNE_SLACK:
                pruned_by_table += 1
                return
            if envelope_lower(assigned) > best_value + PRUNE_SLACK:
                pruned_by_envelope += 1
                return
        position = order[depth]
        choice = choices[position]
        for option in range(choice.num_options - 1, -1, -1):  # best-first
            assigned[position] = option
            search(depth + 1, assigned, cost + choice.cost(option))
            del assigned[position]

    start_search = _time.perf_counter()
    search(0, {}, 0.0)
    search_seconds = _time.perf_counter() - start_search

    if best_assignment is None:
        raise AnalysisError(
            "no design fits the budget "
            f"({budget:g}; cheapest assignment costs "
            f"{sum(min(choice.costs) for choice in choices):g})"
        )

    best_tree = apply_design(problem, best_assignment)
    scheduler = evaluator.scheduler(best_tree, problem.mission_time, maximize=True)
    pruning_scheduler: Tuple[SchedulerChoice, ...] = ()
    if not exhaustive:
        root_completion = optimistic
        pruning_scheduler = evaluator.scheduler(
            apply_design(problem, root_completion),
            problem.mission_time,
            maximize=False,
        )

    module_tables = tuple(
        ModuleTableInfo(
            module=table.root,
            choices=tuple(choices[position].name for position in table.positions),
            records=len(table.records),
            best_lower=min(lower for lower, _u, _c in table.records.values()),
            best_upper=min(upper for _l, upper, _c in table.records.values()),
            best_cost=min(
                cost
                for _l, upper, cost in table.records.values()
                if upper
                <= min(u for _l2, u, _c2 in table.records.values()) + PRUNE_SLACK
            ),
        )
        for table in tables.values()
    )
    best_design = tuple(
        OptimizeChoice(
            name=choice.name,
            option_index=option,
            option=choice.describe(option),
            cost=choice.cost(option),
        )
        for choice, option in zip(choices, best_assignment)
    )
    return OptimizeResult(
        tree_name=problem.tree.name,
        mission_time=problem.mission_time,
        budget=budget,
        exhaustive=exhaustive,
        best_design=best_design,
        best_value=best_value,
        best_lower=best_bounds[0],
        best_upper=best_bounds[1],
        best_cost=problem.assignment_cost(best_assignment),
        nondeterministic=best_nondet,
        leaves_feasible=_count_feasible(problem),
        leaves_evaluated=leaves_evaluated,
        bound_evaluations=bound_evaluations,
        pruned_by_cost=pruned_by_cost,
        pruned_by_table=pruned_by_table,
        pruned_by_envelope=pruned_by_envelope,
        module_tables=module_tables,
        scheduler=scheduler,
        pruning_scheduler=pruning_scheduler,
        warnings=warnings,
        cache={"hits": evaluator.cache_hits, "builds": evaluator.builds},
        timings={
            "tables": table_seconds,
            "search": search_seconds,
            "total": _time.perf_counter() - start_total,
        },
    )
