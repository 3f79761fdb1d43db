"""One Markov-model layer: properties of the shared resolver, sweep and kernels.

* ``VanishingResolver.resolve`` reduces every wave by one running column
  max/min: a stack of blocks resolves bit for bit as each block alone, and
  the tracked argbest is the first optimal successor in choice order, or,
  in a cycle of vanishing states, an optimal successor that leads out of the
  cycle whenever one can (checked against a brute-force reference).
* The CTMDP kernel's one backward sweep serves bounds, gradients and
  schedulers: gradients match central finite differences and a pinned
  scheduler attains the bound, on random CTMDPs with vanishing cycles.
* A CTMC skeleton is the choice-free CTMDP skeleton, so the gradient kernel
  of a CTMC is a :class:`CtmdpKernel` on the same skeleton object.
* Every curve checks its truncation tolerance, whether or not a state
  carries the label.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core import Study
from repro.core.study import CompiledModel
from repro.ctmc import CTMC, CTMDP, CsrBuffer, CtmdpKernel, TransientKernel, VanishingResolver
from repro.ctmc.builders import CtmcSkeleton, CtmdpSkeleton
from repro.ctmc.transient import probability_of_label_curve, probability_reach_label
from repro.errors import AnalysisError, ModelError
from repro.ioimc.rates import ParametricRate
from repro.systems import cascaded_pand_system


LIMIT = VanishingResolver._SCALAR_LEVEL_LIMIT
TIE = 1e-15


# ------------------------------------------------------------------ resolver

@st.composite
def choice_structures(draw):
    """Tangible states, two acyclic levels (the first at least ``LIMIT``
    states wide) and a few cycles of vanishing states with optional exits;
    returns the choices and the cycle members."""
    tangible = draw(st.integers(2, 5))
    choices = [()] * tangible
    lower = list(range(tangible))
    for width in (draw(st.integers(LIMIT, LIMIT + 4)), draw(st.integers(0, LIMIT + 2))):
        targets = list(lower)
        for _ in range(width):
            choices.append(
                tuple(draw(st.lists(st.sampled_from(targets), min_size=1, max_size=3, unique=True)))
            )
        lower = list(range(len(choices)))
    cyclic = []
    for size in draw(st.lists(st.integers(1, 3), max_size=3)):
        start = len(choices)
        members = list(range(start, start + size))
        cyclic.extend(members)
        for position, state in enumerate(members):
            inner = members[(position + 1) % size]
            exits = draw(st.lists(st.sampled_from(range(start)), max_size=2, unique=True))
            choices.append(tuple(draw(st.permutations([inner] + exits))))
    return choices, cyclic


def value_vectors(size: int):
    # Few distinct values, so optimal successors often tie.
    value = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0))
    return st.lists(value, min_size=size, max_size=size).map(np.array)


def cycle_of(choices):
    """Each vanishing state's strongly connected set of vanishing states."""
    count = len(choices)
    reach = [set() for _ in range(count)]
    for state in range(count):
        stack = [t for t in choices[state] if choices[t]]
        while stack:
            target = stack.pop()
            if target not in reach[state]:
                reach[state].add(target)
                stack.extend(t for t in choices[target] if choices[t])
    return [
        {t for t in reach[state] if state in reach[t]} if state in reach[state] else set()
        for state in range(count)
    ]


def reference_argbest(choices, values):
    """The first optimal successor; in a cycle, the first optimal one that is
    nearer (in optimal moves) to leaving the cycle, else the first optimal."""
    cycles = cycle_of(choices)
    chosen = {}
    for state, targets in enumerate(choices):
        if targets and not cycles[state]:
            chosen[state] = next(t for t in targets if values[t] == values[state])
    for state, targets in enumerate(choices):
        if not cycles[state] or state in chosen:
            continue
        members = cycles[state]

        def optimal(member):
            return [t for t in choices[member] if abs(values[t] - values[member]) <= TIE]

        # Optimal moves needed to leave the cycle, by brute-force relaxation.
        distance = {member: math.inf for member in members}
        for _ in range(len(members)):
            for member in members:
                for target in optimal(member):
                    step = 1 if target not in members else distance[target] + 1
                    distance[member] = min(distance[member], step)
        for member in members:
            nearer = [
                t for t in optimal(member)
                if t not in members or distance[t] < distance[member]
            ]
            chosen[member] = (nearer or optimal(member))[0]
    return chosen


@given(data=st.data(), maximize=st.booleans())
def test_stack_rows_equal_single_vectors_and_argbest_matches_reference(data, maximize):
    choices, cyclic = data.draw(choice_structures())
    resolver = VanishingResolver(len(choices), choices)
    stack = np.stack([data.draw(value_vectors(len(choices))) for _ in range(3)])
    # Cycle members enter a resolution agreeing, as the sweep's zero start
    # and every converged resolution leave them; a cycle without exits
    # whose members disagree never stabilises.
    stack[:, cyclic] = 0.0
    stacked = resolver.resolve(stack.copy(), maximize)
    for block, start in zip(stacked, stack):
        single = resolver.resolve(start.copy(), maximize)
        assert np.array_equal(block, single)
        tracked = start.copy()
        chosen = np.full(len(choices), -1, dtype=np.int64)
        companion = np.arange(len(choices), dtype=float)[:, None]
        resolver.resolve(tracked, maximize, companion=companion, choice_out=chosen)
        assert np.array_equal(tracked, single)
        expected = reference_argbest(choices, tracked)
        assert {state: int(chosen[state]) for state in expected} == expected
        # Companion rows follow the chosen successors to a tangible state.
        for state in expected:
            seen, target = set(), state
            while choices[target] and target not in seen:
                seen.add(target)
                target = expected[target]
            if not choices[target]:
                assert companion[state, 0] == target


# -------------------------------------------------------------- random CTMDPs

#: The rate of an untargeted pacer state, above any exit rate drawn below:
#: it fixes the uniformisation rate, so finite differences run the very
#: series the gradient differentiates.
PACER_RATE = 10.0


@st.composite
def random_ctmdps(draw):
    """Parametric CTMDP skeletons, every edge its own parameter; vanishing
    states may choose each other, so cycles of vanishing states occur."""
    count = draw(st.integers(3, 7))
    goal = count - 1
    vanishing = draw(st.lists(st.booleans(), min_size=goal, max_size=goal))
    choices, pairs = [], []
    for state in range(goal):
        others = [t for t in range(count) if t != state]
        targets = tuple(draw(st.lists(st.sampled_from(others), min_size=1, max_size=3, unique=True)))
        if vanishing[state]:
            choices.append(targets)
        else:
            choices.append(())
            pairs.extend((state, target) for target in targets)
    assume(pairs)
    rates = draw(
        st.lists(st.floats(0.2, 3.0), min_size=len(pairs), max_size=len(pairs), unique=True)
    )
    ordered = sorted(rates)
    assume(all(b - a > 1e-2 for a, b in zip(ordered, ordered[1:])))
    edges = [
        (source, target, ParametricRate(0.0, {f"p{index}": 1.0}, {f"p{index}": rate}))
        for index, ((source, target), rate) in enumerate(zip(pairs, rates))
    ]
    pacer = count
    edges.append((pacer, goal, PACER_RATE))
    labels = [frozenset()] * goal + [frozenset({"failed"}), frozenset()]
    return CtmdpSkeleton(
        num_states=count + 1,
        initial=0,
        labels=tuple(labels),
        choices=tuple(choices) + ((), ()),
        edges=tuple(edges),
    )


TIMES = (0.5, 1.0)


def central_differences(kernel, maximize):
    nominal = dict(zip(kernel.parameters, kernel.buffer._nominals))
    columns = []
    for name in kernel.parameters:
        h = 1e-5 * nominal[name]
        curves = []
        for shift in (h, -h):
            kernel.load({**nominal, name: nominal[name] + shift})
            curves.append(
                kernel.time_bounded_reachability_curve(
                    "failed", TIMES, maximize=maximize, tolerance=1e-12
                )
            )
        columns.append((curves[0] - curves[1]) / (2.0 * h))
    kernel.load()
    return np.column_stack(columns)


@given(skeleton=random_ctmdps(), maximize=st.booleans())
def test_gradient_matches_central_differences(skeleton, maximize):
    kernel = CtmdpKernel(skeleton)
    kernel.load()
    _curve, gradients = kernel.gradient_curve("failed", TIMES, maximize=maximize, tolerance=1e-12)
    assert np.max(np.abs(gradients - central_differences(kernel, maximize))) <= 1e-6


@given(skeleton=random_ctmdps(), maximize=st.booleans())
def test_pinned_scheduler_attains_the_bound(skeleton, maximize):
    kernel = CtmdpKernel(skeleton)
    kernel.load()
    bound = kernel.time_bounded_reachability_curve("failed", TIMES, maximize=maximize)
    scheduler = kernel.optimal_choices("failed", TIMES, maximize=maximize)
    pinned_choices = tuple(
        (scheduler[state][0],) if state in scheduler else targets
        for state, targets in enumerate(skeleton.choices)
    )
    pinned = CtmdpKernel(
        CtmdpSkeleton(
            num_states=skeleton.num_states,
            initial=skeleton.initial,
            labels=skeleton.labels,
            choices=pinned_choices,
            edges=skeleton.edges,
        )
    )
    pinned.load()
    value = pinned.time_bounded_reachability_curve("failed", TIMES, maximize=maximize)
    # No scheduler beats the bound; one that agrees with the sweep's argbest
    # at every step attains it.
    if maximize:
        assert np.all(value <= bound + 1e-9)
    else:
        assert np.all(value >= bound - 1e-9)
    if all(agreement == 1.0 for _chosen, agreement in scheduler.values()):
        assert np.allclose(value, bound, rtol=0.0, atol=1e-9)


# ------------------------------------------------------ a cycle of vanishing states

def cycle_model():
    """``0 -> {1, 2}``, ``1 -> {0, 4}``, ``2 -> failed`` at 0.5 and
    ``4 -> failed`` at ``a = 2``: the max bound leaves the cycle through
    ``1 -> 4``; the min bound stays in it and never fails."""
    rate = ParametricRate(0.0, {"a": 1.0}, {"a": 2.0})
    return CtmdpSkeleton(
        num_states=5,
        initial=0,
        labels=(frozenset(), frozenset(), frozenset(), frozenset({"failed"}), frozenset()),
        choices=((1, 2), (0, 4), (), (), ()),
        edges=((2, 3, 0.5), (4, 3, rate)),
    )


class TestVanishingCycle:
    def test_gradient_matches_the_closed_form(self):
        kernel = CtmdpKernel(cycle_model())
        kernel.load()
        curve, gradients = kernel.gradient_curve("failed", [1.0], maximize=True, tolerance=1e-12)
        # U = 1 - e^{-a t}, dU/da = t e^{-a t}.
        assert curve[0] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-9)
        assert gradients[0, 0] == pytest.approx(math.exp(-2.0), abs=1e-9)
        curve, gradients = kernel.gradient_curve("failed", [1.0], maximize=False, tolerance=1e-12)
        assert curve[0] == pytest.approx(0.0, abs=1e-9)
        assert gradients[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
    def test_pinned_scheduler_attains_the_bound(self, maximize):
        model = CTMDP(5)
        model.set_labels(3, ["failed"])
        model.set_choices(0, [1, 2])
        model.set_choices(1, [0, 4])
        model.add_rate(2, 3, 0.5)
        model.add_rate(4, 3, 2.0)
        bound = model.time_bounded_reachability("failed", 1.0, maximize=maximize)
        scheduler = model.optimal_scheduler("failed", [1.0], maximize=maximize)
        pinned = CTMDP(5)
        pinned.set_labels(3, ["failed"])
        for state, (chosen, _agreement) in scheduler.items():
            pinned.set_choices(state, [chosen])
        pinned.add_rate(2, 3, 0.5)
        pinned.add_rate(4, 3, 2.0)
        value = pinned.time_bounded_reachability("failed", 1.0, maximize=maximize)
        assert value == pytest.approx(bound, abs=1e-9)
        if maximize:
            assert scheduler[1][0] == 4


# ------------------------------------------------------- one kernel, two skeletons

class TestChoiceFreeSkeleton:
    def test_ctmc_skeleton_choices_are_derived(self):
        skeleton = Study(cascaded_pand_system()).skeleton
        assert isinstance(skeleton, CtmcSkeleton)
        assert skeleton.choices == ((),) * skeleton.num_states
        assert "choices" not in skeleton.__dict__

    def test_gradient_kernel_of_a_ctmc_runs_on_the_same_skeleton(self):
        skeleton = Study(cascaded_pand_system()).skeleton
        model = CompiledModel(skeleton)
        gradient = model.gradient_kernel
        assert isinstance(model.kernel, TransientKernel)
        assert isinstance(gradient, CtmdpKernel)
        assert gradient.skeleton is skeleton
        assert gradient.buffer is not model.kernel.buffer

    def test_ctmdp_kernel_takes_a_prebuilt_buffer(self):
        skeleton = cycle_model()
        buffer = CsrBuffer(skeleton)
        kernel = CtmdpKernel(skeleton, buffer=buffer)
        assert kernel.buffer is buffer and kernel.structure_builds == 1
        with pytest.raises(ModelError, match="different skeleton"):
            CtmdpKernel(cycle_model(), buffer=buffer)


# ------------------------------------------------------------------ tolerances

def _ctmc(label_present: bool) -> CTMC:
    chain = CTMC(2)
    chain.add_rate(0, 1, 1.0)
    if label_present:
        chain.set_labels(1, ["x"])
    return chain


def _ctmdp(label_present: bool) -> CTMDP:
    model = CTMDP(3)
    model.set_choices(0, [1, 2])
    model.add_rate(1, 2, 1.0)
    if label_present:
        model.set_labels(2, ["x"])
    return model


def _curves(label_present: bool):
    chain, model = _ctmc(label_present), _ctmdp(label_present)
    transient, ctmdp = chain._kernel(), model._kernel()
    return [
        lambda tol: transient.probability_of_label_curve("x", [1.0], tolerance=tol),
        lambda tol: transient.transient_distributions([], tolerance=tol),
        lambda tol: ctmdp.time_bounded_reachability_curve("x", [1.0], tolerance=tol),
        lambda tol: ctmdp.reachability_bounds_curve("x", [1.0], tolerance=tol),
        lambda tol: ctmdp.gradient_curve("x", [1.0], tolerance=tol),
        lambda tol: ctmdp.optimal_choices("x", [1.0], tolerance=tol),
        lambda tol: chain.probability_of_label_curve("x", [1.0], tolerance=tol),
        lambda tol: chain.probability_of_label("x", 1.0, tolerance=tol),
        lambda tol: chain.transient_distributions([], tolerance=tol),
        lambda tol: probability_of_label_curve(chain, "x", [1.0], tolerance=tol),
        lambda tol: probability_reach_label(chain, "x", 1.0, tolerance=tol),
        lambda tol: model.time_bounded_reachability_curve("x", [1.0], tolerance=tol),
        lambda tol: model.reachability_bounds("x", 1.0, tolerance=tol),
        lambda tol: model.optimal_scheduler("x", [1.0], tolerance=tol),
    ]


@pytest.mark.parametrize("label_present", [True, False], ids=["label", "no-label"])
@pytest.mark.parametrize("tolerance", [0.0, 1.0, float("nan")], ids=["0", "1", "nan"])
def test_every_curve_checks_its_tolerance(label_present, tolerance):
    for curve in _curves(label_present):
        with pytest.raises(AnalysisError, match="truncation tolerance"):
            curve(tolerance)
