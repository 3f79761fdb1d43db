"""Tests for the shared-structure CTMDP kernel and the bound-path bugfixes.

Covers the three correctness fixes this engine landed with:

* the truncated-tail correction on the ``maximize=False`` branch (the min
  bound used to silently drop the Poisson tail mass),
* the topological vanishing-state resolution (``_resolve_vanishing`` used to
  round-robin all vanishing states for up to ``num_states + 1`` rounds —
  quadratic on long chains),
* the deduplicated exit-rate accumulation shared by
  ``CsrBuffer.max_exit_rate`` and ``refill``.
"""

import math
import time

import numpy as np
import pytest

from repro.core import Study, signals
from repro.core.sweep import with_rate_parameters
from repro.ctmc import CTMC, CTMDP, CsrBuffer, CtmdpKernel, VanishingResolver
from repro.ctmc.builders import ctmdp_skeleton_from_ioimc
from repro.errors import AnalysisError
from repro.systems import (
    mutually_exclusive_switch,
    pand_race_bank,
    pand_race_system,
    shared_spare_race_system,
)

TIMES = (0.25, 0.5, 1.0, 2.0)


def envelope_of(tree):
    """The parametric CTMDP envelope skeleton of a tree's aggregated model."""
    return ctmdp_skeleton_from_ioimc(Study(tree).final_ioimc)


def vanishing_chain(depth: int) -> CTMDP:
    """Tangible initial -> a ``depth``-long chain of vanishing states -> goal."""
    model = CTMDP(depth + 2, initial=0)
    model.add_rate(0, 1, 2.0)
    for state in range(1, depth + 1):
        model.set_choices(state, [state + 1])
    model.set_labels(depth + 1, ["failed"])
    return model


class TestVanishingResolver:
    def test_deep_chain_is_linear(self):
        # The old round-robin fixpoint needed ~depth rounds over all states
        # (quadratic); the topological pass must handle a 1000-deep chain
        # essentially instantly and still produce the exact CTMC answer.
        model = vanishing_chain(1000)
        start = time.perf_counter()
        low, high = model.reachability_bounds_curve("failed", TIMES)
        elapsed = time.perf_counter() - start
        expected = [1.0 - math.exp(-2.0 * t) for t in TIMES]
        assert np.allclose(low, expected, atol=1e-9)
        assert np.allclose(high, expected, atol=1e-9)
        assert elapsed < 2.0

    def test_resolver_direct_max_min(self):
        # State 0 chooses between terminal values 1 and 2.
        resolver = VanishingResolver(3, ((1, 2), (), ()))
        values = np.array([0.0, 0.25, 0.75])
        assert resolver.resolve(values.copy(), maximize=True)[0] == 0.75
        assert resolver.resolve(values.copy(), maximize=False)[0] == 0.25

    def test_companion_follows_selected_choice(self):
        # The gradient companion must be copied from the argmax/argmin target.
        resolver = VanishingResolver(3, ((1, 2), (), ()))
        values = np.array([0.0, 0.25, 0.75])
        companion = np.array([[0.0], [10.0], [20.0]])
        resolver.resolve(values.copy(), maximize=True, companion=companion)
        assert companion[0, 0] == 20.0
        companion = np.array([[0.0], [10.0], [20.0]])
        resolver.resolve(values.copy(), maximize=False, companion=companion)
        assert companion[0, 0] == 10.0

    def test_companion_through_chain(self):
        # Chains of single choices must propagate the companion transitively.
        resolver = VanishingResolver(4, ((1,), (2,), (3,), ()))
        values = np.array([0.0, 0.0, 0.0, 0.5])
        companion = np.array([[0.0], [0.0], [0.0], [7.0]])
        out = resolver.resolve(values, maximize=True, companion=companion)
        assert out[0] == 0.5
        assert companion[0, 0] == 7.0

    def test_cycle_of_equal_values_stabilises(self):
        # A benign cycle (all members converge to the same value) must not
        # raise; the divergence diagnostic is covered in test_ctmdp.py.
        model = CTMDP(3, initial=0)
        model.set_choices(0, [1])
        model.set_choices(1, [0, 2])
        model.set_labels(2, ["failed"])
        low, high = model.reachability_bounds("failed", 1.0)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert high == pytest.approx(1.0, abs=1e-12)


class TestMinBoundTailCorrection:
    @pytest.mark.parametrize(
        "tree",
        [pand_race_system(), mutually_exclusive_switch(), shared_spare_race_system()],
        ids=["pand-race", "mutex", "shared-spare"],
    )
    def test_min_bound_within_tolerance_of_finer_truncation(self, tree):
        # Before the fix the maximize=False branch dropped the truncated tail
        # entirely, so a coarse tolerance understated the min bound by far
        # more than the tolerance itself.
        model = ctmdp_skeleton_from_ioimc(Study(tree).final_ioimc).instantiate()
        coarse = model.time_bounded_reachability_curve_reference(
            signals.FAILED_LABEL, TIMES, maximize=False, tolerance=1e-6
        )
        fine = model.time_bounded_reachability_curve_reference(
            signals.FAILED_LABEL, TIMES, maximize=False, tolerance=1e-13
        )
        assert np.max(np.abs(coarse - fine)) <= 1e-6


class TestAccumulateExit:
    def test_scan_and_refill_report_identical_lambda(self):
        skeleton = envelope_of(with_rate_parameters(pand_race_system()))
        buffer = CsrBuffer(skeleton)
        for assignment in (None, {"T": 0.3, "A": 1.7, "B": 0.9}):
            scanned = buffer.max_exit_rate(
                None if assignment is None else dict(assignment)
            )
            _matrix, refilled = buffer.refill(
                None if assignment is None else dict(assignment)
            )
            assert scanned == refilled


class TestCtmdpKernel:
    def test_requires_load(self):
        kernel = envelope_of(pand_race_system()).ctmdp_kernel()
        with pytest.raises(AnalysisError):
            kernel.time_bounded_reachability_curve(signals.FAILED_LABEL, TIMES)

    def test_matches_reference_engine_both_directions(self):
        skeleton = envelope_of(pand_race_bank(2))
        kernel = skeleton.ctmdp_kernel()
        kernel.load()
        model = skeleton.instantiate()
        for maximize in (True, False):
            fast = kernel.time_bounded_reachability_curve(
                signals.FAILED_LABEL, TIMES, maximize=maximize, tolerance=1e-12
            )
            slow = model.time_bounded_reachability_curve_reference(
                signals.FAILED_LABEL, TIMES, maximize=maximize, tolerance=1e-12
            )
            assert np.max(np.abs(fast - slow)) <= 1e-9

    def test_ctmdp_curve_delegates_to_kernel(self):
        # CTMDP.time_bounded_reachability_curve now runs on a kernel snapshot
        # of the instance; it must agree with the reference engine.
        skeleton = envelope_of(pand_race_system())
        model = skeleton.instantiate()
        fast = model.time_bounded_reachability_curve(
            signals.FAILED_LABEL, TIMES, maximize=True
        )
        slow = model.time_bounded_reachability_curve_reference(
            signals.FAILED_LABEL, TIMES, maximize=True
        )
        assert np.max(np.abs(fast - slow)) <= 1e-9

    def test_mutation_invalidates_kernel_snapshot(self):
        model = CTMDP(3, initial=0)
        model.add_rate(0, 1, 1.0)
        model.set_labels(1, ["failed"])
        before = model.time_bounded_reachability_curve("failed", (1.0,))
        model.add_rate(0, 2, 3.0)
        after = model.time_bounded_reachability_curve("failed", (1.0,))
        assert before[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
        assert after[0] < before[0]

    def test_deterministic_kernel_matches_ctmc(self):
        rate = 2.0
        skeleton = ctmdp_skeleton_from_ioimc(
            Study(mutually_exclusive_switch()).final_ioimc
        )
        kernel = skeleton.ctmdp_kernel()
        kernel.load()
        lower, upper = kernel.reachability_bounds_curve(
            signals.FAILED_LABEL, TIMES, tolerance=1e-12
        )
        ctmc = Study(mutually_exclusive_switch()).markov_model
        assert isinstance(ctmc, CTMC)
        curve = ctmc.probability_of_label_curve(signals.FAILED_LABEL, TIMES)
        assert np.max(np.abs(lower - curve)) <= 1e-9
        assert np.max(np.abs(upper - curve)) <= 1e-9

    def test_no_goal_label_gives_zero(self):
        kernel = envelope_of(pand_race_system()).ctmdp_kernel()
        kernel.load()
        curve = kernel.time_bounded_reachability_curve("no-such-label", TIMES)
        assert np.all(curve == 0.0)

    def test_empty_times(self):
        kernel = envelope_of(pand_race_system()).ctmdp_kernel()
        kernel.load()
        assert kernel.time_bounded_reachability_curve(signals.FAILED_LABEL, ()).size == 0

    def test_refill_changes_values(self):
        skeleton = envelope_of(with_rate_parameters(pand_race_system()))
        kernel = skeleton.ctmdp_kernel()
        kernel.load({"T": 1.0, "A": 1.0, "B": 1.0})
        slow = kernel.time_bounded_reachability_curve(signals.FAILED_LABEL, TIMES)
        kernel.load({"T": 4.0, "A": 4.0, "B": 4.0})
        fast = kernel.time_bounded_reachability_curve(signals.FAILED_LABEL, TIMES)
        assert np.all(fast >= slow)
        assert fast[0] > slow[0]
        # Reloading the first sample must reproduce its curve bit-identically.
        kernel.load({"T": 1.0, "A": 1.0, "B": 1.0})
        again = kernel.time_bounded_reachability_curve(signals.FAILED_LABEL, TIMES)
        assert np.array_equal(again, slow)


def race_bank_samples(channels=3):
    """A parametric race-bank envelope and rate-scaled samples of it (their
    uniformisation rates, and so their series depths, all differ)."""
    tree = with_rate_parameters(pand_race_bank(channels))
    samples = [
        {name: nominal * scale for name, nominal in tree.parameters.items()}
        for scale in (0.35, 1.0, 2.9, 0.7)
    ]
    return envelope_of(tree), samples


class TestBatchedCtmdpKernel:
    """A stacked backward sweep gives every sample its lone-sweep bounds."""

    @pytest.mark.parametrize("dense_limit", [None, 0])
    @pytest.mark.parametrize("maximize", [True, False])
    def test_batched_bounds_equal_per_sample_sweeps_bitwise(self, dense_limit, maximize):
        from tests.kernel_reference import per_sample_bound_curve

        skeleton, samples = race_bank_samples()
        kernel = CtmdpKernel(skeleton, dense_limit=dense_limit)
        assert kernel.load_many(samples) == [None] * len(samples)
        assert len(set(kernel.buffer.block_rates)) == len(samples)
        curves = kernel.time_bounded_reachability_curve(
            signals.FAILED_LABEL, TIMES, maximize=maximize, tolerance=1e-12
        )
        assert curves.shape == (len(samples), len(TIMES))
        alone = CtmdpKernel(skeleton, dense_limit=dense_limit)
        for sample, curve in zip(samples, curves):
            expected = per_sample_bound_curve(
                alone, sample, signals.FAILED_LABEL, TIMES, maximize, tolerance=1e-12
            )
            assert np.array_equal(curve, expected)

    def test_gradients_and_schedulers_need_a_single_load(self):
        skeleton, samples = race_bank_samples()
        kernel = skeleton.ctmdp_kernel()
        kernel.load_many(samples)
        with pytest.raises(AnalysisError, match="one sample at a time"):
            kernel.gradient_curve(signals.FAILED_LABEL, TIMES)
        with pytest.raises(AnalysisError, match="one sample at a time"):
            kernel.optimal_choices(signals.FAILED_LABEL, TIMES)


class TestStackedResolver:
    """Resolving a stack of value vectors equals resolving each alone."""

    @staticmethod
    def random_choices(seed, num_states=60):
        rng = np.random.default_rng(seed)
        choices = []
        for state in range(num_states):
            if state < 40 and rng.random() < 0.7:
                # Successors only among later states: acyclic waves.
                width = int(rng.integers(1, 4))
                choices.append(tuple(int(t) for t in rng.choice(
                    range(state + 1, num_states), size=width, replace=False)))
            else:
                choices.append(())
        # A benign two-state cycle of instantaneous moves.
        choices[50], choices[51] = (51, 55), (50, 56)
        return choices

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("maximize", [True, False])
    def test_stack_equals_rows(self, seed, maximize):
        choices = self.random_choices(seed)
        resolver = VanishingResolver(len(choices), choices)
        stack = np.random.default_rng(100 + seed).random((5, len(choices)))
        rows = [resolver.resolve(row.copy(), maximize) for row in stack]
        resolver.resolve(stack, maximize)
        for resolved, row in zip(stack, rows):
            assert np.array_equal(resolved, row)

    def test_tracking_needs_a_single_vector(self):
        resolver = VanishingResolver(3, ((1, 2), (), ()))
        with pytest.raises(AnalysisError, match="one vector at a time"):
            resolver.resolve(np.zeros((2, 3)), True, choice_out=np.zeros(3, dtype=np.int64))
