"""Cross-engine differential test matrix for the rate-sweep pipeline.

The reusable backbone for every future engine variant: a fixture corpus
(paper systems + seeded ``random_dft`` trees including FDEP and shared-spare
patterns) crossed with

* the two bisimulation engines — ``splitter`` and ``signature`` — and
* the three sweep paths — serial shared-structure kernel, chunked process
  pool, and naive full-pipeline re-runs per sample —

asserting row-for-row agreement to ``<= 1e-9`` (and bit-identity between the
serial and parallel kernel paths and batches of one sample).  The figure 2 composition example is
covered at the I/O-IMC level, where the sweep kernel's refilled matrix must
reproduce a numeric rebuild of the whole compose + hide + minimise pipeline.

The full matrix is heavy, so everything except a tier-1 smoke slice carries
the ``slow`` marker; the CI full-matrix job runs it under the ``full``
Hypothesis profile (``HYPOTHESIS_PROFILE=full pytest -m slow``).
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import (
    RateSweep,
    StudyOptions,
    SweepStudy,
    Unreliability,
    UnreliabilityBounds,
    evaluate,
)
from repro.core import Study, signals
from repro.core.sweep import substitute_parameters, with_rate_parameters
from repro.ctmc.builders import ctmc_skeleton_from_ioimc, ctmdp_skeleton_from_ioimc
from repro.ctmc.kernel import TransientKernel
from repro.ioimc import AggregationOptions, minimize_weak, parallel
from repro.systems import (
    cardiac_assist_system,
    cascaded_pand_system,
    figure2_models,
    mutually_exclusive_switch,
    pand_race_bank,
    pand_race_system,
    random_dft,
    shared_spare_race_system,
)

from tests.reduction_reference import canonical_form
from tests.series_reference import (
    probability_of_label_curve,
    time_bounded_reachability_curve_reference,
)
from tests.sweep_reference import batches_of, per_sample_rows

MISSION_TIMES = (0.5, 1.0)
TOLERANCE = 1e-9
MINIMISERS = ("splitter", "signature")


def _options(minimiser):
    return StudyOptions(aggregation=AggregationOptions(minimiser=minimiser))


def _corpus_tree(name):
    if name == "cas":
        return with_rate_parameters(cardiac_assist_system(), ["P", "MA", "PA"])
    if name == "cps":
        events = {f"{m}{i}": "lam" for m in ("A", "C", "D") for i in range(1, 5)}
        return with_rate_parameters(cascaded_pand_system(), events)
    if name == "mutex":
        return with_rate_parameters(mutually_exclusive_switch(), ["SO", "SC", "Pump"])
    raise AssertionError(name)


def _corpus_samples(tree, count=4):
    """A deterministic spread of per-parameter scalings around the nominals."""
    scales = [0.35, 0.8, 1.6, 2.9, 0.55, 2.2][:count]
    return [
        {
            name: max(0.05, min(5.0, nominal * scale))
            for name, nominal in tree.parameters.items()
        }
        for scale in scales
    ]

# Shared pipelines: one conversion + aggregation per (system, minimiser) cell
# for the whole module; the matrix only re-runs the cheap per-sample paths.
_STUDIES = {}


def _study(name, minimiser):
    key = (name, minimiser)
    if key not in _STUDIES:
        _STUDIES[key] = SweepStudy(_corpus_tree(name), _options(minimiser))
    return _STUDIES[key]


def assert_rows_match_bitwise(rows, others):
    assert len(rows) == len(others)
    for mine, theirs in zip(rows, others):
        assert mine.sample == theirs.sample
        assert mine.measures == theirs.measures  # bit-identical floats
        assert mine.error == theirs.error


def assert_matrix_cell(tree, study, query, samples, bounds=False):
    """One corpus x engine cell: serial == parallel == batches of one (bit),
    all == naive (1e-9)."""
    sweep = RateSweep(query, samples)
    serial = study.run(sweep)
    assert serial.num_failed == 0
    assert_rows_match_bitwise(
        serial.rows, study.run(sweep, processes=2, chunk_size=2).rows
    )
    with batches_of(1):
        assert_rows_match_bitwise(serial.rows, study.run(sweep).rows)
    for row, sample in zip(serial.rows, samples):
        reference = evaluate(
            substitute_parameters(tree, sample), query, study.study.options
        )
        for kind in (m.kind for m in row.measures):
            if bounds:
                assert row[kind].lower == pytest.approx(
                    reference[kind].lower, abs=TOLERANCE
                )
                assert row[kind].upper == pytest.approx(
                    reference[kind].upper, abs=TOLERANCE
                )
            else:
                assert row[kind].values == pytest.approx(
                    reference[kind].values, abs=TOLERANCE
                )


ORDERINGS = ("linked", "modular")


def assert_aggregation_mode_cell(tree, query, bounds=False):
    """{linked, modular ordering} x {smaller-half splitter, signature}.

    Per engine the two orderings must reach the *same* final quotient (equal
    canonical forms, not just equal sizes); across engines the quotients
    agree on size and every cell agrees on the measures to ``<= 1e-9``.
    """
    finals = {}
    results = {}
    for minimiser in MINIMISERS:
        for ordering in ORDERINGS:
            study = Study(
                tree,
                StudyOptions(
                    ordering=ordering, aggregation=AggregationOptions(minimiser=minimiser)
                ),
            )
            finals[minimiser, ordering] = study.final_ioimc
            results[minimiser, ordering] = study.evaluate(query)
        assert canonical_form(finals[minimiser, "modular"]) == canonical_form(
            finals[minimiser, "linked"]
        ), f"the modular plan changed the {minimiser} quotient"

    assert (
        finals["splitter", "modular"].num_states == finals["signature", "modular"].num_states
    ), "the two engines disagree on the quotient size"
    baseline = results[MINIMISERS[0], "modular"]
    for result in results.values():
        for measure, reference in zip(result.measures, baseline.measures):
            assert measure.kind == reference.kind
            if bounds:
                assert measure.lower == pytest.approx(reference.lower, abs=TOLERANCE)
                assert measure.upper == pytest.approx(reference.upper, abs=TOLERANCE)
            else:
                assert measure.values == pytest.approx(reference.values, abs=TOLERANCE)


# --- CTMDP cells: shared-structure kernel vs legacy per-sample reference ---

_CTMDP_TREES = {
    "mutex-envelope": lambda: with_rate_parameters(mutually_exclusive_switch()),
    "pand-race": lambda: with_rate_parameters(pand_race_system()),
    "shared-spare": lambda: with_rate_parameters(shared_spare_race_system()),
    "race-bank-2": lambda: with_rate_parameters(pand_race_bank(2)),
    "rand-fdep-3": lambda: with_rate_parameters(
        random_dft(5, seed=3, fdep=True, shared_spares=True)
    ),
    "rand-fdep-11": lambda: with_rate_parameters(
        random_dft(6, seed=11, fdep=True, shared_spares=True)
    ),
}


def _ctmdp_central_fd(kernel, assignment, maximize):
    """Central finite differences of the kernel's bound curve per parameter."""
    columns = []
    for name in kernel.parameters:
        h = 1e-4 * max(assignment[name], 1.0)
        shifted = dict(assignment)
        shifted[name] = assignment[name] + h
        kernel.load(shifted)
        plus = kernel.time_bounded_reachability_curve(
            signals.FAILED_LABEL, MISSION_TIMES, maximize=maximize, tolerance=1e-12
        )
        shifted[name] = assignment[name] - h
        kernel.load(shifted)
        minus = kernel.time_bounded_reachability_curve(
            signals.FAILED_LABEL, MISSION_TIMES, maximize=maximize, tolerance=1e-12
        )
        columns.append((plus - minus) / (2.0 * h))
    return np.column_stack(columns)


def assert_ctmdp_cell(tree, samples, gradient_samples=0):
    """One CTMDP corpus cell: kernel == legacy reference engine per sample and
    direction to ``<= 1e-9``; on the first ``gradient_samples`` samples the
    analytic gradients also match central finite differences to ``<= 1e-6``."""
    skeleton = ctmdp_skeleton_from_ioimc(Study(tree).final_ioimc)
    kernel = skeleton.ctmdp_kernel()
    for index, sample in enumerate(samples):
        legacy = skeleton.instantiate(sample)
        for maximize in (True, False):
            kernel.load(sample)
            fast = kernel.time_bounded_reachability_curve(
                signals.FAILED_LABEL, MISSION_TIMES, maximize=maximize, tolerance=1e-12
            )
            slow = time_bounded_reachability_curve_reference(
                legacy, signals.FAILED_LABEL, MISSION_TIMES, maximize=maximize, tolerance=1e-12
            )
            assert np.max(np.abs(fast - slow)) <= TOLERANCE
            if index < gradient_samples:
                _curve, grads = kernel.gradient_curve(
                    signals.FAILED_LABEL,
                    MISSION_TIMES,
                    maximize=maximize,
                    tolerance=1e-12,
                )
                fd = _ctmdp_central_fd(kernel, sample, maximize)
                assert np.max(np.abs(grads - fd)) <= 1e-6


def assert_ctmdp_sweep_cell(tree, samples):
    """The sweep paths over a CTMDP skeleton: batched kernel rows equal
    batches of one (bit) and per-sample instantiation rows on both bounds."""
    study = SweepStudy(tree)
    sweep = RateSweep(UnreliabilityBounds(MISSION_TIMES), samples)
    fast = study.run(sweep)
    with batches_of(1):
        assert_rows_match_bitwise(fast.rows, study.run(sweep).rows)
    slow = per_sample_rows(study.skeleton, sweep.query, samples, tree.parameters)
    assert fast.num_failed == 0
    assert all(row.ok for row in slow)
    for mine, theirs in zip(fast.rows, slow):
        assert mine.sample == theirs.sample
        bounds = mine["unreliability_bounds"]
        reference = theirs["unreliability_bounds"]
        assert bounds.lower == pytest.approx(reference.lower, abs=TOLERANCE)
        assert bounds.upper == pytest.approx(reference.upper, abs=TOLERANCE)


class TestTier1Smoke:
    """The matrix's tier-1 slice: one small system, both engines."""

    @pytest.mark.parametrize("minimiser", MINIMISERS)
    def test_mutex_cell(self, minimiser):
        tree = _corpus_tree("mutex")
        assert_matrix_cell(
            tree,
            _study("mutex", minimiser),
            Unreliability(MISSION_TIMES),
            _corpus_samples(tree, count=3),
        )

    def test_cps_aggregation_modes(self):
        # Multi-module system: the modular plan differs from the linked order.
        assert_aggregation_mode_cell(
            cascaded_pand_system(), Unreliability(MISSION_TIMES)
        )

    def test_pand_race_ctmdp_cell(self):
        # One genuinely non-deterministic cell in tier 1: kernel vs legacy
        # reference in both directions, plus a gradient-vs-FD sample.
        tree = _CTMDP_TREES["pand-race"]()
        assert_ctmdp_cell(tree, _corpus_samples(tree, count=2), gradient_samples=1)


@pytest.mark.slow
class TestAggregationModeMatrix:
    """{linked, modular} x {smaller-half, signature} on paper + random trees."""

    @pytest.mark.parametrize("system", ["cas", "mutex"])
    def test_paper_system_cell(self, system):
        assert_aggregation_mode_cell(
            _corpus_tree(system), Unreliability(MISSION_TIMES)
        )

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_random_tree_cell(self, seed):
        assert_aggregation_mode_cell(
            random_dft(6, seed=seed), Unreliability(MISSION_TIMES)
        )

    @pytest.mark.parametrize("seed", [2, 7])
    def test_pattern_tree_cell_bounds(self, seed):
        # FDEP / shared-spare patterns may leave a CTMDP: compare bounds.
        assert_aggregation_mode_cell(
            random_dft(5, seed=seed, fdep=True, shared_spares=True),
            UnreliabilityBounds(MISSION_TIMES),
            bounds=True,
        )


@pytest.mark.slow
class TestPaperSystemMatrix:
    @pytest.mark.parametrize("minimiser", MINIMISERS)
    @pytest.mark.parametrize("system", ["cas", "cps", "mutex"])
    def test_cell(self, system, minimiser):
        tree = _corpus_tree(system)
        assert_matrix_cell(
            tree,
            _study(system, minimiser),
            Unreliability(MISSION_TIMES),
            _corpus_samples(tree, count=6),
        )


@pytest.mark.slow
class TestFigure2Matrix:
    """Figure 2 at the I/O-IMC level: the kernel's refilled matrix reproduces
    a full numeric rebuild of compose + hide + minimisation, per engine."""

    @pytest.mark.parametrize("minimiser", MINIMISERS)
    @given(rate=st.floats(min_value=0.05, max_value=5.0))
    def test_kernel_curve_equals_numeric_rebuild(self, minimiser, rate):
        from repro.ioimc import ParametricRate

        def build(lam):
            model_a, _ = figure2_models(rate=1.0)
            from repro.ioimc import IOIMC, signature

            model_b = IOIMC("B", signature(inputs=["a"], outputs=["b"]))
            states = [
                model_b.add_state(name=str(i + 1), initial=(i == 0)) for i in range(5)
            ]
            model_b.add_markovian(states[0], lam, states[1])
            model_b.add_interactive(states[0], "a", states[2])
            model_b.add_interactive(states[1], "a", states[3])
            model_b.add_markovian(states[2], lam, states[3])
            model_b.add_interactive(states[3], "b", states[4])
            composed = parallel(model_a, model_b).hide(["a"])
            return minimize_weak(composed, algorithm=minimiser).hide(["b"])

        symbolic = build(ParametricRate.for_parameter("lam", 1.0))
        kernel = TransientKernel(ctmc_skeleton_from_ioimc(symbolic))
        kernel.load({"lam": rate})
        curve = kernel.probability_of_label_curve("failed", MISSION_TIMES)

        numeric = ctmc_skeleton_from_ioimc(build(rate)).instantiate()
        reference = probability_of_label_curve(numeric, "failed", MISSION_TIMES)
        assert curve == pytest.approx(reference, abs=TOLERANCE)


@pytest.mark.slow
class TestRandomTreeMatrix:
    """Seeded random trees, including FDEP / shared-spare patterns (where the
    model may be a CTMDP, compared on bound envelopes)."""

    @pytest.mark.parametrize("minimiser", MINIMISERS)
    @given(
        seed=st.integers(min_value=0, max_value=30),
        num_events=st.integers(min_value=4, max_value=6),
        scale=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_plain_tree_cell(self, minimiser, seed, num_events, scale):
        tree = with_rate_parameters(random_dft(num_events, seed=seed))
        samples = [
            {
                name: max(0.05, min(5.0, nominal * factor))
                for name, nominal in tree.parameters.items()
            }
            for factor in (scale, 1.0, 2.0 / (1.0 + scale))
        ]
        assert_matrix_cell(
            tree,
            SweepStudy(tree, _options(minimiser)),
            Unreliability(MISSION_TIMES),
            samples,
        )

    @pytest.mark.parametrize("minimiser", MINIMISERS)
    @given(
        seed=st.integers(min_value=0, max_value=15),
        scale=st.floats(min_value=0.1, max_value=4.0),
    )
    def test_pattern_tree_cell_bounds(self, minimiser, seed, scale):
        tree = with_rate_parameters(
            random_dft(5, seed=seed, fdep=True, shared_spares=True)
        )
        samples = [
            {
                name: max(0.05, min(5.0, nominal * factor))
                for name, nominal in tree.parameters.items()
            }
            for factor in (scale, 1.0)
        ]
        assert_matrix_cell(
            tree,
            SweepStudy(tree, _options(minimiser)),
            UnreliabilityBounds(MISSION_TIMES),
            samples,
            bounds=True,
        )


@pytest.mark.slow
class TestCtmdpMatrix:
    """CTMDP corpus x {kernel, legacy per-sample reference} x {max, min}.

    Every cell checks the bound curves to ``<= 1e-9``; gradient cells check
    the analytic derivatives against central finite differences to
    ``<= 1e-6``.  The mutex envelope cell covers the degenerate case where
    aggregation removes all non-determinism (the bounds coincide but still
    have to match the reference engine).
    """

    @pytest.mark.parametrize("system", sorted(_CTMDP_TREES))
    def test_kernel_vs_reference_cell(self, system):
        tree = _CTMDP_TREES[system]()
        assert_ctmdp_cell(tree, _corpus_samples(tree, count=4), gradient_samples=2)

    @pytest.mark.parametrize("system", ["pand-race", "race-bank-2", "rand-fdep-3"])
    def test_sweep_path_cell(self, system):
        tree = _CTMDP_TREES[system]()
        assert_ctmdp_sweep_cell(tree, _corpus_samples(tree, count=4))
