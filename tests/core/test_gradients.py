"""Parametric gradients and Birnbaum-style importance rankings.

The CTMDP kernel differentiates the uniformised backward sweep exactly —
``ParametricRate`` stores linear forms, so the generator's derivative per
parameter is a constant sparse matrix.  These tests pin the analytic
gradients against central finite differences on the paper systems, and cover
the measure/result/sweep plumbing that surfaces them.
"""

import json
import math

import numpy as np
import pytest

from repro.core import (
    ImportanceRanking,
    RateSweep,
    Study,
    SweepStudy,
    Unreliability,
    UnreliabilityBounds,
    signals,
)
from repro.core.results import MeasureResult, SweepRow
from repro.core.study import CompiledModel
from repro.core.sweep import with_rate_parameters
from repro.ctmc.builders import ctmdp_skeleton_from_ioimc
from repro.dft.builder import FaultTreeBuilder
from repro.errors import AnalysisError
from repro.systems import (
    mutually_exclusive_switch,
    pand_race_system,
    random_dft,
    shared_spare_race_system,
)

TIMES = (0.5, 1.0, 2.0)


def envelope_kernel(tree):
    kernel = ctmdp_skeleton_from_ioimc(Study(tree).final_ioimc).ctmdp_kernel()
    kernel.load()
    return kernel


def central_fd(kernel, tree, times, maximize, tolerance=1e-12):
    """Central finite differences of the bound curve w.r.t. every parameter."""
    nominal = dict(tree.parameters)
    columns = []
    for name in kernel.parameters:
        h = 1e-4 * max(nominal[name], 1.0)
        up = dict(nominal)
        up[name] = nominal[name] + h
        down = dict(nominal)
        down[name] = nominal[name] - h
        kernel.load(up)
        plus = kernel.time_bounded_reachability_curve(
            signals.FAILED_LABEL, times, maximize=maximize, tolerance=tolerance
        )
        kernel.load(down)
        minus = kernel.time_bounded_reachability_curve(
            signals.FAILED_LABEL, times, maximize=maximize, tolerance=tolerance
        )
        columns.append((plus - minus) / (2.0 * h))
    kernel.load()
    return np.column_stack(columns) if columns else np.zeros((len(times), 0))


class TestImportanceRankingMeasure:
    def test_direction_validated(self):
        assert ImportanceRanking((1.0,), direction="min").direction == "min"
        with pytest.raises(AnalysisError):
            ImportanceRanking((1.0,), direction="best")

    def test_to_dict_carries_direction(self):
        payload = ImportanceRanking((1.0, 2.0)).to_dict()
        assert payload == {
            "kind": "importance_ranking",
            "times": [1.0, 2.0],
            "direction": "max",
        }


class TestAnalyticVsFiniteDifferences:
    @pytest.mark.parametrize(
        "tree",
        [
            with_rate_parameters(pand_race_system()),
            with_rate_parameters(mutually_exclusive_switch()),
            with_rate_parameters(shared_spare_race_system()),
            with_rate_parameters(
                random_dft(num_basic_events=7, seed=4, fdep=True, shared_spares=True)
            ),
        ],
        ids=["pand-race", "mutex", "shared-spare", "rand7"],
    )
    @pytest.mark.parametrize("maximize", [True, False], ids=["max", "min"])
    def test_gradient_matches_central_fd(self, tree, maximize):
        kernel = envelope_kernel(tree)
        _curve, grads = kernel.gradient_curve(
            signals.FAILED_LABEL, TIMES, maximize=maximize, tolerance=1e-12
        )
        fd = central_fd(kernel, tree, TIMES, maximize)
        assert grads.shape == fd.shape
        assert np.max(np.abs(grads - fd)) <= 1e-6

    def test_known_closed_form(self):
        # Independent AND of two exponentials: U(t) = (1-e^{-at})(1-e^{-bt}),
        # dU/da = t e^{-at} (1-e^{-bt}).
        builder = FaultTreeBuilder("and-pair")
        builder.basic_event("A", 0.5)
        builder.basic_event("B", 1.2)
        builder.and_gate("system", ["A", "B"])
        tree = with_rate_parameters(builder.build(top="system"))
        kernel = envelope_kernel(tree)
        curve, grads = kernel.gradient_curve(
            signals.FAILED_LABEL, TIMES, maximize=True, tolerance=1e-12
        )
        a_index = kernel.parameters.index("A")
        for i, t in enumerate(TIMES):
            expected_value = (1 - math.exp(-0.5 * t)) * (1 - math.exp(-1.2 * t))
            expected_grad = t * math.exp(-0.5 * t) * (1 - math.exp(-1.2 * t))
            assert curve[i] == pytest.approx(expected_value, abs=1e-9)
            assert grads[i, a_index] == pytest.approx(expected_grad, abs=1e-9)

    def test_gradient_curve_value_matches_plain_curve(self):
        kernel = envelope_kernel(with_rate_parameters(pand_race_system()))
        for maximize in (True, False):
            plain = kernel.time_bounded_reachability_curve(
                signals.FAILED_LABEL, TIMES, maximize=maximize, tolerance=1e-12
            )
            curve, _grads = kernel.gradient_curve(
                signals.FAILED_LABEL, TIMES, maximize=maximize, tolerance=1e-12
            )
            assert np.array_equal(curve, plain)


class TestStudyIntegration:
    def test_nondeterministic_ranking(self):
        tree = with_rate_parameters(pand_race_system())
        result = Study(tree).evaluate(
            UnreliabilityBounds(TIMES) + ImportanceRanking(TIMES)
        )
        measure = result["importance_ranking"]
        assert set(measure.gradients) == set(tree.parameters)
        # The max-direction ranking differentiates the upper bound.
        assert measure.values == result["unreliability_bounds"].upper
        # Ranking is ordered by |gradient| at the last mission time.
        magnitudes = [abs(measure.gradients[name][-1]) for name in measure.ranking]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_deterministic_ranking_via_envelope(self):
        tree = with_rate_parameters(mutually_exclusive_switch())
        result = Study(tree).evaluate(Unreliability(TIMES) + ImportanceRanking(TIMES))
        measure = result["importance_ranking"]
        unreliability = result["unreliability"]
        for value, expected in zip(measure.values, unreliability.values):
            assert value == pytest.approx(expected, abs=1e-9)

    def test_min_direction(self):
        tree = with_rate_parameters(pand_race_system())
        result = Study(tree).evaluate(
            UnreliabilityBounds(TIMES) + ImportanceRanking(TIMES, direction="min")
        )
        assert result["importance_ranking"].values == result["unreliability_bounds"].lower

    def test_unparametrised_tree_is_a_recorded_error(self):
        result = Study(mutually_exclusive_switch()).evaluate(
            ImportanceRanking(TIMES), on_error="record"
        )
        measure = result["importance_ranking"]
        assert not measure.ok
        assert "with_rate_parameters" in measure.error

    def test_skeleton_query_ctmdp_path(self):
        tree = with_rate_parameters(pand_race_system())
        skeleton = ctmdp_skeleton_from_ioimc(Study(tree).final_ioimc)
        measures = CompiledModel(skeleton).evaluate(
            UnreliabilityBounds(TIMES) + ImportanceRanking(TIMES)
        ).measures
        by_kind = {measure.kind: measure for measure in measures}
        assert by_kind["importance_ranking"].ranking is not None
        reference = Study(tree).evaluate(UnreliabilityBounds(TIMES))
        assert by_kind["unreliability_bounds"].upper == pytest.approx(
            reference["unreliability_bounds"].upper, abs=1e-9
        )


class TestSweepGradients:
    def test_rows_carry_gradients(self):
        tree = with_rate_parameters(pand_race_system())
        sweep = RateSweep(UnreliabilityBounds(TIMES), samples=[{"T": 0.5}, {"T": 1.5}])
        result = SweepStudy(tree).run(sweep, gradients=True)
        assert result.options.get("gradients") is True
        for row in result.rows:
            assert row.ok
            assert set(row.gradients) == set(tree.parameters)
            assert all(len(curve) == len(TIMES) for curve in row.gradients.values())

    def test_row_gradients_match_fd_across_samples(self):
        tree = with_rate_parameters(pand_race_system())
        kernel = envelope_kernel(tree)
        sample = {"T": 0.7}
        sweep = RateSweep(UnreliabilityBounds(TIMES), samples=[sample])
        row = SweepStudy(tree).run(sweep, gradients=True).rows[0]
        assignment = dict(tree.parameters)
        assignment.update(sample)
        for name, curve in row.gradients.items():
            h = 1e-4 * max(assignment[name], 1.0)
            up = dict(assignment)
            up[name] = assignment[name] + h
            down = dict(assignment)
            down[name] = assignment[name] - h
            kernel.load(up)
            plus = kernel.time_bounded_reachability_curve(
                signals.FAILED_LABEL, TIMES, maximize=True, tolerance=1e-12
            )
            kernel.load(down)
            minus = kernel.time_bounded_reachability_curve(
                signals.FAILED_LABEL, TIMES, maximize=True, tolerance=1e-12
            )
            fd = (plus - minus) / (2.0 * h)
            assert np.max(np.abs(np.asarray(curve) - fd)) <= 1e-6

    def test_importance_measure_inside_sweep(self):
        tree = with_rate_parameters(mutually_exclusive_switch())
        sweep = RateSweep(
            Unreliability(TIMES) + ImportanceRanking(TIMES), samples=[{"SO": 0.4}]
        )
        row = SweepStudy(tree).run(sweep).rows[0]
        assert row.ok
        assert row["importance_ranking"].ranking is not None

    def test_serialisation_round_trip(self):
        tree = with_rate_parameters(pand_race_system())
        sweep = RateSweep(
            UnreliabilityBounds(TIMES) + ImportanceRanking(TIMES),
            samples=[{"T": 0.5}],
        )
        result = SweepStudy(tree).run(sweep, gradients=True)
        payload = json.loads(result.to_json())
        assert payload["schema"] == "repro.sweep/3"
        row = SweepRow.from_dict(payload["rows"][0])
        assert row.gradients == result.rows[0].gradients
        measure = MeasureResult.from_dict(
            next(
                entry
                for entry in payload["rows"][0]["measures"]
                if entry["kind"] == "importance_ranking"
            )
        )
        original = result.rows[0]["importance_ranking"]
        assert measure.ranking == original.ranking
        assert measure.gradients == original.gradients
