"""CompiledModel.evaluate_many: one stacked kernel pass per batch of samples.

A row must not depend on the batch it shares: sweep rows are bit-identical
whether every batch holds one sample, two, or the whole sweep, serially or
in pool chunks — with gradients and MTTF queries too.  A failing sample keeps its own error and leaves the others
untouched, and :meth:`CompiledModel.evaluate` is the batch of one.
"""

import math
import random

import pytest

import repro.ctmc.kernel as kernel_module

from repro import RateSweep, SweepStudy, Unreliability, UnreliabilityBounds
from repro.core.measures import MTTF, ImportanceRanking
from repro.core.study import CompiledModel
from repro.core.sweep import with_rate_parameters
from repro.ctmc.builders import CtmcSkeleton
from repro.errors import AnalysisError, ModelError
from repro.ioimc.rates import ParametricRate
from repro.systems import cascaded_pand_system, pand_race_bank
from tests.core.test_sweep_parallel import assert_rows_bit_identical, parametric_tree
from tests.sweep_reference import batches_of


def cps_case():
    events = {f"{m}{i}": "lam" for m in ("A", "C", "D") for i in range(1, 5)}
    tree = with_rate_parameters(cascaded_pand_system(), events)
    sweep = RateSweep.grid(Unreliability([0.5, 1.0, 2.0]) + MTTF(), lam=[0.05, 0.3, 0.8, 1.3, 2.0])
    return tree, sweep


def race_case():
    tree = with_rate_parameters(pand_race_bank(3))
    samples = [
        {name: nominal * scale for name, nominal in tree.parameters.items()}
        for scale in (0.35, 1.0, 2.9, 0.7, 1.6)
    ]
    return tree, RateSweep(UnreliabilityBounds([0.25, 1.0, 2.0]), samples)


def spare_case():
    sweep = RateSweep.grid(
        Unreliability([0.5, 1.0]) + UnreliabilityBounds([1.0]) + MTTF(),
        lam=[0.1, 0.9, 2.5],
        mu=[0.5, 3.0],
    )
    return parametric_tree(), sweep


CASES = {"cps": cps_case, "race-bank": race_case, "spare": spare_case}
RUNS = {
    "plain": {},
    "gradients": {"gradients": True},
}


class TestBatchInvariance:
    @pytest.mark.parametrize("run", sorted(RUNS))
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_rows_do_not_depend_on_the_batch(self, case, run):
        tree, sweep = CASES[case]()
        study = SweepStudy(tree)
        options = RUNS[run]
        whole = study.run(sweep, **options)
        assert whole.num_failed == 0
        for blocks in (1, 2):
            with batches_of(blocks):
                assert_rows_bit_identical(whole.rows, study.run(sweep, **options).rows)
        pooled = study.run(sweep, processes=2, **options)
        assert_rows_bit_identical(whole.rows, pooled.rows)
        if options.get("gradients"):
            assert all(row.gradients for row in whole.rows)

    def test_evaluate_is_the_batch_of_one(self):
        tree, sweep = cps_case()
        model = CompiledModel(SweepStudy(tree).skeleton)
        assignments = [{**tree.parameters, **sample} for sample in sweep.samples]
        batch = model.evaluate_many(sweep.query, assignments, on_error="record")
        for assignment, evaluation in zip(assignments, batch):
            assert evaluation.error is None
            alone = model.evaluate(sweep.query, assignment, on_error="record")
            assert alone.measures == evaluation.measures

    def test_rankings_run_per_sample_in_a_batch(self):
        tree, _sweep = race_case()
        model = CompiledModel(SweepStudy(tree).skeleton)
        query = UnreliabilityBounds([1.0]) + ImportanceRanking([1.0])
        assignments = [dict(tree.parameters), {name: 2 * v for name, v in tree.parameters.items()}]
        batch = model.evaluate_many(query, assignments, on_error="record")
        for assignment, evaluation in zip(assignments, batch):
            assert evaluation.measures == model.evaluate(query, assignment).measures
            assert evaluation.measures[1].ranking


def dipping_skeleton():
    """One edge rate ``lam - 0.5``: non-positive for ``lam <= 0.5``."""
    return CtmcSkeleton(
        num_states=3,
        initial=0,
        labels=(frozenset(), frozenset(), frozenset({"failed"})),
        state_names=(None, None, None),
        edges=((0, 1, ParametricRate(-0.5, {"lam": 1.0}, {"lam": 1.0})), (1, 2, 2.0)),
    )


class TestFailingSamples:
    QUERY = Unreliability([0.5, 1.0]) + MTTF()

    def test_failing_sample_keeps_its_error_and_spares_the_batch(self):
        model = CompiledModel(dipping_skeleton())
        good = [{"lam": 2.0}, {"lam": 1.5}, {"lam": 3.0}]
        mixed = [good[0], {"lam": 0.2}, good[1], good[2]]
        batch = model.evaluate_many(self.QUERY, mixed)
        clean = model.evaluate_many(self.QUERY, good)
        assert [evaluation.error is None for evaluation in batch] == [True, False, True, True]
        failed = batch[1]
        assert failed.measures == ()
        with pytest.raises(ModelError) as alone:
            model.evaluate(self.QUERY, mixed[1])
        assert str(failed.error) == str(alone.value)
        assert [evaluation.measures for evaluation in batch if evaluation.error is None] == [
            evaluation.measures for evaluation in clean
        ]

    def test_measure_failure_under_raise_fails_only_its_sample(self):
        tree, _sweep = race_case()
        model = CompiledModel(SweepStudy(tree).skeleton)
        batch = model.evaluate_many(MTTF(), [None, None], on_error="raise")
        assert all(isinstance(evaluation.error, AnalysisError) for evaluation in batch)
        with pytest.raises(AnalysisError, match="MTTF of non-deterministic"):
            model.evaluate(MTTF())

    def test_rows_share_the_batch_time(self):
        model = CompiledModel(dipping_skeleton())
        batch = model.evaluate_many(self.QUERY, [{"lam": 2.0}, {"lam": 0.2}, {"lam": 4.0}])
        for evaluation in batch:
            assert evaluation.load_seconds >= 0.0
            assert evaluation.solve_seconds >= 0.0
            assert math.isfinite(evaluation.load_seconds + evaluation.solve_seconds)

    def test_unknown_on_error_mode_is_rejected(self):
        model = CompiledModel(dipping_skeleton())
        with pytest.raises(AnalysisError, match="on_error"):
            model.evaluate_many(self.QUERY, [{"lam": 2.0}], on_error="ignore")

    def test_no_assignments_give_no_evaluations(self):
        assert CompiledModel(dipping_skeleton()).evaluate_many(self.QUERY, []) == []


#: Rate scales spread over 10x, with ties; -1 makes every rate negative.
SCALES = (0.3, 1.0, 3.0, 1.0, 0.6, 2.2, 0.3, 1.4, -1.0)


def scaled(tree, scales):
    return [
        {name: nominal * scale for name, nominal in tree.parameters.items()}
        for scale in scales
    ]


def cps_scaled_case():
    tree, _sweep = cps_case()
    return tree, Unreliability([0.5, 1.0, 2.0]) + MTTF()


def race_scaled_case():
    tree, _sweep = race_case()
    return tree, UnreliabilityBounds([0.25, 1.0, 2.0])


class TestRateOrderedBatches:
    """Batches are cut in descending uniformisation rate and every block
    stops at its own depth; rows stay the batch of one, in sample order."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("dense_limit", [None, 0])
    @pytest.mark.parametrize("case", ["cps", "race-bank"])
    def test_rows_are_the_batch_of_one_in_any_sample_order(
        self, case, dense_limit, seed, monkeypatch
    ):
        if dense_limit is not None:
            monkeypatch.setattr(kernel_module, "DENSE_STATE_LIMIT", dense_limit)
        tree, query = {"cps": cps_scaled_case, "race-bank": race_scaled_case}[case]()
        model = CompiledModel(SweepStudy(tree).skeleton)
        assert (model.kernel.buffer.dense is None) == (dense_limit == 0)
        scales = list(SCALES)
        random.Random(seed).shuffle(scales)
        assignments = scaled(tree, scales)
        for blocks in (3, len(assignments)):
            with batches_of(blocks):
                batch = model.evaluate_many(query, assignments, on_error="record")
            for scale, assignment, evaluation in zip(scales, assignments, batch):
                if scale < 0:
                    assert isinstance(evaluation.error, ModelError)
                    assert "non-positive" in str(evaluation.error)
                    assert evaluation.measures == ()
                    continue
                assert evaluation.error is None
                alone = model.evaluate(query, assignment, on_error="record")
                assert evaluation.measures == alone.measures

    def test_sorted_race_bank_sweep_steps_less_than_sample_order(self, monkeypatch):
        from tests.ctmc.test_kernel import count_block_steps

        tree = with_rate_parameters(pand_race_bank(5))
        model = CompiledModel(SweepStudy(tree).skeleton)
        scales = [0.35 + 2.55 * index / 35 for index in range(36)]
        random.Random(1).shuffle(scales)
        assignments = scaled(tree, scales)
        query = UnreliabilityBounds([0.25, 0.5, 1.0, 2.0])
        kernel = model.kernel
        batches = -(-len(assignments) // kernel.buffer.max_blocks)
        assert batches > 1
        size = -(-len(assignments) // batches)
        counts = count_block_steps(monkeypatch, "step_forward")
        # The batches cut in sample order, as before the rate ordering.
        for begin in range(0, len(assignments), size):
            kernel.load_many(assignments[begin : begin + size])
            kernel.reachability_bounds_curve("failed", query.times, tolerance=1e-12)
        in_sample_order = dict(counts)
        counts.update(calls=0, blocks=0)
        evaluations = model.evaluate_many(query, assignments)
        assert all(evaluation.error is None for evaluation in evaluations)
        assert counts["calls"] < in_sample_order["calls"]
        assert counts["blocks"] < in_sample_order["blocks"]
