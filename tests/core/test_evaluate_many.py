"""CompiledModel.evaluate_many: one stacked kernel pass per batch of samples.

A row must not depend on the batch it shares: sweep rows are bit-identical
whether every batch holds one sample, two, or the whole sweep, serially or
in pool chunks — with shared uniformisation rates, gradients and MTTF
queries too.  A failing sample keeps its own error and leaves the others
untouched, and :meth:`CompiledModel.evaluate` is the batch of one.
"""

import math

import pytest

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
    "shared-rate": {"share_uniformisation": True},
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
        pooled = study.run(sweep, processes=2, chunk_size=2, **options)
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
