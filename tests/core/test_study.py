"""Tests for the query engine (Study / evaluate / BatchStudy)."""

import json

import pytest

from repro import (
    MTTF,
    BatchStudy,
    Query,
    Study,
    StudyOptions,
    Unavailability,
    Unreliability,
    UnreliabilityBounds,
    evaluate,
)
from repro.core.signals import FAILED_LABEL
from repro.dft import galileo
from repro.errors import AnalysisError, CompositionError
from repro.systems import (
    cardiac_assist_system,
    pand_race_system,
    random_corpus,
    repairable_and_system,
)


class TestStudyEvaluate:
    def test_matches_per_time_concrete_model(self, cold_spare_tree):
        study = Study(cold_spare_tree)
        result = study.evaluate(Unreliability([0.5, 1.0]) + MTTF())
        model = study.markov_model
        unrel = result["unreliability"]
        assert unrel.values[0] == pytest.approx(
            model.probability_of_label(FAILED_LABEL, 0.5), abs=1e-12
        )
        assert unrel.values[1] == pytest.approx(
            model.probability_of_label(FAILED_LABEL, 1.0), abs=1e-12
        )
        assert result["mttf"].value == pytest.approx(model.mean_time_to_label(FAILED_LABEL))

    def test_single_measure_without_query_wrapper(self, and_tree):
        result = evaluate(and_tree, Unreliability(1.0))
        assert 0.0 < result["unreliability"].value < 1.0

    def test_bounds_collapse_on_deterministic_model(self, and_tree):
        result = evaluate(and_tree, UnreliabilityBounds([1.0]))
        low, high = result["unreliability_bounds"].bounds
        assert low == pytest.approx(high)

    def test_bounds_on_nondeterministic_model(self):
        result = evaluate(pand_race_system(), UnreliabilityBounds([1.0]))
        low, high = result["unreliability_bounds"].bounds
        assert low < high
        assert result.model.nondeterministic

    def test_unreliability_on_nondeterministic_model_raises(self):
        with pytest.raises(AnalysisError):
            evaluate(pand_race_system(), Unreliability([1.0]))

    def test_on_error_record_keeps_the_other_measures(self):
        study = Study(pand_race_system())
        result = study.evaluate(
            UnreliabilityBounds([1.0]) + MTTF(), on_error="record"
        )
        bounds, mttf = result.measures
        assert bounds.ok and bounds.lower is not None
        assert not mttf.ok and "non-deterministic" in mttf.error
        assert result.to_dict()["measures"][1]["error"] == mttf.error
        with pytest.raises(AnalysisError):
            mttf.value

    def test_batch_records_per_measure_errors_without_failing_rows(self):
        result = BatchStudy(
            [pand_race_system()], UnreliabilityBounds([1.0]) + MTTF()
        ).run()
        row = result.rows[0]
        assert row.ok  # tree-level analysis succeeded
        assert row.result["unreliability_bounds"].ok
        assert not row.result["mttf"].ok

    def test_on_error_rejects_unknown_mode(self, and_tree):
        with pytest.raises(AnalysisError):
            Study(and_tree).evaluate(Unreliability([1.0]), on_error="ignore")

    def test_unavailability_steady_and_transient(self, repairable_and_tree):
        result = evaluate(
            repairable_and_tree, Query(Unavailability(), Unavailability(50.0))
        )
        steady, transient = result.measures
        assert steady.steady_state and not transient.steady_state
        assert transient.values[0] == pytest.approx(steady.value, abs=1e-6)

    def test_shared_pipeline_is_cached(self, and_tree):
        study = Study(and_tree)
        first = study.evaluate(Unreliability([1.0]))
        second = study.evaluate(MTTF())
        assert study.final_ioimc is study.final_ioimc
        assert first.statistics is second.statistics

    def test_timings_cover_every_stage(self, and_tree):
        result = evaluate(and_tree, Unreliability([1.0]))
        assert set(result.timings) == {
            "conversion",
            "aggregation",
            "markov",
            "evaluation",
            "total",
        }
        assert all(value >= 0.0 for value in result.timings.values())

    def test_measure_order_is_preserved(self, cold_spare_tree):
        result = evaluate(cold_spare_tree, MTTF() + Unreliability([1.0]))
        assert [m.kind for m in result.measures] == ["mttf", "unreliability"]

    def test_getitem_unknown_kind_raises(self, and_tree):
        result = evaluate(and_tree, Unreliability([1.0]))
        assert "unreliability" in result
        with pytest.raises(KeyError):
            result["mttf"]

    def test_options_are_recorded(self, and_tree):
        result = evaluate(and_tree, Unreliability([1.0]), StudyOptions(ordering="sequential"))
        assert result.options["ordering"] == "sequential"
        assert result.options["tolerance"] == 1e-12

    def test_result_is_json_serialisable(self, and_tree):
        result = evaluate(and_tree, Unreliability([0.5, 1.0]) + MTTF())
        payload = json.loads(result.to_json())
        assert payload["schema"] == "repro.study/1"
        assert payload["measures"][0]["values"] == list(result["unreliability"].values)
        # include_steps=False drops the per-step records but keeps the peaks.
        compact = result.to_dict(include_steps=False)
        assert "steps" not in compact["statistics"]
        assert compact["statistics"]["peak_product_states"] >= 1


class TestBatchStudy:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        for index, tree in enumerate(random_corpus(3, num_basic_events=4, seed=7)):
            galileo.write_file(tree, str(tmp_path / f"tree{index}.dft"))
        return tmp_path

    def test_runs_over_files(self, corpus_dir):
        paths = sorted(str(p) for p in corpus_dir.glob("*.dft"))
        result = BatchStudy(paths, UnreliabilityBounds([1.0])).run()
        assert len(result) == 3
        assert result.num_ok == 3 and result.num_failed == 0
        assert result.processes == 1
        assert all(row.source is not None for row in result)

    def test_in_memory_trees_match_single_tree_evaluation_exactly(self):
        """No Galileo round-trip: batch values equal evaluate() bit-for-bit."""
        tree = cardiac_assist_system()
        direct = evaluate(tree, UnreliabilityBounds([1.0]))
        row = BatchStudy([tree], UnreliabilityBounds([1.0])).run().rows[0]
        assert row.result["unreliability_bounds"].lower == direct["unreliability_bounds"].lower

    def test_runs_over_in_memory_trees(self):
        trees = [cardiac_assist_system(), repairable_and_system()]
        result = BatchStudy(trees, UnreliabilityBounds([1.0])).run()
        assert result.num_ok == 2
        cas = result.rows[0]
        assert cas.name == "cardiac-assist-system"
        low, high = cas.result["unreliability_bounds"].bounds
        assert low == pytest.approx(0.6579, abs=1e-4)
        assert high == pytest.approx(low)

    def test_parallel_matches_serial(self, corpus_dir):
        paths = sorted(str(p) for p in corpus_dir.glob("*.dft"))
        query = UnreliabilityBounds([0.5, 1.0])
        serial = BatchStudy(paths, query).run(processes=1)
        parallel = BatchStudy(paths, query).run(processes=2)
        assert parallel.processes == 2
        for left, right in zip(serial.rows, parallel.rows):
            assert left.result["unreliability_bounds"].lower == pytest.approx(
                right.result["unreliability_bounds"].lower, abs=1e-12
            )

    def test_non_utf8_file_becomes_an_error_row(self, corpus_dir):
        (corpus_dir / "binary.dft").write_bytes(b"\xff\xfe\x00garbage")
        paths = sorted(str(p) for p in corpus_dir.glob("*.dft"))
        result = BatchStudy(paths, UnreliabilityBounds([1.0])).run()
        assert result.num_failed == 1
        assert result.num_ok == 3

    def test_failures_become_rows_not_exceptions(self, corpus_dir):
        broken = corpus_dir / "broken.dft"
        broken.write_text('toplevel "X";\n"X" unknown_gate "A";\n')
        paths = sorted(str(p) for p in corpus_dir.glob("*.dft"))
        result = BatchStudy(paths, UnreliabilityBounds([1.0])).run()
        assert result.num_failed == 1
        failed = [row for row in result if not row.ok]
        assert len(failed) == 1 and failed[0].error

    def test_empty_corpus_rejected(self):
        with pytest.raises(AnalysisError):
            BatchStudy([], UnreliabilityBounds([1.0]))

    def test_invalid_tolerance_rejected(self):
        with pytest.raises(AnalysisError):
            StudyOptions(tolerance=0.0)
        with pytest.raises(AnalysisError):
            StudyOptions(tolerance=1.5)

    def test_unknown_ordering_rejected_on_construction(self):
        # Before any pipeline runs, and so before the options get a store key.
        with pytest.raises(CompositionError, match="unknown ordering strategy 'bogus'"):
            StudyOptions(ordering="bogus")

    def test_colliding_in_memory_names_get_index_suffixes(self):
        from repro.systems import random_dft

        trees = [random_dft(num_basic_events=4, seed=1) for _ in range(2)]
        result = BatchStudy(trees, UnreliabilityBounds([1.0])).run()
        names = [row.name for row in result]
        assert len(set(names)) == 2

    def test_identical_paths_get_index_suffixes(self, corpus_dir):
        path = str(sorted(corpus_dir.glob("*.dft"))[0])
        result = BatchStudy([path, path], UnreliabilityBounds([1.0])).run()
        names = [row.name for row in result]
        assert len(set(names)) == 2

    def test_colliding_stems_fall_back_to_full_paths(self, tmp_path):
        from repro.systems import random_dft

        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            galileo.write_file(random_dft(num_basic_events=4, seed=1), str(tmp_path / sub / "x.dft"))
        paths = [str(tmp_path / "a" / "x.dft"), str(tmp_path / "b" / "x.dft")]
        result = BatchStudy(paths, UnreliabilityBounds([1.0])).run()
        names = [row.name for row in result]
        assert len(set(names)) == 2 and names == paths

    def test_batch_json_schema(self, corpus_dir):
        paths = sorted(str(p) for p in corpus_dir.glob("*.dft"))
        result = BatchStudy(paths, UnreliabilityBounds([1.0])).run()
        payload = json.loads(result.to_json())
        assert payload["schema"] == "repro.batch/1"
        assert payload["aggregate"]["trees"] == 3
        assert payload["aggregate"]["failed"] == 0
        assert {"name", "source", "ok", "wall_seconds", "result"} <= set(payload["rows"][0])
