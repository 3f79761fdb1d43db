"""Chunked scheduling + the streaming JSONL batch sink (schema repro.batch/2)."""

import io
import json

import pytest

from repro import BatchStudy, Unreliability
from repro.core.results import (
    BATCH_ROW_SCHEMA,
    read_batch_jsonl,
    write_batch_jsonl,
)
from repro.dft import FaultTreeBuilder, galileo
from repro.errors import AnalysisError


def small_tree(name: str, rate: float):
    builder = FaultTreeBuilder(name)
    builder.basic_event("A", rate)
    builder.basic_event("B", 1.0)
    builder.and_gate("top", ["A", "B"])
    return builder.build(top="top")


def write_corpus(directory, good: int):
    """``good`` Galileo files plus one corrupt one (an error row) last."""
    paths = []
    for index in range(1, good + 1):
        tree = small_tree(f"t{index}", 0.5 * index)
        path = directory / f"t{index}.dft"
        galileo.write_file(tree, str(path))
        paths.append(str(path))
    bad = directory / "bad.dft"
    bad.write_text("this is not galileo\n")
    paths.append(str(bad))
    return paths


@pytest.fixture
def corpus(tmp_path):
    """Three good Galileo files plus one corrupt one (an error row)."""
    return write_corpus(tmp_path, 3)


class TestIterRows:
    def test_serial_iteration_matches_run(self, corpus):
        batch = BatchStudy(corpus, Unreliability([1.0]))
        streamed = list(batch.iter_rows())
        collected = batch.run().rows
        assert [row.to_dict()["name"] for row in streamed] == [
            row.to_dict()["name"] for row in collected
        ]
        assert [row.ok for row in streamed] == [row.ok for row in collected]

    # With 2 workers, 4 trees run as chunks of 1; 19 trees as nine chunks
    # of 2 and a short last chunk of 1 (the corrupt file).
    @pytest.mark.parametrize("good", [3, 18])
    def test_chunked_parallel_matches_serial_order(self, tmp_path, good):
        batch = BatchStudy(write_corpus(tmp_path, good), Unreliability([1.0]))
        serial = [(row.name, row.ok) for row in batch.iter_rows()]
        chunked = [(row.name, row.ok) for row in batch.iter_rows(processes=2)]
        assert chunked == serial
        assert [ok for _name, ok in serial] == [True] * good + [False]

    def test_processes_must_be_positive(self, corpus):
        batch = BatchStudy(corpus, Unreliability([1.0]))
        with pytest.raises(AnalysisError, match="processes"):
            list(batch.iter_rows(processes=-2))


class TestJsonlRoundTrip:
    def test_rows_round_trip_to_the_same_batch_result(self, corpus):
        """The satellite acceptance check: in-memory rows -> sink -> back."""
        batch = BatchStudy(corpus, Unreliability([1.0]))
        in_memory = batch.run()
        assert in_memory.num_failed == 1  # the corrupt file

        sink = io.StringIO()
        write_batch_jsonl(iter(in_memory.rows), sink)
        sink.seek(0)
        restored = read_batch_jsonl(sink)

        assert len(restored) == len(in_memory)
        assert restored.num_failed == in_memory.num_failed
        # Loss-free at the JSON level, error rows included.
        assert [row.to_dict() for row in restored.rows] == [
            row.to_dict() for row in in_memory.rows
        ]

    def test_error_rows_survive_the_sink(self, corpus):
        batch = BatchStudy(corpus, Unreliability([1.0]))
        sink = io.StringIO()
        batch.run(sink=sink)
        sink.seek(0)
        restored = read_batch_jsonl(sink)
        failed = [row for row in restored.rows if not row.ok]
        assert len(failed) == 1
        assert failed[0].result is None
        assert failed[0].error

    def test_streamed_result_keeps_truthful_aggregates(self, corpus):
        """A sink run must not report a failing corpus as clean just because
        the rows live on disk."""
        batch = BatchStudy(corpus, Unreliability([1.0]))
        result = batch.run(sink=io.StringIO())
        assert result.rows == ()
        assert len(result) == 4
        assert result.num_failed == 1
        assert result.num_ok == 3
        assert result.tree_seconds > 0.0
        assert "4 trees analysed (1 failed)" in result.summary()

    def test_restored_results_survive_pickle_and_deepcopy(self, corpus):
        """Restored results (typed statistics summaries) pickle and deep-copy."""
        import copy
        import pickle

        batch = BatchStudy(corpus, Unreliability([1.0]))
        sink = io.StringIO()
        batch.run(sink=sink)
        sink.seek(0)
        restored = read_batch_jsonl(sink)
        for clone in (pickle.loads(pickle.dumps(restored)), copy.deepcopy(restored)):
            assert [row.to_dict() for row in clone.rows] == [
                row.to_dict() for row in restored.rows
            ]

    def test_sink_records_are_self_describing(self, corpus):
        batch = BatchStudy(corpus, Unreliability([1.0]))
        sink = io.StringIO()
        result = batch.run(sink=sink, processes=2)
        # streaming mode returns the aggregate (rows live in the sink)
        assert result.rows == ()
        assert result.processes == 2
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert all(record["schema"] == BATCH_ROW_SCHEMA for record in lines)
        assert [record["kind"] for record in lines[:-1]] == ["row"] * (len(lines) - 1)
        assert lines[-1]["kind"] == "aggregate"
        assert lines[-1]["trees"] == 4
        assert lines[-1]["failed"] == 1

    def test_truncated_sink_reconstructs_from_rows(self, corpus):
        batch = BatchStudy(corpus, Unreliability([1.0]))
        sink = io.StringIO()
        batch.run(sink=sink)
        # drop the trailing aggregate record (an interrupted run)
        lines = sink.getvalue().splitlines()[:-1]
        restored = read_batch_jsonl(io.StringIO("\n".join(lines)))
        assert len(restored) == 4

    def test_reader_rejects_foreign_schemas(self):
        with pytest.raises(AnalysisError, match="schema"):
            read_batch_jsonl(io.StringIO('{"schema": "other/1", "kind": "row"}\n'))

    def test_reader_rejects_garbage(self):
        with pytest.raises(AnalysisError, match="not valid JSON"):
            read_batch_jsonl(io.StringIO("not json\n"))


class TestStreamingEquivalence:
    def test_streamed_rows_equal_in_memory_rows(self, corpus):
        """batch --output-jsonl produces the same rows as the in-memory path
        (modulo wall-clock timings, which belong to each run)."""
        query = Unreliability([1.0])
        in_memory = BatchStudy(corpus, query).run()
        sink = io.StringIO()
        BatchStudy(corpus, query).run(sink=sink)
        sink.seek(0)
        restored = read_batch_jsonl(sink)

        def normalise(row):
            payload = row.to_dict()
            payload.pop("wall_seconds", None)
            result = payload.get("result")
            if result:
                result.pop("timings", None)
            return payload

        assert [normalise(row) for row in restored.rows] == [
            normalise(row) for row in in_memory.rows
        ]


class TestMalformedRecords:
    """A damaged record is an AnalysisError naming the line and the field."""

    @pytest.fixture
    def records(self):
        batch = BatchStudy([small_tree("t1", 0.5), small_tree("t2", 1.5)], Unreliability([1.0]))
        sink = io.StringIO()
        batch.run(sink=sink)
        return [json.loads(line) for line in sink.getvalue().splitlines()]

    @staticmethod
    def read(records):
        return read_batch_jsonl(io.StringIO("\n".join(json.dumps(r) for r in records)))

    @pytest.mark.parametrize(
        "damage, named",
        [
            (lambda row: row.pop("name"), "batch row field 'name' is missing"),
            (lambda row: row["result"].pop("model"), "batch row field 'result.model' is missing"),
            (lambda row: row.update(wall_seconds="abc"), "'wall_seconds' must be a number"),
            (lambda row: row["result"]["measures"][0].update(values=["x"]),
             "'result.measures[0].values[0]' must be a number"),
            (lambda row: row["result"]["tree"].pop("name"), "'result.tree.name' is missing"),
        ],
        ids=["no-name", "result-without-model", "string-seconds", "string-value", "tree-name"],
    )
    def test_damaged_row(self, records, damage, named):
        damage(records[1])
        with pytest.raises(AnalysisError, match="line 2 of the batch sink") as error:
            self.read(records)
        assert named in str(error.value)

    def test_damaged_aggregate(self, records):
        records[-1]["processes"] = "2"
        with pytest.raises(AnalysisError, match="line 3 .*'processes' must be an integer"):
            self.read(records)

    def test_line_that_is_not_an_object(self, records):
        records[0] = [1, 2]
        with pytest.raises(AnalysisError, match="line 1 of the batch sink is not a JSON object"):
            self.read(records)

    def test_kind_that_is_not_a_string(self, records):
        records[1]["kind"] = ["row"]
        with pytest.raises(AnalysisError, match="line 2 of the batch sink has unknown kind"):
            self.read(records)

    def test_study_result_with_a_non_object_model(self, records):
        from repro.core.results import StudyResult

        payload = records[0]["result"]
        payload["model"] = 1
        with pytest.raises(AnalysisError, match="study result field 'model' must be a JSON object"):
            StudyResult.from_dict(payload)
        with pytest.raises(AnalysisError, match="'schema' is missing"):
            StudyResult.from_dict({"model": 1})

    def test_client_decode_path(self, records, monkeypatch):
        from repro.service.client import ServiceClient

        body = records[0]["result"]
        body.pop("measures")
        client = ServiceClient("http://127.0.0.1:9", retries=0)
        monkeypatch.setattr(client, "analyze", lambda tree, **kwargs: body)
        with pytest.raises(AnalysisError, match="study result field 'measures' is missing"):
            client.analyze_result("ignored")
